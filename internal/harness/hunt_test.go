package harness

import (
	"testing"

	"slmem/internal/sched"
	"slmem/internal/spec"
)

// obs4BaseSchedule is the scripted schedule of the Observation 4 prefix S
// followed by T1's continuation — a natural "one execution" of the workload
// whose cut points the hunt then explores.
func obs4BaseSchedule() []int {
	rep := func(pid, k int) []int {
		out := make([]int, k)
		for i := range out {
			out[i] = pid
		}
		return out
	}
	var s []int
	s = append(s, rep(1, 4)...)  // dw1
	s = append(s, rep(0, 3)...)  // dr1 through line 16
	s = append(s, rep(1, 16)...) // dw2..dw5
	s = append(s, rep(0, 9)...)  // dr1 completion + dr2
	return s
}

// TestHuntFindsObservation4 rediscovers the paper's impossibility without
// hard-coding the branch point: branching at every cut of one natural
// execution, with writer-priority vs reader-priority futures, must expose
// at least one cut where Algorithm 1 admits no prefix-preserving
// linearization function.
func TestHuntFindsObservation4(t *testing.T) {
	res, err := Hunt(
		func() sched.System { return Observation4System(ABALinearizable) },
		obs4BaseSchedule(),
		spec.ABARegister{N: 2},
		[][]int{{1, 0}, {0, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) == 0 {
		t.Fatalf("hunt over %d cuts found no violation — Observation 4 should be discoverable", res.CutsTried)
	}
	t.Logf("hunt: %d/%d cut points violate prefix preservation: %v",
		len(res.Violations), res.CutsTried, res.Violations)
}

// TestHuntClearsAlgorithm2 runs the identical hunt against Algorithm 2:
// every cut must pass.
func TestHuntClearsAlgorithm2(t *testing.T) {
	// Algorithm 2's DRead has a different step structure, so derive the base
	// schedule from an actual run instead of the Algorithm 1 script.
	probe := sched.Run(Observation4System(ABAStrong), sched.PriorityAdversary(1, 0), sched.Options{})
	if !probe.Completed() {
		t.Fatalf("probe incomplete: %v", probe.Err)
	}
	res, err := Hunt(
		func() sched.System { return Observation4System(ABAStrong) },
		probe.Schedule,
		spec.ABARegister{N: 2},
		[][]int{{1, 0}, {0, 1}},
	)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("Algorithm 2 violated prefix preservation at cuts %v", res.Violations)
	}
}
