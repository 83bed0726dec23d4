package harness

import (
	"strconv"
	"strings"
	"testing"

	"slmem/internal/core"
	"slmem/internal/lincheck"
	"slmem/internal/sched"
	"slmem/internal/spec"
)

func TestTableFormatting(t *testing.T) {
	tbl := &Table{
		Title:  "T",
		Claim:  "c",
		Header: []string{"a", "bb"},
		Notes:  []string{"n1"},
	}
	tbl.AddRow(1, "x")
	tbl.AddRow("longer", 2)

	text := tbl.String()
	for _, want := range []string{"## T", "Claim: c", "a", "bb", "longer", "note: n1"} {
		if !strings.Contains(text, want) {
			t.Errorf("String() missing %q:\n%s", want, text)
		}
	}
	md := tbl.Markdown()
	for _, want := range []string{"### T", "| a | bb |", "| --- | --- |", "| longer | 2 |"} {
		if !strings.Contains(md, want) {
			t.Errorf("Markdown() missing %q:\n%s", want, md)
		}
	}
}

func TestObservation4TreeShape(t *testing.T) {
	tree, err := Observation4Tree()
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 2 {
		t.Fatalf("children = %d, want 2 (T1, T2)", len(tree.Children))
	}
	// The prefix contains dw1 complete, dr1 pending, dw2 complete.
	h := tree.T.Interpreted()
	if len(h.Ops) != 3 {
		t.Fatalf("prefix has %d ops, want 3:\n%s", len(h.Ops), h)
	}
	if h.Ops[1].Complete() {
		t.Error("dr1 should be pending in the prefix")
	}
	// T1's dr2 must return (x,false), T2's (x,true) — the proof's A-2/B-2.
	finals := []string{}
	for _, c := range tree.Children {
		last := ""
		for _, op := range c.T.Interpreted().Ops {
			if op.Complete() && op.Desc == "DRead()" {
				last = op.Res
			}
		}
		finals = append(finals, last)
	}
	if finals[0] != "(x,false)" || finals[1] != "(x,true)" {
		t.Fatalf("dr2 results = %v, want [(x,false) (x,true)]", finals)
	}
}

func TestE1Verdicts(t *testing.T) {
	tbl, err := E1Observation4()
	if err != nil {
		t.Fatal(err)
	}
	// Row 0: the scripted tree — linearizable yes, strongly linearizable NO.
	if tbl.Rows[0][3] != "yes" || tbl.Rows[0][4] != "NO" {
		t.Errorf("scripted row = %v, want linearizable=yes strong=NO", tbl.Rows[0])
	}
	// Algorithm 2 rows must all be strongly linearizable; the only "NO"
	// verdicts allowed are Algorithm 1's scripted tree and its guided hunt.
	for _, row := range tbl.Rows[1:] {
		isAlg1 := strings.Contains(row[1], "algorithm1") || row[1] == "Algorithm 1"
		isHunt := strings.HasPrefix(row[0], "guided hunt")
		switch {
		case !isAlg1 && row[4] != "yes":
			t.Errorf("row %v: Algorithm 2 must pass", row)
		case isAlg1 && isHunt && row[4] != "NO":
			t.Errorf("row %v: guided hunt must rediscover the Algorithm 1 violation", row)
		}
	}
}

func TestE2Verdicts(t *testing.T) {
	tbl, err := E2ABASteps()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) == 0 {
		t.Fatal("no rows")
	}
	for _, row := range tbl.Rows {
		// Theorem 14(a): max DWrite steps is exactly 2.
		if row[5] != "2" {
			t.Errorf("row %v: max DWrite steps = %s, want 2", row, row[5])
		}
		// Theorem 14(b): the ratio stays bounded by a small constant.
		ratio, err := strconv.ParseFloat(row[8], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio > 4.0 {
			t.Errorf("row %v: ratio %f exceeds sanity bound", row, ratio)
		}
	}
}

func TestE3Verdicts(t *testing.T) {
	tbl, err := E3SnapshotSteps()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		ratio, err := strconv.ParseFloat(row[6], 64)
		if err != nil {
			t.Fatal(err)
		}
		if ratio > 1.0 {
			t.Errorf("row %v: scan ops exceeded the Theorem 32 bound", row)
		}
	}
}

func TestE4Verdicts(t *testing.T) {
	tbl, err := E4SoloOps()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range tbl.Rows {
		if row[3] != row[4] {
			t.Errorf("%s %s: measured %s, expected %s", row[0], row[1], row[3], row[4])
		}
	}
}

func TestE5Verdicts(t *testing.T) {
	tbl, err := E5SpaceGrowth()
	if err != nil {
		t.Fatal(err)
	}
	first, last := tbl.Rows[0], tbl.Rows[len(tbl.Rows)-1]
	if first[1] != last[1] {
		t.Errorf("algorithm3 registers grew: %s -> %s", first[1], last[1])
	}
	if first[2] != last[2] {
		t.Errorf("fully-bounded registers grew: %s -> %s", first[2], last[2])
	}
	v0, _ := strconv.Atoi(first[3])
	vN, _ := strconv.Atoi(last[3])
	if vN <= v0+50 {
		t.Errorf("versioned registers grew only %d -> %d; expected unbounded-style growth", v0, vN)
	}
}

func TestE8Verdicts(t *testing.T) {
	tbl, err := E8Starvation()
	if err != nil {
		t.Fatal(err)
	}
	// Victim step counts must grow with w within each object group, and the
	// victim must always be last to finish.
	var prev int
	for i, row := range tbl.Rows {
		steps, err := strconv.Atoi(row[2])
		if err != nil {
			t.Fatal(err)
		}
		if i%3 != 0 && steps <= prev {
			t.Errorf("row %v: victim steps %d did not grow (prev %d)", row, steps, prev)
		}
		prev = steps
		if row[3] != "yes" {
			t.Errorf("row %v: victim finished before writers — storm adversary failed", row)
		}
	}
}

func TestABASystemWorkloadShape(t *testing.T) {
	sys := ABASystem(ABAStrong, 4, 2, 3, 5)
	res := sched.Run(sys, &sched.RoundRobin{}, sched.Options{})
	if !res.Completed() {
		t.Fatalf("incomplete: %v", res.Err)
	}
	reads, writes := 0, 0
	for _, op := range res.T.Interpreted().Ops {
		if strings.HasPrefix(op.Desc, "DRead") {
			reads++
		} else {
			writes++
		}
	}
	if reads != 2*3 || writes != 2*5 {
		t.Errorf("ops = %d reads, %d writes; want 6, 10", reads, writes)
	}
}

func TestSnapshotSystemStatsExposed(t *testing.T) {
	var read func() *core.Stats
	sys := SnapshotSystem(2, 1, 2, 2, &read)
	res := sched.Run(sys, &sched.RoundRobin{}, sched.Options{})
	if !res.Completed() {
		t.Fatalf("incomplete: %v", res.Err)
	}
	if read == nil {
		t.Fatal("stats reader not populated by Setup")
	}
	stats := read()
	if stats.SUpdates.Load() != 2 {
		t.Errorf("SUpdates = %d, want 2", stats.SUpdates.Load())
	}
	if stats.TotalScanOps() < 3*2 {
		t.Errorf("TotalScanOps = %d, want >= 6", stats.TotalScanOps())
	}
}

func TestStepsByOp(t *testing.T) {
	sys := ABASystem(ABAStrong, 2, 1, 2, 2)
	res := sched.Run(sys, &sched.RoundRobin{}, sched.Options{})
	if !res.Completed() {
		t.Fatalf("incomplete: %v", res.Err)
	}
	writes := StepsByOp(res.T, func(d string) bool { return strings.HasPrefix(d, "DWrite") })
	if writes.Ops != 2 {
		t.Errorf("DWrite ops = %d, want 2", writes.Ops)
	}
	if writes.Max != 2 || writes.Total != 4 {
		t.Errorf("DWrite steps: max=%d total=%d, want 2/4", writes.Max, writes.Total)
	}
	all := StepsByOp(res.T, func(string) bool { return true })
	if all.Ops != 4 {
		t.Errorf("total ops = %d, want 4", all.Ops)
	}
}

func TestRandomBranchTreePrefixProperty(t *testing.T) {
	sys := Observation4System(ABAStrong)
	tree, err := RandomBranchTree(sys, 3, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(tree.Children) != 4 {
		t.Fatalf("fanout = %d, want 4", len(tree.Children))
	}
	for _, c := range tree.Children {
		if !tree.T.IsPrefixOf(c.T) {
			t.Fatal("child does not extend prefix")
		}
		// Children ran to completion.
		if !c.T.Interpreted().Complete() {
			t.Fatal("continuation left pending operations")
		}
	}
	// The tree must satisfy strong linearizability (Algorithm 2).
	res, err := lincheck.CheckStrong(lincheck.FromSchedTree(tree), spec.ABARegister{N: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Ok {
		t.Error("Algorithm 2 failed on a random branching tree")
	}
}

func TestTreeStats(t *testing.T) {
	tree, err := Observation4Tree()
	if err != nil {
		t.Fatal(err)
	}
	nodes, leaves, depth := TreeStats(tree)
	if nodes != 3 || leaves != 2 || depth != 1 {
		t.Errorf("TreeStats = (%d,%d,%d), want (3,2,1)", nodes, leaves, depth)
	}
}
