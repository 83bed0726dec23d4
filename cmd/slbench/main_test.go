package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"slmem/internal/kind"
)

func TestRunSelected(t *testing.T) {
	// E4 and E5 are the fastest experiments; they cover both flag paths.
	if err := run([]string{"-e", "E4,E5"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunMarkdown(t *testing.T) {
	if err := run([]string{"-e", "E4", "-md"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run([]string{"-e", "E99"})
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if !strings.Contains(err.Error(), "E7") {
		t.Errorf("error should mention where E7 lives: %v", err)
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-definitely-not-a-flag"}); err == nil {
		t.Fatal("bad flag accepted")
	}
}

func TestSelectionCaseInsensitive(t *testing.T) {
	if err := run([]string{"-e", "e4"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunE9(t *testing.T) {
	if err := run([]string{"-e", "E9"}); err != nil {
		t.Fatal(err)
	}
}

func TestJSONSummary(t *testing.T) {
	var buf bytes.Buffer
	// 10 ms a probe: the derived ratio below is a quotient of differences of
	// means, and with 2 ms windows one descheduling of the direct probe —
	// the other packages' tests share the cores — now and then turned a
	// difference negative.
	if err := emitJSONSummary(&buf, 10*time.Millisecond); err != nil {
		t.Fatal(err)
	}
	line := strings.TrimRight(buf.String(), "\n")
	if strings.ContainsRune(line, '\n') {
		t.Fatalf("summary is not one line:\n%s", line)
	}
	var sum perfSummary
	if err := json.Unmarshal([]byte(line), &sum); err != nil {
		t.Fatalf("summary is not valid JSON: %v\n%s", err, line)
	}
	if sum.Schema != "slbench/v5" {
		t.Errorf("schema = %q", sum.Schema)
	}
	if len(sum.Probes) < 8 {
		t.Fatalf("only %d probes", len(sum.Probes))
	}
	names := make(map[string]bool, len(sum.Probes))
	modes := make(map[string]string, len(sum.Probes))
	for _, p := range sum.Probes {
		names[p.Name] = true
		modes[p.Name] = p.Mode
		if p.Ops <= 0 || p.NsPerOp <= 0 {
			t.Errorf("probe %q has empty fields: %+v", p.Name, p)
		}
		if p.Mode != "steady" && p.Mode != "growth" {
			t.Errorf("probe %q has mode %q, want steady or growth", p.Name, p.Mode)
		}
		if p.AllocsPerOp < 0 {
			t.Errorf("probe %q has negative allocs_per_op %v", p.Name, p.AllocsPerOp)
		}
		// Paper-layer probes must report their register allocation (the
		// space metric); service-layer probes — including universal/*,
		// which reads GCStats off an object living behind the registry —
		// document it as zero.
		serviceLayer := strings.HasPrefix(p.Name, "registry/") ||
			strings.HasPrefix(p.Name, "server/") || strings.HasPrefix(p.Name, "driver/") ||
			strings.HasPrefix(p.Name, "universal/")
		if serviceLayer && p.Registers != 0 {
			t.Errorf("service-layer probe %q reports registers=%d, want 0", p.Name, p.Registers)
		}
		if !serviceLayer && p.Registers <= 0 {
			t.Errorf("probe %q reports registers=%d, want > 0", p.Name, p.Registers)
		}
	}
	for _, want := range []string{
		"counter/inc-direct", "counter/inc-pooled",
		"registry/counter-inc-perop", "registry/counter-inc-batch64",
		"server/counter-inc-request", "server/counter-inc-batch64",
	} {
		if !names[want] {
			t.Errorf("probe %q missing from summary", want)
		}
	}
	// Schema v3: one probe per registered driver that supplies a probe
	// request — enumerated, not hardcoded, so this loop is over the live
	// driver registry and a kind registered tomorrow is covered untouched.
	for _, d := range kind.Drivers() {
		p, ok := d.(kind.Prober)
		if !ok {
			continue
		}
		if want := "driver/" + d.Kind() + "-" + p.Probe().Op; !names[want] {
			t.Errorf("driver probe %q missing from summary", want)
		}
	}
	if !names["driver/bag-insert"] {
		t.Error("the bag driver is not registered in slbench (missing driver/bag-insert probe)")
	}
	// Schema v4 added the growth/steady distinction; v5 reclassifies
	// driver/object-execute as steady (history truncation is on by default
	// for the object kind, so its history no longer grows over the probe)
	// and adds the GC probes with truncation telemetry.
	for name, wantMode := range map[string]string{
		"driver/object-execute":      "steady",
		"driver/bag-insert":          "growth",
		"driver/object-execute-warm": "steady",
		"driver/bag-churn":           "steady",
		"driver/object-gc-churn":     "steady",
		"universal/live-nodes":       "steady",
		"counter/inc-direct":         "steady",
	} {
		if !names[name] {
			t.Errorf("probe %q missing from summary", name)
		} else if modes[name] != wantMode {
			t.Errorf("probe %q has mode %q, want %q", name, modes[name], wantMode)
		}
	}
	for _, p := range sum.Probes {
		if p.Name == "driver/bag-churn" && p.SpaceCells <= 0 {
			t.Errorf("bag churn probe reports space_cells=%d, want > 0 (the open tail chunk)", p.SpaceCells)
		}
		// Live precedence-graph nodes: the churn ops themselves are live
		// until truncated, so this is always at least 1. (Truncation count
		// is not asserted — a 10ms probe may end before the first window.)
		if p.Name == "universal/live-nodes" && p.SpaceCells <= 0 {
			t.Errorf("live-nodes probe reports space_cells=%d, want > 0", p.SpaceCells)
		}
	}
	// The derived ratio is what BENCH_*.json records for the batch pipeline;
	// it must be present and positive (its magnitude is hardware-dependent,
	// so the threshold lives in the recorded BENCH files, not in this test).
	if sum.Derived.Batch64OverheadRatio <= 0 {
		t.Errorf("derived = %+v, want a positive batch64_overhead_ratio", sum.Derived)
	}
}
