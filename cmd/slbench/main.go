// Command slbench runs the experiment suite that regenerates the paper's
// claims as tables (the experiment index is in docs/ARCHITECTURE.md,
// "Verification and performance stack"). It measures no performance: that is
// benchmarks/matrix, cmd/slload and go test -bench.
//
// Usage:
//
//	slbench            # run every experiment
//	slbench -e E2,E5   # run selected experiments
//	slbench -md        # emit markdown tables
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"slmem/internal/harness"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slbench:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slbench", flag.ContinueOnError)
	var (
		only     = fs.String("e", "", "comma-separated experiment ids to run (e.g. E1,E5); default all")
		markdown = fs.Bool("md", false, "emit markdown instead of aligned text")
		seed     = fs.Int64("seed", 0, "offset every experiment schedule seed; 0 reproduces the historical schedules byte-for-byte")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	harness.SetSeedBase(*seed)

	experiments := []struct {
		id  string
		run func() (*harness.Table, error)
	}{
		{"E1", harness.E1Observation4},
		{"E2", harness.E2ABASteps},
		{"E3", harness.E3SnapshotSteps},
		{"E4", harness.E4SoloOps},
		{"E5", harness.E5SpaceGrowth},
		{"E6", harness.E6Universal},
		{"E8", harness.E8Starvation},
		{"E9", harness.E9LeaseSoak},
	}

	selected := make(map[string]bool)
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			selected[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}

	ran := 0
	for _, e := range experiments {
		if len(selected) > 0 && !selected[e.id] {
			continue
		}
		start := time.Now()
		tbl, err := e.run()
		if err != nil {
			return fmt.Errorf("%s: %w", e.id, err)
		}
		if *markdown {
			fmt.Println(tbl.Markdown())
		} else {
			fmt.Println(tbl.String())
		}
		fmt.Printf("(%s finished in %v)\n\n", e.id, time.Since(start).Round(time.Millisecond))
		ran++
	}
	if ran == 0 {
		return fmt.Errorf("no experiments matched %q (E7 lives in bench_test.go: go test -bench=.)", *only)
	}
	return nil
}
