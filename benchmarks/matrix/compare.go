package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// bounded is an end-to-end metric as BENCHMARK.json declares it: which way
// is better, and the share of the first file's median by which the second
// may be worse.
type bounded struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// failShare is compared beside the declared metrics: any increase is worse.
var failShareBound = bounded{Name: "fail_share", Unit: "share", Better: "lower", Bound: 0}

// Verdicts of one metric on one workload.
const (
	verdictOK         = "ok"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved"
)

// classify compares the runs of one metric on one workload in two result
// files. rel is how much worse b's median is than a's, as a share of a's
// (negative when b is better). The verdict is unresolved when the runs
// inside one file already differ by more than the bound, or a file has no
// run: then the files cannot show whether the metric moved.
func classify(a, b []float64, mb bounded) (medA, medB, rel float64, verdict string) {
	if len(a) == 0 || len(b) == 0 {
		return median(a), median(b), 0, verdictUnresolved
	}
	medA, medB = median(a), median(b)
	diff := medB - medA
	if mb.Better == "higher" {
		diff = -diff
	}
	switch {
	case medA != 0:
		rel = diff / medA
	case diff > 0:
		rel = 1 // worse than a zero: any increase is the whole of it
	}
	switch {
	case spread(a) > mb.Bound || spread(b) > mb.Bound:
		verdict = verdictUnresolved
	case rel > mb.Bound:
		verdict = verdictWorse
	default:
		verdict = verdictOK
	}
	return medA, medB, rel, verdict
}

// spread is (max - min) / median of the runs, 0 for fewer than two runs or a
// zero median.
func spread(vs []float64) float64 {
	med := median(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	lo, hi := vs[0], vs[0]
	for _, v := range vs {
		lo, hi = min(lo, v), max(hi, v)
	}
	return (hi - lo) / med
}

// readRecords reads a result file: one JSON record per line.
func readRecords(path string) ([]record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var recs []record
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var r record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		recs = append(recs, r)
	}
	return recs, sc.Err()
}

// readBounds finds BENCHMARK.json in the working directory or above it and
// returns its end-to-end metrics.
func readBounds() ([]bounded, error) {
	dir, err := os.Getwd()
	if err != nil {
		return nil, err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			var doc struct {
				EndToEnd []bounded `json:"end_to_end"`
			}
			if err := json.Unmarshal(data, &doc); err != nil {
				return nil, fmt.Errorf("BENCHMARK.json: %w", err)
			}
			return doc.EndToEnd, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return nil, fmt.Errorf("no BENCHMARK.json in the working directory or above it")
		}
		dir = parent
	}
}

// valuesOf collects one metric of one workload over a file's records.
func valuesOf(recs []record, workload, name string) []float64 {
	var vs []float64
	for _, r := range recs {
		if v, ok := r.Metrics[name]; ok && r.Workload == workload {
			vs = append(vs, v.Value)
		}
	}
	return vs
}

// compareFiles prints, for every end-to-end metric on every workload, both
// files' medians, how much worse the second is, the bound, and the verdict.
// It returns exitWrong if any verdict is worse or unresolved.
func compareFiles(pathA, pathB string, stdout io.Writer) int {
	bounds, err := readBounds()
	if err != nil {
		fmt.Fprintln(os.Stderr, "matrix:", err)
		return exitUsage
	}
	a, errA := readRecords(pathA)
	b, errB := readRecords(pathB)
	if err := errors.Join(errA, errB); err != nil {
		fmt.Fprintln(os.Stderr, "matrix:", err)
		return exitUsage
	}
	return printComparison(a, b, append(bounds, failShareBound), stdout)
}

func printComparison(a, b []record, bounds []bounded, stdout io.Writer) int {
	code := exitOK
	fmt.Fprintf(stdout, "%-18s %-11s %14s %14s %-6s %8s %6s  %s\n",
		"workload", "metric", "A median", "B median", "unit", "worse by", "bound", "verdict")
	for _, w := range workloads {
		for _, mb := range bounds {
			va, vb := valuesOf(a, w.name, mb.Name), valuesOf(b, w.name, mb.Name)
			medA, medB, rel, verdict := classify(va, vb, mb)
			if verdict != verdictOK {
				code = exitWrong
			}
			fmt.Fprintf(stdout, "%-18s %-11s %14.4f %14.4f %-6s %+7.1f%% %5.0f%%  %s (%d and %d runs)\n",
				w.name, mb.Name, medA, medB, mb.Unit, 100*rel, 100*mb.Bound, verdict, len(va), len(vb))
		}
	}
	return code
}
