package main

import (
	"bytes"
	"os"
	"sort"
	"strconv"
	"sync/atomic"
	"time"
)

// On a shared host the hypervisor takes the virtual CPUs away for stretches
// of seconds at a time; measured here, a neighbour stole 40 % of both CPUs
// for 12 s in every 25 s, and throughput and median latency moved by a third
// with it. No wall-clock number repeats within a tenth across that. The
// kernel reports the stolen time, so the benchmark reads it at every slice
// boundary and measures only from the slices the machine was left alone in.

const (
	// stealLimit is the share of a slice's CPU time the hypervisor may have
	// stolen for the slice still to count as undisturbed.
	stealLimit = 0.03
	// minClean is the least number of slices measured from; when fewer are
	// undisturbed, the least disturbed ones make up the number.
	minClean = 5
)

// cpuTicks is the kernel's account of all CPUs' time, in clock ticks.
type cpuTicks struct{ steal, total uint64 }

// readCPUTicks parses the first line of /proc/stat:
// cpu user nice system idle iowait irq softirq steal guest guest_nice.
func readCPUTicks() (cpuTicks, bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTicks{}, false
	}
	line, _, _ := bytes.Cut(data, []byte{'\n'})
	fields := bytes.Fields(line)
	if len(fields) < 9 || string(fields[0]) != "cpu" {
		return cpuTicks{}, false
	}
	var t cpuTicks
	for i, f := range fields[1:9] {
		v, err := strconv.ParseUint(string(f), 10, 64)
		if err != nil {
			return cpuTicks{}, false
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t, true
}

// stealMeter reads the CPU account at every slice boundary of a window.
type stealMeter struct {
	ticks []cpuTicks
}

// run samples until the window has closed or stop is raised.
func (sm *stealMeter) run(wd window, stop *atomic.Bool) {
	for k := 0; k <= wd.n; k++ {
		boundary := wd.start.Add(time.Duration(k) * wd.slice)
		for !stop.Load() {
			left := time.Until(boundary)
			if left <= 0 {
				break
			}
			time.Sleep(min(left, 100*time.Millisecond))
		}
		t, ok := readCPUTicks()
		if !ok || stop.Load() {
			return
		}
		sm.ticks = append(sm.ticks, t)
	}
}

// stolen returns the share of each slice's CPU time the hypervisor stole, or
// nil when the kernel's account could not be read for the whole window.
func (sm *stealMeter) stolen(n int) []float64 {
	if len(sm.ticks) != n+1 {
		return nil
	}
	shares := make([]float64, n)
	for k := range shares {
		a, b := sm.ticks[k], sm.ticks[k+1]
		if b.total > a.total {
			shares[k] = float64(b.steal-a.steal) / float64(b.total-a.total)
		}
	}
	return shares
}

// cleanSlices picks the slices to measure from: every slice when the stolen
// shares are unknown, else those within stealLimit, topped up to minClean
// with the least disturbed of the rest.
func cleanSlices(stolen []float64, n int) []int {
	all := make([]int, n)
	for i := range all {
		all[i] = i
	}
	if stolen == nil {
		return all
	}
	sort.SliceStable(all, func(i, j int) bool { return stolen[all[i]] < stolen[all[j]] })
	keep := 0
	for keep < n && (stolen[all[keep]] <= stealLimit || keep < minClean) {
		keep++
	}
	clean := all[:keep]
	sort.Ints(clean)
	return clean
}
