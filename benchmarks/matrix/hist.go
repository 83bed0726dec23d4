package main

import (
	"math/bits"
	"sort"
)

// The latency histogram is log-linear: values below 128 ns get one bucket
// each, and every octave above is cut into histSub equal buckets, so a bucket
// is never wider than 1/64 (1.6 %) of the values it holds. The bucket array
// is fixed, so a run of any length costs the same memory.
const (
	histSub     = 64
	histBuckets = histSub * 40 // tops out past 2^45 ns (about 10 hours)
)

// histogram counts durations in nanoseconds. One goroutine owns it while it
// is being filled; merge combines the clients' histograms afterwards.
type histogram struct {
	counts [histBuckets]uint64
	n      uint64
	max    uint64
}

func bucketOf(v uint64) int {
	if v < 2*histSub {
		return int(v)
	}
	e := bits.Len64(v) - 7
	i := histSub*e + int(v>>uint(e))
	if i >= histBuckets {
		return histBuckets - 1
	}
	return i
}

// bucketBounds returns the lowest value bucket i holds and the bucket's width.
func bucketBounds(i int) (lo, width uint64) {
	if i < 2*histSub {
		return uint64(i), 1
	}
	e := i/histSub - 1
	return uint64(i-histSub*e) << uint(e), 1 << uint(e)
}

func (h *histogram) add(ns uint64) {
	h.counts[bucketOf(ns)]++
	h.n++
	if ns > h.max {
		h.max = ns
	}
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	if o.max > h.max {
		h.max = o.max
	}
}

// quantile returns the q-quantile in nanoseconds, interpolating by rank
// inside the bucket that holds it, so that two runs whose quantiles fall in
// the same bucket still report the values they measured.
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if before+float64(c) >= rank {
			lo, width := bucketBounds(i)
			v := float64(lo) + float64(width)*(rank-before)/float64(c)
			if v > float64(h.max) {
				v = float64(h.max)
			}
			return v
		}
		before += float64(c)
	}
	return float64(h.max)
}

// tail returns the q-quantile only when at least ten samples lie beyond it;
// a percentile resting on fewer samples is one outlier, not a measurement.
func (h *histogram) tail(q float64) (ns float64, ok bool) {
	if float64(h.n)*(1-q) < 10 {
		return 0, false
	}
	return h.quantile(q), true
}

// median returns the median of vs, the mean of the middle pair when len(vs)
// is even; 0 for an empty slice. vs is not modified.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}
