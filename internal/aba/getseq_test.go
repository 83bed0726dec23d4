package aba

import (
	"math/rand"
	"slices"
	"testing"

	"slmem/internal/memory"
)

// refWriter is GetSeq as the paper states it and as this package computed it
// before it kept counts: remember the announcement just read, then search
// {0,...,2n+1} upward for the first number that is in neither usedQ nor na.
// It is the reference the count-based getSeq must agree with, call for call.
type refWriter struct {
	n     int
	usedQ []int // ring of the n+1 most recently used numbers
	head  int
	na    []int
	c     int
}

func newRefWriter(n int) *refWriter {
	return &refWriter{n: n, usedQ: noSeqs(make([]int, n+1)), na: noSeqs(make([]int, n))}
}

// getSeq is handed the announcement the real writer is about to read.
func (r *refWriter) getSeq(p int, ann tag) int {
	r.na[r.c] = noSeq
	if ann.pid == p {
		r.na[r.c] = ann.seq
	}
	r.c = (r.c + 1) % r.n
	for cand := 0; cand <= 2*r.n+1; cand++ {
		if !slices.Contains(r.usedQ, cand) && !slices.Contains(r.na, cand) {
			r.usedQ[r.head] = cand
			r.head = (r.head + 1) % len(r.usedQ)
			return cand
		}
	}
	panic("reference: no available sequence number")
}

// TestGetSeqMatchesBruteForce drives one writer's getSeq against the
// reference under fuzzed announcements. Between writes, readers overwrite
// announcement registers with tags the algorithm could put there: ⊥, another
// writer's tag, or this writer's tag with any number it has used — including
// one used long ago, which is exactly the case GetSeq exists for.
func TestGetSeqMatchesBruteForce(t *testing.T) {
	for _, n := range []int{1, 2, 4, 16} {
		for seed := int64(1); seed <= 20; seed++ {
			rng := rand.New(rand.NewSource(seed))
			var alloc memory.NativeAllocator
			b := newBase(&alloc, n, 0, func(a, b int) bool { return a == b })
			p := rng.Intn(n)
			ref := newRefWriter(n)
			used := []int{}
			for i := 0; i < 400*n; i++ {
				for k := rng.Intn(3); k > 0; k-- {
					q := rng.Intn(n)
					switch rng.Intn(4) {
					case 0:
						b.a[q].Write(q, tag{pid: noSeq, seq: noSeq})
					case 1:
						b.a[q].Write(q, tag{pid: (p + 1) % (n + 1), seq: rng.Intn(2*n + 2)})
					default:
						if len(used) > 0 {
							b.a[q].Write(q, tag{pid: p, seq: used[rng.Intn(len(used))]})
						}
					}
				}
				want := ref.getSeq(p, b.a[ref.c].Read(p))
				got := b.getSeq(p)
				if got != want {
					t.Fatalf("n=%d seed=%d call %d: getSeq chose %d, brute-force search %d", n, seed, i, got, want)
				}
				used = append(used, got)
			}
			l := &b.w[p]
			for s, held := range l.held {
				if want := count(l.usedQ.buf, s) + count(l.na, s); held != want {
					t.Fatalf("n=%d seed=%d: held[%d] = %d, but usedQ and na name it %d times", n, seed, s, held, want)
				}
			}
		}
	}
}

func count(s []int, v int) int {
	k := 0
	for _, x := range s {
		if x == v {
			k++
		}
	}
	return k
}
