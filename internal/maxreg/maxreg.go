// Package maxreg implements max-registers from atomic registers.
//
// Bounded is the binary-trie construction of Aspnes, Attiya, and Censor,
// which Helmi, Higham, and Woelfel proved wait-free strongly linearizable
// (paper Section 1.1/4.1): a register trie over the value range [0, 2^k)
// where a write marks the path to its leaf bottom-up and a read descends the
// marked switches to the current maximum.
//
// Bounded is augmented (as in the paper's Section 4.1) to carry a payload
// with every value: maxWrite(v, payload) attaches payload to v, and maxRead
// returns the payload of the maximum. The Denysyuk–Woelfel unbounded
// versioned-object construction (internal/versioned) stores object states as
// payloads keyed by version numbers.
//
// NewUnbounded returns a trie over the full uint64 range with lazily
// allocated nodes: the paper's unbounded max-register needs unboundedly many
// registers, and the lazy trie makes that growth measurable (experiment E5).
// The uint64 domain stands in for the paper's unbounded integers.
package maxreg

import (
	"errors"
	"fmt"
	"sync/atomic"

	"slmem/internal/memory"
)

// ErrOutOfRange is returned when a written value exceeds the register's
// capacity.
var ErrOutOfRange = errors.New("maxreg: value out of range")

// node is one trie node covering a value range of size 2^level. Children
// are created lazily; creating a node allocates its switch register (and, at
// leaves, the payload register). The CAS on the child pointer only
// publishes the lazily materialized register — conceptually the whole trie
// pre-exists, and materialization is not a shared-memory step.
type node[P any] struct {
	sw      memory.Reg[bool] // non-leaf: set iff the right half contains a write
	payload memory.Reg[P]    // leaf only
	left    atomic.Pointer[node[P]]
	right   atomic.Pointer[node[P]]
}

// Bounded is a wait-free strongly linearizable bounded max-register over
// [0, 2^k), carrying a payload of type P with each value.
//
// Methods take the calling process id.
type Bounded[P any] struct {
	alloc memory.Allocator
	k     int
	root  *node[P]
	init  P
}

// NewBounded constructs a max-register over [0, 2^k). Its initial value is 0
// with payload initPayload.
func NewBounded[P any](alloc memory.Allocator, k int, initPayload P) *Bounded[P] {
	if k < 0 || k > 64 {
		panic(fmt.Sprintf("maxreg: k = %d, want 0 <= k <= 64", k))
	}
	b := &Bounded[P]{alloc: alloc, k: k, init: initPayload}
	b.root = b.newNode(k, "mr")
	return b
}

// NewUnbounded constructs a max-register over the full uint64 range with
// lazily allocated nodes (the paper's unbounded max-register, with the
// domain capped at 64-bit values).
func NewUnbounded[P any](alloc memory.Allocator, initPayload P) *Bounded[P] {
	return NewBounded(alloc, 64, initPayload)
}

// Capacity returns the exclusive upper bound of writable values
// (2^k; returned as ^uint64(0) for k = 64).
func (b *Bounded[P]) Capacity() uint64 {
	if b.k >= 64 {
		return ^uint64(0)
	}
	return uint64(1) << uint(b.k)
}

func (b *Bounded[P]) newNode(level int, name string) *node[P] {
	n := &node[P]{}
	if level == 0 {
		n.payload = memory.NewReg(b.alloc, name+".leaf", b.init)
	} else {
		n.sw = memory.NewReg(b.alloc, name+".sw", false)
	}
	return n
}

func (b *Bounded[P]) child(n *node[P], level int, right bool) *node[P] {
	ptr := &n.left
	name := "mr.l"
	if right {
		ptr = &n.right
		name = "mr.r"
	}
	if c := ptr.Load(); c != nil {
		return c
	}
	fresh := b.newNode(level-1, name)
	if ptr.CompareAndSwap(nil, fresh) {
		return fresh
	}
	return ptr.Load()
}

// MaxWrite raises the register to v with the given payload, as process p.
// Writes of values not exceeding the current maximum have no effect (their
// payload is discarded). At most k+1 shared steps.
func (b *Bounded[P]) MaxWrite(p int, v uint64, payload P) error {
	if b.k < 64 && v >= uint64(1)<<uint(b.k) {
		return fmt.Errorf("%w: %d >= 2^%d", ErrOutOfRange, v, b.k)
	}
	b.write(p, b.root, b.k, v, payload)
	return nil
}

func (b *Bounded[P]) write(p int, n *node[P], level int, v uint64, payload P) {
	if level == 0 {
		n.payload.Write(p, payload)
		return
	}
	half := uint64(1) << uint(level-1)
	if v >= half {
		// Write the right subtree fully, then set the switch: a reader that
		// sees the switch finds a completed write behind it.
		b.write(p, b.child(n, level, true), level-1, v-half, payload)
		n.sw.Write(p, true)
		return
	}
	// A set switch means some value >= half is present; the write is
	// obsolete and must not proceed (it could otherwise overwrite a newer
	// payload on the left).
	if n.sw.Read(p) {
		return
	}
	b.write(p, b.child(n, level, false), level-1, v, payload)
}

// MaxRead returns the current maximum and its payload, as process p. At
// most k+1 shared steps.
func (b *Bounded[P]) MaxRead(p int) (uint64, P) {
	return b.read(p, b.root, b.k)
}

func (b *Bounded[P]) read(p int, n *node[P], level int) (uint64, P) {
	if level == 0 {
		return 0, n.payload.Read(p)
	}
	half := uint64(1) << uint(level-1)
	if n.sw.Read(p) {
		v, pl := b.read(p, b.child(n, level, true), level-1)
		return half + v, pl
	}
	return b.read(p, b.child(n, level, false), level-1)
}
