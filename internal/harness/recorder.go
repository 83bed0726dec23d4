package harness

import (
	"fmt"
	"sync"
	"sync/atomic"

	"slmem/internal/lincheck"
	"slmem/internal/spec"
	"slmem/internal/trace"
)

// Recorder captures operation-level histories from NATIVE concurrent runs
// (real goroutines) so they can be checked for linearizability.
//
// Invocation and response times come from one global atomic clock: if
// operation a's response tick precedes operation b's invocation tick, then a
// happened before b in real time. The happens-before order derived this way
// is sound (it only relates operations that truly did not overlap), so a
// history that fails the checker is a genuine linearizability violation.
//
// The simulator cannot observe real scheduling and real scheduling cannot be
// replayed, so native validation is probabilistic: record many small bursts
// and check each (lincheck.CheckHistory takes at most 62 operations, and a
// longer burst fails with its error).
type Recorder struct {
	clock atomic.Int64
	ids   atomic.Int64

	mu  sync.Mutex
	ops []recordedOp
}

type recordedOp struct {
	id   int
	pid  int
	desc string
	res  string
	inv  int64
	ret  int64
}

// NewRecorder returns an empty recorder.
func NewRecorder() *Recorder { return &Recorder{} }

// Invoke starts recording an operation by pid and returns a token to
// complete it with. Safe for concurrent use.
func (r *Recorder) Invoke(pid int, desc string) OpToken {
	return OpToken{
		r:    r,
		id:   int(r.ids.Add(1)),
		pid:  pid,
		desc: desc,
		inv:  r.clock.Add(1),
	}
}

// OpToken is a pending recorded operation.
type OpToken struct {
	r    *Recorder
	id   int
	pid  int
	desc string
	inv  int64
}

// Return completes the operation with the canonical response encoding.
func (t OpToken) Return(res string) {
	t.ReturnRefined(t.desc, res)
}

// ReturnRefined completes the operation, rewriting its description to
// desc. This is how nondeterministic-by-response types are checked against
// deterministic specifications: a bag's remove() is recorded as the
// refined "remove(x)" naming the item it actually took (or "remove()" when
// it reported empty), and the history is checked against the refined spec
// (spec.Bag). The invocation tick was taken at Invoke, so the operation's
// real-time interval is unchanged — only the checker-facing description is
// refined post hoc.
func (t OpToken) ReturnRefined(desc, res string) {
	ret := t.r.clock.Add(1)
	t.r.mu.Lock()
	defer t.r.mu.Unlock()
	t.r.ops = append(t.r.ops, recordedOp{
		id: t.id, pid: t.pid, desc: desc, res: res, inv: t.inv, ret: ret,
	})
}

// Do records fn as one operation.
func (r *Recorder) Do(pid int, desc string, fn func() string) string {
	tok := r.Invoke(pid, desc)
	res := fn()
	tok.Return(res)
	return res
}

// Len returns the number of completed operations recorded.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.ops)
}

// History converts the recording into a checkable history. Tick values
// become event indices; only completed operations are included (operations
// pending at the end of a burst are unobservable natively and are dropped,
// which is sound: dropping a pending op from a history preserves
// linearizability in both directions for the remaining ops).
func (r *Recorder) History() *trace.History {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := &trace.History{Ops: make([]trace.Operation, 0, len(r.ops))}
	for _, op := range r.ops {
		h.Ops = append(h.Ops, trace.Operation{
			OpID: op.id,
			PID:  op.pid,
			Desc: op.desc,
			Res:  op.res,
			Inv:  int(op.inv),
			Ret:  int(op.ret),
		})
	}
	return h
}

// Reset clears recorded operations (the clock keeps advancing).
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.ops = r.ops[:0]
}

// CheckNativeBursts drives a native concurrent workload in independent
// bursts and checks each burst's recorded history for linearizability.
//
// For each burst, runner must construct a FRESH object, start its
// goroutines, perform operations through the recorder, and return once all
// goroutines have finished. Bursts are independent because the final state
// of a concurrent history is not always unique — chaining bursts on one
// object could produce false alarms.
func CheckNativeBursts(sp spec.Spec, bursts int, runner func(burst int, rec *Recorder)) error {
	rec := NewRecorder()
	for b := 0; b < bursts; b++ {
		rec.Reset()
		runner(b, rec)
		h := rec.History()
		res, err := lincheck.CheckHistory(h, sp)
		if err != nil {
			return fmt.Errorf("harness: burst %d: %w", b, err)
		}
		if !res.Ok {
			return fmt.Errorf("harness: burst %d not linearizable:\n%s", b, h)
		}
	}
	return nil
}
