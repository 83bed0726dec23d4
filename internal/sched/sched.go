// Package sched is a deterministic shared-memory simulator implementing the
// paper's asynchronous model (Section 2): n processes take atomic steps on
// shared registers, one at a time, in an order chosen by an adversary.
//
// Each simulated process runs in its own goroutine but only one process is
// ever runnable: processes block at every step (invocation event, register
// access, response event) until the scheduler grants them the step. Runs are
// therefore deterministic functions of the adversary's choices, which makes
// executions replayable and lets internal/lincheck explore prefix-closed
// transcript trees — exactly the structures strong linearizability is
// defined over.
package sched

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"slmem/internal/memory"
	"slmem/internal/trace"
)

// ErrScheduleViolation is reported when an adversary picks a process that is
// not enabled.
var ErrScheduleViolation = errors.New("sched: adversary chose a process that is not enabled")

// errAborted is the sentinel used to unwind process goroutines when a run
// stops with operations still pending.
var errAborted = errors.New("sched: run aborted")

// Program is the code of one simulated process. It receives the process
// handle used to issue operations; shared objects are closed over from the
// System setup function.
type Program func(p *Proc)

// System describes a complete simulated system. Setup is called once per
// run with a fresh environment; it must allocate all shared objects through
// the environment (which implements memory.Allocator) and return one program
// per process. Programs and setup must be deterministic.
type System struct {
	// N is the number of processes.
	N int
	// Setup builds the shared objects and returns N programs, indexed by pid.
	Setup func(env *Env) []Program
}

// Adversary chooses the next process to step.
type Adversary interface {
	// Next returns the pid to schedule, chosen from enabled (sorted
	// ascending, never empty), or -1 to stop the run. The transcript so far
	// is visible, modeling the paper's strong adversary.
	Next(enabled []int, t *trace.Transcript) int
}

// AdversaryFunc adapts a function to the Adversary interface.
type AdversaryFunc func(enabled []int, t *trace.Transcript) int

// Next implements Adversary.
func (f AdversaryFunc) Next(enabled []int, t *trace.Transcript) int { return f(enabled, t) }

// Script replays a fixed schedule, then stops. Scheduling a disabled process
// is an error (the run reports ErrScheduleViolation).
type Script struct {
	pids []int
	pos  int
}

// NewScript returns a scripted adversary over the given pid sequence.
func NewScript(pids ...int) *Script {
	cp := make([]int, len(pids))
	copy(cp, pids)
	return &Script{pids: cp}
}

// Next implements Adversary.
func (s *Script) Next([]int, *trace.Transcript) int {
	if s.pos >= len(s.pids) {
		return -1
	}
	pid := s.pids[s.pos]
	s.pos++
	return pid
}

// Seeded schedules uniformly at random among enabled processes, from a fixed
// seed: deterministic and replayable.
type Seeded struct {
	rng *rand.Rand
}

// NewSeeded returns a seeded random adversary.
func NewSeeded(seed int64) *Seeded {
	return &Seeded{rng: rand.New(rand.NewSource(seed))}
}

// Next implements Adversary.
func (s *Seeded) Next(enabled []int, _ *trace.Transcript) int {
	return enabled[s.rng.Intn(len(enabled))]
}

// RoundRobin cycles through processes fairly.
type RoundRobin struct {
	last int
}

// Next implements Adversary.
func (r *RoundRobin) Next(enabled []int, _ *trace.Transcript) int {
	for _, pid := range enabled {
		if pid > r.last {
			r.last = pid
			return pid
		}
	}
	r.last = enabled[0]
	return enabled[0]
}

// Storm starves victim processes: it schedules non-victims whenever
// possible, granting a victim a step only every Period-th decision (and
// whenever no non-victim is enabled). It models the writer-storm adversary
// used to show that lock-free reads are not wait-free (experiment E8).
type Storm struct {
	// IsVictim classifies starved processes.
	IsVictim func(pid int) bool
	// Period is how often a victim gets a step; values < 2 mean every other
	// decision.
	Period int

	step int
}

// Next implements Adversary.
func (s *Storm) Next(enabled []int, _ *trace.Transcript) int {
	period := s.Period
	if period < 2 {
		period = 2
	}
	s.step++
	if s.step%period != 0 {
		for _, pid := range enabled {
			if !s.IsVictim(pid) {
				return pid
			}
		}
	}
	for _, pid := range enabled {
		if s.IsVictim(pid) {
			return pid
		}
	}
	return enabled[0]
}

// PriorityAdversary always schedules the earliest enabled pid in its
// preference order.
func PriorityAdversary(order ...int) Adversary {
	pref := append([]int(nil), order...)
	return AdversaryFunc(func(enabled []int, _ *trace.Transcript) int {
		for _, want := range pref {
			for _, pid := range enabled {
				if pid == want {
					return pid
				}
			}
		}
		return enabled[0]
	})
}

// Chain runs each adversary in turn, moving to the next when the current one
// returns -1. The run stops when the last one does.
type Chain struct {
	advs []Adversary
	cur  int
}

// NewChain concatenates adversaries.
func NewChain(advs ...Adversary) *Chain { return &Chain{advs: advs} }

// Next implements Adversary.
func (c *Chain) Next(enabled []int, t *trace.Transcript) int {
	for c.cur < len(c.advs) {
		if pid := c.advs[c.cur].Next(enabled, t); pid != -1 {
			return pid
		}
		c.cur++
	}
	return -1
}

// Options configure a run.
type Options struct {
	// StepLimit aborts the run after this many scheduled steps; 0 means the
	// package default (DefaultStepLimit). The limit is a safety net: with
	// finite programs all schedules of the algorithms here terminate.
	StepLimit int
}

// DefaultStepLimit bounds runs whose options leave StepLimit zero.
const DefaultStepLimit = 1 << 20

// Result is the outcome of a run.
type Result struct {
	// T is the recorded transcript.
	T *trace.Transcript
	// Schedule is the sequence of pids granted steps, in order; replaying it
	// with NewScript reproduces the run exactly.
	Schedule []int
	// Enabled lists the processes that could have taken another step when
	// the run stopped (empty if every program ran to completion).
	Enabled []int
	// Steps is the number of scheduled steps taken.
	Steps int
	// Registers is the number of registers the system allocated.
	Registers int
	// Err reports schedule violations or the step limit being hit.
	Err error
}

// Completed reports whether all programs ran to completion.
func (r *Result) Completed() bool { return len(r.Enabled) == 0 && r.Err == nil }

// Env is the per-run simulation environment. It implements memory.Allocator;
// all shared objects of a simulated system must be allocated through it.
type Env struct {
	n        int
	t        *trace.Transcript
	procs    []*Proc
	regCount int
	regNames map[string]int
	nextOp   int

	// addrs labels the heap addresses transcripts have shown, in first-seen
	// order; kept holds the values they were shown in, so that no address is
	// freed and reused for another object while the run lasts.
	addrs map[string]string
	kept  []any

	reqCh  chan int
	doneCh chan int
}

var _ memory.Allocator = (*Env)(nil)

func newEnv(n int) *Env {
	env := &Env{
		n:        n,
		t:        &trace.Transcript{},
		regNames: make(map[string]int),
		addrs:    make(map[string]string),
		reqCh:    make(chan int),
		doneCh:   make(chan int),
	}
	env.procs = make([]*Proc, n)
	for pid := range env.procs {
		env.procs[pid] = &Proc{env: env, pid: pid, grant: make(chan bool)}
	}
	return env
}

// N returns the number of processes.
func (e *Env) N() int { return e.n }

// NewRegister implements memory.Allocator. Names are made unique by
// suffixing a counter when reused.
func (e *Env) NewRegister(name string, init any) memory.Register {
	if c := e.regNames[name]; c > 0 {
		e.regNames[name] = c + 1
		name = fmt.Sprintf("%s#%d", name, c)
	} else {
		e.regNames[name] = 1
	}
	e.regCount++
	return &simRegister{env: e, name: name, val: init}
}

// Registers implements memory.Allocator.
func (e *Env) Registers() int { return e.regCount }

// addrPattern matches an address as %v formats a pointer, map, channel or
// function nested in a value; %v never formats an integer in hexadecimal.
var addrPattern = regexp.MustCompile(`0x[0-9a-f]+`)

// format is a register value as a transcript shows it: %v, with every heap
// address replaced by a label — &1, &2, … in the order the run first showed
// them. An address differs from run to run, the order a run shows its objects
// in does not, so two runs of one schedule record one transcript and a
// prefix's transcript is a prefix of its continuations'. Two reads of one
// object still show one label.
func (e *Env) format(v any) string {
	s := fmt.Sprintf("%v", v)
	if !strings.Contains(s, "0x") {
		return s
	}
	e.kept = append(e.kept, v)
	return addrPattern.ReplaceAllStringFunc(s, func(addr string) string {
		label, ok := e.addrs[addr]
		if !ok {
			label = "&" + strconv.Itoa(len(e.addrs)+1)
			e.addrs[addr] = label
		}
		return label
	})
}

// Proc is the handle a simulated process uses to perform operations and
// steps. Exactly one goroutine uses a Proc.
type Proc struct {
	env   *Env
	pid   int
	grant chan bool
	curOp int
}

// PID returns the process id.
func (p *Proc) PID() int { return p.pid }

// yield blocks until the scheduler grants this process its next step.
func (p *Proc) yield() {
	p.env.reqCh <- p.pid
	if !<-p.grant {
		panic(errAborted)
	}
}

func (p *Proc) record(e trace.Event) {
	p.env.t.Append(e)
}

// Do performs one high-level operation: an invocation event (one scheduled
// step), the operation body, and a response event (one scheduled step). fn
// returns the canonical response encoding. Do returns fn's result.
func (p *Proc) Do(desc string, fn func() string) string {
	p.yield()
	op := p.env.nextOp
	p.env.nextOp++
	p.curOp = op
	p.record(trace.Event{Kind: trace.KindInvoke, PID: p.pid, OpID: op, Desc: desc})
	res := fn()
	p.yield()
	p.record(trace.Event{Kind: trace.KindReturn, PID: p.pid, OpID: op, Res: res})
	return res
}

// Annotate records an implementation annotation (not a scheduled step).
func (p *Proc) Annotate(text string) {
	p.record(trace.Event{Kind: trace.KindAnnotate, PID: p.pid, OpID: p.curOp, Desc: text})
}

type simRegister struct {
	env  *Env
	name string
	val  any
}

var _ memory.Register = (*simRegister)(nil)

func (r *simRegister) Read(pid int) any {
	p := r.env.procs[pid]
	p.yield()
	v := r.val
	p.record(trace.Event{
		Kind: trace.KindRead, PID: pid, OpID: p.curOp,
		Reg: r.name, Val: r.env.format(v),
	})
	return v
}

func (r *simRegister) Write(pid int, v any) {
	p := r.env.procs[pid]
	p.yield()
	r.val = v
	p.record(trace.Event{
		Kind: trace.KindWrite, PID: pid, OpID: p.curOp,
		Reg: r.name, Val: r.env.format(v),
	})
}

func (r *simRegister) Name() string { return r.name }

// Run executes the system under the adversary and returns the outcome.
func Run(sys System, adv Adversary, opts Options) *Result {
	limit := opts.StepLimit
	if limit <= 0 {
		limit = DefaultStepLimit
	}

	env := newEnv(sys.N)
	programs := sys.Setup(env)
	if len(programs) != sys.N {
		return &Result{T: env.t, Err: fmt.Errorf("sched: setup returned %d programs, want %d", len(programs), sys.N)}
	}

	for pid, prog := range programs {
		go runProgram(env, env.procs[pid], prog)
	}

	res := &Result{T: env.t, Registers: env.regCount}
	pending := make([]bool, sys.N)
	live := sys.N
	outstanding := sys.N

	stop := func() {
		// Abort every blocked process and wait for all goroutines to exit.
		for pid, isPending := range pending {
			if isPending {
				pending[pid] = false
				env.procs[pid].grant <- false
				outstanding++
			}
		}
		for live > 0 {
			select {
			case pid := <-env.reqCh:
				// A process that was running when the run stopped and is now
				// requesting its next step; abort it too.
				env.procs[pid].grant <- false
			case <-env.doneCh:
				live--
			}
		}
	}

	for {
		for outstanding > 0 {
			select {
			case pid := <-env.reqCh:
				pending[pid] = true
				outstanding--
			case <-env.doneCh:
				live--
				outstanding--
			}
		}
		if live == 0 {
			res.Registers = env.regCount
			return res
		}

		enabled := make([]int, 0, live)
		for pid, isPending := range pending {
			if isPending {
				enabled = append(enabled, pid)
			}
		}
		sort.Ints(enabled)

		if res.Steps >= limit {
			res.Enabled = enabled
			res.Err = fmt.Errorf("sched: step limit %d reached", limit)
			stop()
			res.Registers = env.regCount
			return res
		}

		pid := adv.Next(enabled, env.t)
		if pid == -1 {
			res.Enabled = enabled
			stop()
			res.Registers = env.regCount
			return res
		}
		if pid < 0 || pid >= sys.N || !pending[pid] {
			res.Enabled = enabled
			res.Err = fmt.Errorf("%w: pid %d, enabled %v", ErrScheduleViolation, pid, enabled)
			stop()
			res.Registers = env.regCount
			return res
		}

		pending[pid] = false
		outstanding = 1
		env.procs[pid].grant <- true
		res.Steps++
		res.Schedule = append(res.Schedule, pid)
	}
}

func runProgram(env *Env, p *Proc, prog Program) {
	defer func() {
		if r := recover(); r != nil && r != errAborted { //nolint:errorlint // sentinel identity
			panic(r)
		}
		env.doneCh <- p.pid
	}()
	prog(p)
}
