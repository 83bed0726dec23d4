package main

import (
	"fmt"
	"sort"
)

// results is what one call reported back that the verify phase needs. The
// entry point under test fills it; the client's tally consumes it after the
// clock has stopped.
type results struct {
	// removed holds the reply of each bag remove of the call, in call order.
	removed []removal
	// views holds, for each snapshot scan of the call in call order, whether
	// the view had one component per pid and only known values in them.
	views []bool
}

// removal is the reply of one bag remove.
type removal struct {
	it    item
	empty bool // the bag reported itself empty
	bad   bool // the reply is no item a client inserted
}

func (r *results) reset() {
	r.removed = r.removed[:0]
	r.views = r.views[:0]
}

// addRemoved records a bag remove's reply: the item, or that the bag reported
// itself empty.
func addRemoved[T ~string | ~[]byte](r *results, v T, empty bool) {
	if empty {
		r.removed = append(r.removed, removal{empty: true})
		return
	}
	it, ok := parseItem(v)
	r.removed = append(r.removed, removal{it: it, bad: !ok})
}

// addView records a snapshot scan's reply.
func addView[T ~string | ~[]byte](r *results, view []T, procs int) {
	ok := len(view) == procs
	for _, v := range view {
		if !validSnapValue(v) {
			ok = false
		}
	}
	r.views = append(r.views, ok)
}

// objRemoval is a bag remove a client saw acknowledged.
type objRemoval struct {
	bag uint8
	it  item
}

// tally is one client's account of what it was told happened. The client's
// goroutine owns it during the run; verify reads all tallies afterwards.
type tally struct {
	// ops counts operations issued against each object, so that a failed
	// invariant can mark all of that object's operations failed.
	ops [numKinds][]uint64

	incs    []uint64 // acknowledged counter incs, per counter
	maxW    []uint64 // largest acknowledged maxreg write, per register
	objIncs []uint64 // acknowledged inc() invocations, per object
	inserts []uint64 // acknowledged bag inserts, per bag
	// bagOf[seq] is 1 + the bag that received this client's insert number
	// seq, 0 when that insert was never acknowledged.
	bagOf    []uint8
	removals []objRemoval
	// bad counts replies that are wrong on their face, per object: a remove
	// on a bag that cannot be empty finding it empty, a remove returning no
	// item a client inserted, a scan with a foreign value or a wrong length.
	bad [numKinds][]uint64

	attempted uint64 // operations issued
	acked     uint64 // operations whose call returned without error
	errOps    uint64 // operations whose call returned an error
	firstErr  error
}

func newTally(w *workload) *tally {
	t := &tally{}
	for k, n := range w.names {
		t.ops[k] = make([]uint64, n)
		t.bad[k] = make([]uint64, n)
	}
	t.incs = make([]uint64, w.names[kindCounter])
	t.maxW = make([]uint64, w.names[kindMaxreg])
	t.objIncs = make([]uint64, w.names[kindObject])
	t.inserts = make([]uint64, w.names[kindBag])
	return t
}

// record books one finished call.
func (t *tally) record(ops []op, res *results, err error) {
	t.attempted += uint64(len(ops))
	for _, o := range ops {
		t.ops[opInfo[o.code].kind][o.key]++
	}
	if err != nil {
		t.errOps += uint64(len(ops))
		if t.firstErr == nil {
			t.firstErr = err
		}
		return
	}
	t.acked += uint64(len(ops))
	removed, views := res.removed, res.views
	for _, o := range ops {
		switch o.code {
		case opCounterInc:
			t.incs[o.key]++
		case opMaxWrite:
			if v := uint64(o.arg); v > t.maxW[o.key] {
				t.maxW[o.key] = v
			}
		case opObjInc:
			t.objIncs[o.key]++
		case opBagInsert:
			t.inserts[o.key]++
			for int(o.arg) >= len(t.bagOf) {
				t.bagOf = append(t.bagOf, 0)
			}
			t.bagOf[o.arg] = o.key + 1
		case opBagRemove:
			if len(removed) == 0 {
				t.bad[kindBag][o.key]++
				continue
			}
			r := removed[0]
			removed = removed[1:]
			if r.empty || r.bad {
				t.bad[kindBag][o.key]++
				continue
			}
			t.removals = append(t.removals, objRemoval{bag: o.key, it: r.it})
		case opSnapScan:
			if len(views) == 0 || !views[0] {
				t.bad[kindSnapshot][o.key]++
			}
			if len(views) > 0 {
				views = views[1:]
			}
		}
	}
}

// finalState is what the verify phase read back from the system after the
// clients stopped: one read per counter, register and object, one scan per
// snapshot, and every bag drained.
type finalState struct {
	procs     int
	counters  []uint64
	maxregs   []uint64
	objects   []uint64
	snapshots [][]string
	bags      [][]string
}

// violation names an object whose state contradicts what the clients were
// told.
type violation struct {
	kind objKind
	key  int
	msg  string
}

func (v violation) String() string {
	return fmt.Sprintf("%s/%s: %s", kindNames[v.kind], objectName(v.kind, v.key), v.msg)
}

// verify checks every object's invariant against the clients' tallies:
// a counter reads the acknowledged incs; a max-register reads the largest
// acknowledged write; every snapshot component, scanned during the run or
// now, is the initial value or a value a client wrote, one per pid; bag
// removes are a duplicate-free subset of the inserts, and draining a bag
// returns exactly inserts minus removes.
func verify(ts []*tally, fs finalState) []violation {
	var vs []violation
	fail := func(k objKind, key int, format string, args ...any) {
		vs = append(vs, violation{k, key, fmt.Sprintf(format, args...)})
	}

	for key, got := range fs.counters {
		var want uint64
		for _, t := range ts {
			want += t.incs[key]
		}
		if got != want {
			fail(kindCounter, key, "read %d, clients were acknowledged %d incs", got, want)
		}
	}
	for key, got := range fs.maxregs {
		var want uint64
		for _, t := range ts {
			want = max(want, t.maxW[key])
		}
		if got != want {
			fail(kindMaxreg, key, "read %d, largest acknowledged write is %d", got, want)
		}
	}
	for key, got := range fs.objects {
		var want uint64
		for _, t := range ts {
			want += t.objIncs[key]
		}
		if got != want {
			fail(kindObject, key, "read() = %d, clients were acknowledged %d inc()", got, want)
		}
	}
	for key, view := range fs.snapshots {
		if len(view) != fs.procs {
			fail(kindSnapshot, key, "final view has %d components, want %d", len(view), fs.procs)
		}
		for _, v := range view {
			if !validSnapValue(v) {
				fail(kindSnapshot, key, "final view holds %q, which no client wrote", v)
				break
			}
		}
	}
	for _, t := range ts {
		for k := range t.bad {
			for key, n := range t.bad[k] {
				if n > 0 {
					fail(objKind(k), key, "%d replies during the run were wrong on their face", n)
				}
			}
		}
	}
	vs = append(vs, verifyBags(ts, fs.bags)...)

	sort.SliceStable(vs, func(i, j int) bool {
		if vs[i].kind != vs[j].kind {
			return vs[i].kind < vs[j].kind
		}
		return vs[i].key < vs[j].key
	})
	return vs
}

// verifyBags replays every acknowledged remove and every drained item against
// the acknowledged inserts. seen marks the items already handed out, one
// flag per insert of each client.
func verifyBags(ts []*tally, drained [][]string) []violation {
	var vs []violation
	failed := make(map[int]bool)
	fail := func(bag int, format string, args ...any) {
		if !failed[bag] { // one line per bag is enough
			failed[bag] = true
			vs = append(vs, violation{kindBag, bag, fmt.Sprintf(format, args...)})
		}
	}
	seen := make([][]bool, len(ts))
	for c, t := range ts {
		seen[c] = make([]bool, len(t.bagOf))
	}
	// take hands item it out of bag, reporting why it cannot be.
	take := func(bag int, it item) string {
		c := int(it.client)
		if c >= len(ts) || int(it.seq) >= len(ts[c].bagOf) || ts[c].bagOf[it.seq] == 0 {
			return "was never inserted"
		}
		if home := int(ts[c].bagOf[it.seq]) - 1; home != bag {
			return fmt.Sprintf("was inserted into bag %d", home)
		}
		if seen[c][it.seq] {
			return "was removed twice"
		}
		seen[c][it.seq] = true
		return ""
	}

	removes := make([]uint64, len(drained))
	for _, t := range ts {
		for _, r := range t.removals {
			if int(r.bag) >= len(drained) {
				continue
			}
			removes[r.bag]++
			if why := take(int(r.bag), r.it); why != "" {
				fail(int(r.bag), "removed item %s %s", appendItem(nil, r.it), why)
			}
		}
	}
	for bag, items := range drained {
		var inserts uint64
		for _, t := range ts {
			inserts += t.inserts[bag]
		}
		if uint64(len(items))+removes[bag] != inserts {
			fail(bag, "drained %d items after %d inserts and %d removes", len(items), inserts, removes[bag])
		}
		for _, s := range items {
			it, ok := parseItem(s)
			if !ok {
				fail(bag, "drained %q, which no client inserted", s)
				continue
			}
			if why := take(bag, it); why != "" {
				fail(bag, "drained item %s %s", s, why)
			}
		}
	}
	return vs
}

// failedOps is the number of operations issued against objects that have a
// violation: a failed invariant fails every operation on its object.
func failedOps(ts []*tally, vs []violation) uint64 {
	type obj struct {
		kind objKind
		key  int
	}
	done := make(map[obj]bool)
	var n uint64
	for _, v := range vs {
		o := obj{v.kind, v.key}
		if done[o] {
			continue
		}
		done[o] = true
		for _, t := range ts {
			n += t.ops[v.kind][v.key]
		}
	}
	return n
}

// objectName is the registry name of object key of kind k.
func objectName(k objKind, key int) string {
	return fmt.Sprintf("%c%02d", kindNames[k][0], key)
}
