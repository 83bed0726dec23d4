package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"os"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"slmem/internal/server"
)

func TestHistogramQuantilesMatchExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h histogram
	var exact []float64
	for i := 0; i < 200000; i++ {
		// Log-normal around 30 us with a long tail, like loopback latency.
		ns := uint64(math.Exp(rng.NormFloat64()*1.2 + math.Log(30000)))
		h.add(ns)
		exact = append(exact, float64(ns))
	}
	sort.Float64s(exact)
	for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999} {
		want := exact[int(q*float64(len(exact)))]
		got := h.quantile(q)
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("q%.3f = %.0f, exact sort gives %.0f", q, got, want)
		}
	}
	if h.max != uint64(exact[len(exact)-1]) {
		t.Errorf("max = %d, want %.0f", h.max, exact[len(exact)-1])
	}
}

func TestHistogramBuckets(t *testing.T) {
	for _, v := range []uint64{0, 1, 63, 64, 127, 128, 129, 255, 256, 1000, 33000, 1 << 20, 1<<30 + 12345, 1 << 44} {
		lo, width := bucketBounds(bucketOf(v))
		if v < lo || v >= lo+width {
			t.Errorf("value %d landed in bucket [%d, %d)", v, lo, lo+width)
		}
		if float64(width) > 0.03*float64(lo) && width > 1 {
			t.Errorf("bucket of %d is %.1f%% wide, over 3%%", v, 100*float64(width)/float64(lo))
		}
	}
	if i := bucketOf(math.MaxUint64); i != histBuckets-1 {
		t.Errorf("huge value landed in bucket %d, want the last", i)
	}
}

func TestHistogramTailNeedsTenSamplesBeyond(t *testing.T) {
	var h histogram
	for i := 0; i < 999; i++ {
		h.add(uint64(1000 + i))
	}
	if _, ok := h.tail(0.99); ok {
		t.Error("p99 of 999 samples reported with fewer than 10 samples beyond it")
	}
	h.add(5000)
	if _, ok := h.tail(0.99); !ok {
		t.Error("p99 of 1000 samples not reported")
	}
}

func TestOpsPerSecIsMedianOfSliceRates(t *testing.T) {
	a := &client{slices: []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 1000}}
	b := &client{slices: []uint64{10, 20, 30, 40, 50, 60, 70, 80, 90, 0}}
	m := measurement{rates: sliceRates([]*client{a, b}, 2e9), clean: cleanSlices(nil, 10)} // 2 s slices
	if got := m.opsPerSec(); got != 55 {                                                   // rates 10..90 and 500: the middle pair is 50 and 60
		t.Errorf("ops_s = %v, want 55", got)
	}
	if got, want := spread(m.rates), (500.0-10)/55; math.Abs(got-want) > 1e-9 {
		t.Errorf("slice spread = %v, want %v", got, want)
	}
}

// playedRun applies a short two-client history to a model of the system and
// returns the clients' tallies and the final state a correct system shows.
func playedRun(t *testing.T) ([]*tally, finalState) {
	t.Helper()
	w := findWorkload("http-batch64")
	ts := []*tally{newTally(w), newTally(w)}
	fs := finalState{
		procs:     w.procs,
		counters:  make([]uint64, w.names[kindCounter]),
		maxregs:   make([]uint64, w.names[kindMaxreg]),
		snapshots: make([][]string, w.names[kindSnapshot]),
		bags:      make([][]string, w.names[kindBag]),
	}
	for key := range fs.snapshots {
		fs.snapshots[key] = make([]string, w.procs)
	}
	var res results
	for round := 0; round < 20; round++ {
		for c, tl := range ts {
			ops := newGeneratorAt(w, 7, c, round).next(nil)
			res.reset()
			for _, o := range ops {
				switch o.code {
				case opCounterInc:
					fs.counters[o.key]++
				case opMaxWrite:
					fs.maxregs[o.key] = max(fs.maxregs[o.key], uint64(o.arg))
				case opSnapUpdate:
					fs.snapshots[o.key][c] = o.value()
				case opSnapScan:
					addView(&res, fs.snapshots[o.key], w.procs)
				case opBagInsert:
					fs.bags[o.key] = append(fs.bags[o.key], o.value())
				case opBagRemove:
					items := fs.bags[o.key]
					addRemoved(&res, items[0], false)
					fs.bags[o.key] = items[1:]
				}
			}
			tl.record(ops, &res, nil)
		}
	}
	// Leave something in a bag for the drain to find.
	extra := op{code: opBagInsert, client: 0, key: 3, arg: 1 << 20}
	ts[0].record([]op{extra}, &res, nil)
	fs.bags[3] = append(fs.bags[3], extra.value())
	return ts, fs
}

// newGeneratorAt returns client c's generator advanced past n calls.
func newGeneratorAt(w *workload, seed int64, c, n int) *generator {
	g := newGenerator(w, seed, c)
	for i := 0; i < n; i++ {
		g.next(nil)
	}
	return g
}

func TestVerifyAcceptsCorrectRun(t *testing.T) {
	ts, fs := playedRun(t)
	if vs := verify(ts, fs); len(vs) != 0 {
		t.Fatalf("correct run has violations: %v", vs)
	}
}

func TestVerifyFlagsInjectedFaults(t *testing.T) {
	cases := []struct {
		name   string
		kind   objKind
		inject func(ts []*tally, fs *finalState) (key int)
	}{
		{"lost increment", kindCounter, func(ts []*tally, fs *finalState) int {
			for key, v := range fs.counters {
				if v > 0 {
					fs.counters[key]--
					return key
				}
			}
			return -1
		}},
		{"duplicated bag removal", kindBag, func(ts []*tally, fs *finalState) int {
			r := ts[0].removals[0]
			ts[1].removals = append(ts[1].removals, r) // the other client got the same item
			ts[1].inserts[r.bag]++                     // keep the bag's count balanced: only the duplicate is wrong
			return int(r.bag)
		}},
		{"foreign snapshot value", kindSnapshot, func(ts []*tally, fs *finalState) int {
			fs.snapshots[5][2] = "intruder"
			return 5
		}},
		{"foreign value in a scan during the run", kindSnapshot, func(ts []*tally, fs *finalState) int {
			var res results
			addView(&res, []string{"w0-001", "x9-999"}, 2)
			ts[0].record([]op{{code: opSnapScan, key: 9}}, &res, nil)
			return 9
		}},
		{"stale max-register", kindMaxreg, func(ts []*tally, fs *finalState) int {
			for key, v := range fs.maxregs {
				if v > 0 {
					fs.maxregs[key] = v - 1
					return key
				}
			}
			return -1
		}},
		{"item lost from a bag", kindBag, func(ts []*tally, fs *finalState) int {
			fs.bags[3] = nil
			return 3
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ts, fs := playedRun(t)
			key := tc.inject(ts, &fs)
			vs := verify(ts, fs)
			if len(vs) != 1 || vs[0].kind != tc.kind || vs[0].key != key {
				t.Fatalf("violations = %v, want exactly one on %s %d", vs, kindNames[tc.kind], key)
			}
			var want uint64
			for _, tl := range ts {
				want += tl.ops[tc.kind][key]
			}
			if got := failedOps(ts, vs); got != want || got == 0 {
				t.Errorf("failed operations = %d, want all %d issued on the object", got, want)
			}
		})
	}
}

func TestClassify(t *testing.T) {
	ops := bounded{Name: "ops_s", Better: "higher", Bound: 0.10}
	lat := bounded{Name: "p50_us", Better: "lower", Bound: 0.10}
	cases := []struct {
		name string
		a, b []float64
		mb   bounded
		want string
	}{
		{"same", []float64{100}, []float64{100}, ops, verdictOK},
		{"throughput down within the bound", []float64{100, 102}, []float64{93, 95}, ops, verdictOK},
		{"throughput down past the bound", []float64{100, 102}, []float64{85, 86}, ops, verdictWorse},
		{"throughput up", []float64{100}, []float64{150}, ops, verdictOK},
		{"latency up past the bound", []float64{30}, []float64{34}, lat, verdictWorse},
		{"latency down", []float64{30}, []float64{20}, lat, verdictOK},
		{"runs of one file disagree", []float64{100, 120}, []float64{100, 101}, ops, verdictUnresolved},
		{"file without runs", nil, []float64{100}, ops, verdictUnresolved},
		{"failures appear", []float64{0}, []float64{0.001}, failShareBound, verdictWorse},
		{"no failures", []float64{0, 0}, []float64{0, 0}, failShareBound, verdictOK},
	}
	for _, tc := range cases {
		if _, _, _, got := classify(tc.a, tc.b, tc.mb); got != tc.want {
			t.Errorf("%s: verdict %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	t.Chdir(t.TempDir())
	bench := `{"end_to_end":[{"name":"ops_s","unit":"ops/s","better":"higher","bound":0.1}]}`
	if err := os.WriteFile("BENCHMARK.json", []byte(bench), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(path string, opsPerSec float64) {
		for _, w := range workloads {
			rec := record{Workload: w.name, Metrics: toValues([]metric{{"ops_s", "ops/s", opsPerSec}, {"fail_share", "share", 0}})}
			if err := appendRecord(path, rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	write("a.json", 1000)
	write("b.json", 990)
	write("c.json", 700)
	var out bytes.Buffer
	if code := compareFiles("a.json", "b.json", &out); code != exitOK {
		t.Errorf("a against b: exit %d, want %d\n%s", code, exitOK, out.String())
	}
	out.Reset()
	if code := compareFiles("a.json", "c.json", &out); code != exitWrong || !strings.Contains(out.String(), verdictWorse) {
		t.Errorf("a against c: exit %d, want %d and a worse row\n%s", code, exitWrong, out.String())
	}
}

// stream is the byte form of a client's first n calls.
func stream(w *workload, seed int64, client, n int) []byte {
	g := newGenerator(w, seed, client)
	var buf bytes.Buffer
	var ops []op
	for i := 0; i < n; i++ {
		ops = g.next(ops[:0])
		for _, o := range ops {
			buf.WriteByte(byte(o.code))
			buf.WriteByte(o.client)
			buf.WriteByte(o.key)
			buf.WriteString(o.value())
			buf.WriteByte(0)
		}
	}
	return buf.Bytes()
}

func TestSameSeedSameStream(t *testing.T) {
	for _, w := range workloads {
		a, b := stream(w, 42, 1, 500), stream(w, 42, 1, 500)
		if !bytes.Equal(a, b) {
			t.Errorf("%s: the same seed gave two different streams", w.name)
		}
		if bytes.Equal(a, stream(w, 43, 1, 500)) {
			t.Errorf("%s: seeds 42 and 43 gave the same stream", w.name)
		}
		if bytes.Equal(a, stream(w, 42, 0, 500)) {
			t.Errorf("%s: both clients got the same stream", w.name)
		}
	}
}

func TestDecodeReplyAgreesWithEncodingJSON(t *testing.T) {
	view := []string{"", "w1-007", "", "w0-255"}
	reply := server.BatchResponse{OK: true, Results: []server.Response{
		{OK: true},
		{OK: true, Value: "17"},
		{OK: true, View: view},
		{OK: true, Value: "b12"},
		{OK: true, Value: "_"},
	}, Stats: server.BatchStats{Ops: 5, Leases: 2, ElapsedUS: 77}}
	for _, indent := range []bool{false, true} {
		body, err := json.Marshal(reply)
		if indent {
			body, err = json.MarshalIndent(reply, "", "  ")
		}
		if err != nil {
			t.Fatal(err)
		}
		ops := []op{{code: opCounterInc}, {code: opCounterRead}, {code: opSnapScan}, {code: opBagRemove}, {code: opBagRemove}}
		var res results
		if err := decodeReply(http.StatusOK, body, ops, &res, len(view), true); err != nil {
			t.Fatalf("decode %s: %v", body, err)
		}
		if len(res.views) != 1 || !res.views[0] {
			t.Errorf("views = %v, want one valid view", res.views)
		}
		want := []removal{{it: item{client: 1, seq: 12}}, {empty: true}}
		if len(res.removed) != 2 || res.removed[0] != want[0] || res.removed[1] != want[1] {
			t.Errorf("removed = %+v, want %+v", res.removed, want)
		}
		if err := decodeReply(http.StatusOK, body, ops[:4], &res, len(view), true); err == nil {
			t.Error("a reply with more results than operations was accepted")
		}
	}

	refused, _ := json.Marshal(server.BatchResponse{Results: []server.Response{{OK: true}, {Error: "no \"such\" op"}}})
	var res results
	err := decodeReply(http.StatusOK, refused, []op{{code: opCounterInc}, {code: opCounterInc}}, &res, 4, true)
	if err == nil || !strings.Contains(err.Error(), "refused") {
		t.Errorf("refused entry: err = %v", err)
	}
	single, _ := json.Marshal(server.Response{OK: true, Value: "3"})
	if err := decodeReply(http.StatusOK, single, []op{{code: opCounterRead}}, &res, 4, false); err != nil {
		t.Errorf("single reply: %v", err)
	}
	if err := decodeReply(http.StatusServiceUnavailable, single, []op{{code: opCounterRead}}, &res, 4, false); err == nil {
		t.Error("status 503 was accepted")
	}
	if err := decodeReply(http.StatusOK, []byte(`{"ok":true,"results":[{"ok":tru`), []op{{}}, &res, 4, true); err == nil {
		t.Error("a truncated reply was accepted")
	}
}

// TestEveryRungServesEveryWorkload drives each entry point of each workload's
// ladder with both clients at once and runs the verify phase on the result:
// the rungs must all be the same system seen from different heights.
func TestEveryRungServesEveryWorkload(t *testing.T) {
	const calls = 40
	for _, w := range workloads {
		for _, rung := range w.ladder() {
			t.Run(w.name+"/"+rung, func(t *testing.T) {
				var b *bare
				var e *env
				targets := make([]target, clients)
				switch rung {
				case rungCore:
					b = newBare(w)
					for c := range targets {
						targets[c] = func(ops []op, res *results) error {
							for _, o := range ops {
								if err := b.apply(c, o, res); err != nil {
									return err
								}
							}
							return nil
						}
					}
				case rungRuntime:
					b = newBare(w)
					for c := range targets {
						targets[c] = b.runtimeTarget()
					}
				default:
					var err error
					if e, err = newEnv(w); err != nil {
						t.Fatal(err)
					}
					defer e.close()
					for c := range targets {
						targets[c] = e.target(rung)
					}
				}

				cs := newClients(w, 5)
				var wg sync.WaitGroup
				for c, cl := range cs {
					wg.Add(1)
					go func() {
						defer wg.Done()
						for i := 0; i < calls; i++ {
							cl.ops = cl.gen.next(cl.ops[:0])
							cl.res.reset()
							cl.tally.record(cl.ops, &cl.res, targets[c](cl.ops, &cl.res))
						}
					}()
				}
				wg.Wait()
				ts := []*tally{cs[0].tally, cs[1].tally}
				for _, tl := range ts {
					if tl.firstErr != nil {
						t.Fatalf("call failed: %v", tl.firstErr)
					}
				}
				if e == nil {
					return // bare objects have no registry to read back through
				}
				fs, err := e.readFinal(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				if vs := verify(ts, fs); len(vs) != 0 {
					t.Errorf("violations: %v", vs)
				}
			})
		}
	}
}

// TestBenchmarkJSONNamesWhatTheProgramPrints keeps BENCHMARK.json, which the
// driver reads, in step with the metrics and workloads the program has.
func TestBenchmarkJSONNamesWhatTheProgramPrints(t *testing.T) {
	data, err := os.ReadFile("../../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json two directories up:", err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []bounded `json:"end_to_end"`
		PerLayer  []bounded `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	var got, want []string
	for _, w := range doc.Workloads {
		got = append(got, w.Name)
	}
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Errorf("workloads: BENCHMARK.json has %v, the program %v", got, want)
	}

	w := workloads[0]
	m := &measurement{w: w, rates: make([]float64, slices)}
	check := func(what string, declared []bounded, printed []metric) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the program prints %d", what, len(declared), len(printed))
			return
		}
		for i, d := range declared {
			if d.Name != printed[i].name || d.Unit != printed[i].unit {
				t.Errorf("%s metric %d: BENCHMARK.json has %s in %s, the program %s in %s",
					what, i, d.Name, d.Unit, printed[i].name, printed[i].unit)
			}
		}
	}
	check("end-to-end", doc.EndToEnd, m.endToEnd())
	check("per-layer", doc.PerLayer, layerMetrics(w, m, &ladderResult{rung: map[string]cost{}}, 0, 0, 0, 0))
}

func TestCleanSlices(t *testing.T) {
	if got := cleanSlices(nil, 4); len(got) != 4 {
		t.Errorf("unknown steal: measured from %v, want all 4 slices", got)
	}
	stolen := []float64{0.40, 0.00, 0.01, 0.35, 0.02, 0.00, 0.30, 0.03, 0.00, 0.38}
	if got, want := cleanSlices(stolen, len(stolen)), []int{1, 2, 4, 5, 7, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("measured from %v, want the undisturbed slices %v", got, want)
	}
	// A window stolen from throughout still yields minClean slices: the
	// least disturbed ones.
	stolen = []float64{0.40, 0.20, 0.31, 0.35, 0.22, 0.50, 0.30, 0.23, 0.21, 0.38}
	if got, want := cleanSlices(stolen, len(stolen)), []int{1, 4, 6, 7, 8}; !reflect.DeepEqual(got, want) {
		t.Errorf("measured from %v, want the %d least disturbed slices %v", got, minClean, want)
	}
}

func TestStealMeterSharesPerSlice(t *testing.T) {
	sm := stealMeter{ticks: []cpuTicks{{steal: 10, total: 1000}, {steal: 10, total: 1200}, {steal: 90, total: 1400}}}
	got := sm.stolen(2)
	if len(got) != 2 || got[0] != 0 || math.Abs(got[1]-0.4) > 1e-9 {
		t.Errorf("stolen shares = %v, want [0 0.4]", got)
	}
	if sm.stolen(3) != nil {
		t.Error("a window with a missing sample still reported stolen shares")
	}
}

func TestDriveRaisesStopAtTheDeadline(t *testing.T) {
	var stop atomic.Bool
	finished := drive(2, time.Now().Add(-time.Second), &stop, func(int) {
		for !stop.Load() {
			time.Sleep(time.Millisecond)
		}
	})
	if !finished || !stop.Load() {
		t.Errorf("finished = %v, stop = %v; want the watchdog to stop clients that honour it", finished, stop.Load())
	}
}
