// Batch pipeline demo: the same workload through the per-request path and
// through POST /v1/batch, plus the library-level batch wrappers.
//
// Every single-operation HTTP request pays one pid lease and one JSON round
// trip. The batch endpoint runs a whole array of operations under ONE lease
// in ONE request, so the coordination cost amortizes across the batch —
// while each operation stays individually strongly linearizable (the batch
// itself is not atomic; see docs/ARCHITECTURE.md).
//
// Run with: go run ./examples/batch
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"time"

	"slmem"
	"slmem/internal/registry"
	"slmem/internal/server"
)

const (
	procs     = 8
	totalOps  = 2048
	batchSize = 64
)

func main() {
	srv := server.New(registry.Options{Procs: procs})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv}
	go httpSrv.Serve(ln)
	defer httpSrv.Close()
	base := "http://" + ln.Addr().String()
	client := &http.Client{}

	// --- Per-request path: one lease + one round trip per op. ---------------
	start := time.Now()
	for i := 0; i < totalOps; i++ {
		res, err := client.Post(base+"/v1/counter/perop/inc", "application/json", nil)
		if err != nil {
			log.Fatal(err)
		}
		res.Body.Close()
	}
	perOp := time.Since(start)

	// --- Batched path: the same ops, batchSize per request. -----------------
	entries := make([]server.BatchEntry, batchSize)
	for i := range entries {
		entries[i] = server.BatchEntry{Kind: registry.KindCounter, Name: "batched", Op: registry.OpInc}
	}
	body, err := json.Marshal(entries)
	if err != nil {
		log.Fatal(err)
	}
	start = time.Now()
	for done := 0; done < totalOps; done += batchSize {
		res, err := client.Post(base+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			log.Fatal(err)
		}
		var reply server.BatchResponse
		if err := json.NewDecoder(res.Body).Decode(&reply); err != nil {
			log.Fatal(err)
		}
		res.Body.Close()
		if !reply.OK {
			log.Fatalf("batch failed: %+v", reply)
		}
		if reply.Stats.Leases != 1 {
			log.Fatalf("batch of %d ops used %d leases, want 1", batchSize, reply.Stats.Leases)
		}
	}
	batched := time.Since(start)

	st := srv.Stats()
	fmt.Printf("per-request: %d ops in %v (%.0f ns/op)\n",
		totalOps, perOp.Round(time.Millisecond), float64(perOp.Nanoseconds())/totalOps)
	fmt.Printf("batched:     %d ops in %v (%.0f ns/op), %d ops/request\n",
		totalOps, batched.Round(time.Millisecond), float64(batched.Nanoseconds())/totalOps, batchSize)
	fmt.Printf("speedup: %.1fx; server saw %d requests, %d batches, %d batch ops\n",
		float64(perOp.Nanoseconds())/float64(batched.Nanoseconds()),
		st.Requests, st.Batches, st.BatchOps)
	fmt.Printf("lease acquisitions: %d for %d operations\n",
		st.Registry.Pool.Acquires, st.Ops["counter"])

	// Both counters must have every increment: batching changes the cost,
	// never the strong-linearizability guarantee.
	for _, name := range []string{"perop", "batched"} {
		res, err := client.Post(base+"/v1/counter/"+name+"/read", "application/json", nil)
		if err != nil {
			log.Fatal(err)
		}
		var r server.Response
		if err := json.NewDecoder(res.Body).Decode(&r); err != nil {
			log.Fatal(err)
		}
		res.Body.Close()
		if r.Value != fmt.Sprint(totalOps) {
			log.Fatalf("counter %s = %s, want %d (lost increments)", name, r.Value, totalOps)
		}
		fmt.Printf("counter/%s = %s ✓\n", name, r.Value)
	}

	// --- The same amortization without the server: library wrappers. --------
	ctx := context.Background()
	pool := slmem.NewPool[string](procs, "")
	if err := pool.Batch(ctx, func(h slmem.SnapshotHandle[string]) error {
		for i := 0; i < 100; i++ {
			h.Update(fmt.Sprintf("step-%d", i))
		}
		return nil
	}); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("Pool.Batch: 100 updates, %d lease acquisition(s)\n", pool.PIDs().Stats().Acquires)

	obj := slmem.NewPooledObject(slmem.AccumulatorType{}, procs)
	invs := make([]string, 0, 11)
	for i := 1; i <= 10; i++ {
		invs = append(invs, fmt.Sprintf("addTo(%d)", i))
	}
	invs = append(invs, "read()")
	resps, err := obj.ExecuteMany(ctx, invs)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ExecuteMany: sum 1..10 = %s, %d lease acquisition(s)\n",
		resps[len(resps)-1], obj.PIDs().Stats().Acquires)
}
