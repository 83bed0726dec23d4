// Service demo: an in-process slserve instance under a swarm of HTTP
// clients.
//
// The paper's objects assume n processes with fixed ids; the service
// runtime (slmem.PIDPool, internal/registry, internal/server) bridges
// that model to an open system. Here 48 clients — six times the pid pool —
// hammer one shared counter and one shared snapshot over real HTTP. The
// counter loses no increments even though every request transits the lease
// pool, and the stats show how acquisitions were served (fast path, another
// free pid, or queued).
//
// Run with: go run ./examples/service
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"slmem/internal/registry"
	"slmem/internal/server"
)

const (
	procs      = 8
	clients    = 48
	opsPerUser = 40
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
	fmt.Printf("serving %d-process objects at %s\n", procs, base)

	// One shared client with enough idle connections for the whole swarm;
	// the default transport keeps only 2 per host and would churn dials.
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	post := func(path string, body any) (server.Response, error) {
		var buf bytes.Buffer
		if body != nil {
			if err := json.NewEncoder(&buf).Encode(body); err != nil {
				return server.Response{}, err
			}
		}
		res, err := client.Post(base+path, "application/json", &buf)
		if err != nil {
			return server.Response{}, err
		}
		defer res.Body.Close()
		var r server.Response
		if err := json.NewDecoder(res.Body).Decode(&r); err != nil {
			return server.Response{}, err
		}
		if !r.OK {
			return r, fmt.Errorf("%s: %s", path, r.Error)
		}
		return r, nil
	}

	fmt.Printf("unleashing %d clients x %d ops on counter/hits and snapshot/board\n",
		clients, opsPerUser)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < opsPerUser; i++ {
				var err error
				switch i % 4 {
				case 0, 1, 2:
					_, err = post("/v1/counter/hits/inc", nil)
				default:
					_, err = post("/v1/snapshot/board/update",
						server.Request{Value: fmt.Sprintf("client%d@%d", c, i)})
					if err == nil {
						_, err = post("/v1/snapshot/board/scan", nil)
					}
				}
				if err != nil {
					log.Fatalf("client %d: %v", c, err)
				}
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)

	final, err := post("/v1/counter/hits/read", nil)
	if err != nil {
		log.Fatal(err)
	}
	incs := clients * opsPerUser * 3 / 4
	fmt.Printf("\ncounter/hits = %s (expected %d) after %v\n", final.Value, incs, elapsed.Round(time.Millisecond))

	st := srv.Stats()
	fmt.Printf("requests=%d failures=%d ops=%v\n", st.Requests, st.Failures, st.Ops)
	fmt.Printf("pid pool: procs=%d in-use=%d acquires=%d fast-path=%d steals=%d blocked=%d\n",
		st.Registry.Procs, st.Registry.PIDsInUse,
		st.Registry.Pool.Acquires, st.Registry.Pool.FastPath,
		st.Registry.Pool.Steals, st.Registry.Pool.Blocks)
	if final.Value != fmt.Sprint(incs) {
		log.Fatal("lost increments: strong linearizability did not survive the bridge!")
	}
	fmt.Println("no increment lost; every operation ran as a leased fixed-model process")
}
