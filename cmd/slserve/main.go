// Command slserve serves strongly linearizable shared objects over
// HTTP/JSON. It fronts a named-object registry (internal/registry) through
// the handler in internal/server: objects are created lazily on first use,
// operations of every kind lease a process id from one fixed pool of -procs
// ids, and every object is strongly linearizable — the guarantee composed
// clients need under adversarial scheduling. The kind set is open: this binary
// serves every driver it imports (internal/kind) — the four paper kinds
// plus the Ellen–Sela bag — and GET /v1/kinds lists them.
//
// Usage:
//
//	slserve [-addr :8080] [-procs 16] [-maxbatch 1024]
//
// See docs/API.md for the endpoint reference. -procs bounds concurrently
// executing operations: requests beyond it queue FIFO on the pid pool (and
// give up when the client disconnects). -maxbatch caps the entries accepted
// per POST /v1/batch request, which runs many operations under one pid
// lease. SIGINT/SIGTERM drain in-flight requests before exit.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	_ "slmem/internal/bag" // register the bag kind
	"slmem/internal/kind"
	"slmem/internal/registry"
	"slmem/internal/server"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "slserve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("slserve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		procs    = fs.Int("procs", 16, "process pool size (max concurrent operations)")
		maxBatch = fs.Int("maxbatch", server.MaxBatchOps, "max entries per /v1/batch request")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *maxBatch <= 0 {
		return fmt.Errorf("-maxbatch must be positive, got %d", *maxBatch)
	}

	httpSrv := &http.Server{
		Addr: *addr,
		Handler: server.New(registry.Options{Procs: *procs},
			server.WithMaxBatchOps(*maxBatch)),
		ReadHeaderTimeout: 10 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() {
		log.Printf("slserve: listening on %s (procs=%d kinds=%s)",
			*addr, *procs, strings.Join(kind.Names(), ","))
		if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errc <- err
		}
	}()

	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	log.Printf("slserve: shutting down")
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return httpSrv.Shutdown(shutdownCtx)
}
