// Command mapd is the AutoMap mapping daemon: a long-running HTTP/JSON
// service that accepts search requests, runs them on a bounded worker
// pool, and serves results from a fingerprint-keyed persistent store.
//
//	mapd -addr :8356 -dir mapd-data -searches 2 [-debug-addr localhost:8357]
//
// Submitting a search:
//
//	curl -s localhost:8356/v1/search -d '{"app":"stencil","input":"1000x1000","algorithm":"ccd","budget_sec":600}'
//
// Identical requests coalesce onto the same search; completed results are
// served from the store across restarts. SIGINT/SIGTERM drains cleanly:
// in-flight searches checkpoint and suspend, and the next start resumes
// them to the same final result an uninterrupted run would have produced.
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
	"runtime"
	"syscall"
	"time"

	"automap/internal/fleet"
	"automap/internal/serve"
)

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8356", "listen address")
	dir := flag.String("dir", "mapd-data", "result store directory")
	searches := flag.Int("searches", 0, "max concurrent searches (0 = half of GOMAXPROCS)")
	debugAddr := flag.String("debug-addr", "", "serve net/http/pprof on this address (e.g. localhost:8357); off when empty — keep it loopback-only, it is unauthenticated")
	replica := flag.String("replica", "", "this daemon's fleet name; joins the fleet in -peers (standalone when empty)")
	peersFlag := flag.String("peers", "", "fleet replica list as name=url,name=url (requires -replica; must include it)")
	flag.Parse()

	// In fleet mode the daemon wraps itself in a replication agent: same
	// store, same API, plus bundle push/stage/adopt (internal/fleet).
	var (
		srv     *serve.Server
		rep     *fleet.Replica
		handler http.Handler
		err     error
	)
	if *replica != "" {
		peers, perr := fleet.ParsePeers(*peersFlag)
		if perr != nil {
			log.Fatal(perr)
		}
		rep, err = fleet.NewReplica(fleet.ReplicaConfig{
			Name:     *replica,
			Peers:    peers,
			Dir:      *dir,
			Searches: *searches,
		})
		if err != nil {
			log.Fatal(err)
		}
		srv = rep.Server()
		handler = rep.Handler()
	} else {
		if *peersFlag != "" {
			log.Fatal("mapd: -peers requires -replica")
		}
		srv, err = serve.New(*dir, *searches)
		if err != nil {
			log.Fatal(err)
		}
		handler = srv.Handler()
	}
	if n := srv.ResumePending(); n > 0 {
		fmt.Printf("resuming %d interrupted search(es) from %s\n", n, *dir)
	}
	if *debugAddr != "" {
		// Mutex and block profiling are off in the runtime by default;
		// sample them whenever the pprof listener is up, so contention
		// between concurrent searches (DESIGN §15) is diagnosable against a
		// live daemon without a rebuild. One mutex event in 100 and one
		// block sample per 100µs blocked are noise next to a simulation.
		runtime.SetMutexProfileFraction(100)
		runtime.SetBlockProfileRate(100 * 1000)
		go func() {
			fmt.Printf("pprof debug listener on %s\n", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, srv.DebugHandler()); err != nil {
				log.Printf("debug listener: %v", err)
			}
		}()
	}

	hs := &http.Server{Addr: *addr, Handler: handler}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// A second signal kills the process instead of waiting out the
		// drain.
		stop()
		fmt.Println("draining: checkpointing in-flight searches")
		srv.Drain()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(shCtx)
	}()

	fmt.Printf("mapd serving on %s (store: %s)\n", *addr, *dir)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	// ListenAndServe returned because Shutdown ran; the drain already
	// completed inside the signal goroutine.
	if rep != nil {
		rep.Close()
	}
	fmt.Println("mapd stopped; store is restartable")
}
