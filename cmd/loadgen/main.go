// Command loadgen offers synthetic open-loop traffic at a mapd daemon or
// mapfleet router and reports what came back (internal/loadgen): one
// measured point on the QPS/latency curve, as JSON.
//
//	loadgen -target http://127.0.0.1:8360 -pattern bursty -rps 200 -duration 10s
//
// The repository's serve benchmark is benchmark/'s serve-fleet-mixed
// workload; loadgen is the hand-held probe.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"slices"
	"syscall"
	"time"

	"automap/internal/loadgen"
)

func main() {
	log.SetFlags(0)
	target := flag.String("target", "", "base URL under load (required)")
	pattern := flag.String("pattern", "poisson", "arrival pattern: poisson, bursty or diurnal")
	rps := flag.Float64("rps", 50, "mean offered requests/sec")
	duration := flag.Duration("duration", 10*time.Second, "measurement window")
	keys := flag.Int("keys", 8, "distinct request bodies in the popularity set")
	zipfS := flag.Float64("zipf", 1.1, "Zipf popularity exponent")
	seed := flag.Uint64("seed", 1, "schedule seed (same seed = same offered load)")
	tenant := flag.String("tenant", "", "X-Tenant header value")
	timeout := flag.Duration("timeout", 30*time.Second, "per-request timeout")
	warmup := flag.Bool("warmup", true, "submit every body and wait for completion before measuring")
	out := flag.String("out", "", "write the report JSON here (default stdout)")
	flag.Parse()

	if *target == "" {
		log.Fatal("loadgen: need -target")
	}
	pat, err := patternFor(*pattern)
	if err != nil {
		log.Fatal(err)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	bodies := loadgen.DefaultBodies(*keys)
	if *warmup {
		fmt.Fprintf(os.Stderr, "warming up %d key(s)...\n", len(bodies))
		if err := loadgen.Warmup(ctx, *target, bodies, 5*time.Minute); err != nil {
			log.Fatal(err)
		}
	}

	pt, err := loadgen.Run(ctx, loadgen.Config{
		Target:   *target,
		Pattern:  pat,
		RPS:      *rps,
		Duration: *duration,
		Bodies:   bodies,
		ZipfS:    *zipfS,
		Seed:     *seed,
		Tenant:   *tenant,
		Timeout:  *timeout,
	})
	if err != nil {
		log.Fatal(err)
	}

	data, err := json.MarshalIndent(pt, "", "  ")
	if err != nil {
		log.Fatal(err)
	}
	data = append(data, '\n')
	if *out == "" {
		os.Stdout.Write(data)
		return
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		log.Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *out)
}

// patternFor maps the -pattern flag to a built-in arrival pattern.
// loadgen.Run treats any unknown name as Poisson, so a typo must fail
// here rather than run under a misleading label.
func patternFor(s string) (loadgen.Pattern, error) {
	p := loadgen.Pattern(s)
	if !slices.Contains(loadgen.Patterns, p) {
		return "", fmt.Errorf("loadgen: unknown -pattern %q (want poisson, bursty or diurnal)", s)
	}
	return p, nil
}
