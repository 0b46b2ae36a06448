// Command mapfleet is the fleet router: the stateless front door over a
// set of mapd replicas (see internal/fleet). It admits requests under
// per-tenant quotas, routes each search to its consistent-hash owner so
// duplicates coalesce fleet-wide, and fails over along the ring when a
// replica dies or drains.
//
//	mapfleet -addr :8360 -replicas a=http://127.0.0.1:8356,b=http://127.0.0.1:8358 -rps 200
//
// Tenant quotas override the default via repeated -tenant-quota flags:
//
//	mapfleet ... -tenant-quota batch=20 -tenant-quota interactive=500:1000
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
	"strconv"
	"strings"
	"syscall"
	"time"

	"automap/internal/fleet"
)

// quotaFlags collects repeated -tenant-quota tenant=rps[:burst] values.
type quotaFlags map[string]fleet.Quota

func (q quotaFlags) String() string { return fmt.Sprintf("%d quotas", len(q)) }

func (q quotaFlags) Set(s string) error {
	tenant, spec, ok := strings.Cut(s, "=")
	if !ok || tenant == "" {
		return fmt.Errorf("want tenant=rps[:burst], got %q", s)
	}
	rpsStr, burstStr, hasBurst := strings.Cut(spec, ":")
	rps, err := strconv.ParseFloat(rpsStr, 64)
	if err != nil {
		return fmt.Errorf("bad rps in %q: %v", s, err)
	}
	var burst int
	if hasBurst {
		if burst, err = strconv.Atoi(burstStr); err != nil {
			return fmt.Errorf("bad burst in %q: %v", s, err)
		}
	}
	q[tenant] = fleet.Quota{RPS: rps, Burst: burst}
	return nil
}

func main() {
	log.SetFlags(0)
	addr := flag.String("addr", ":8360", "listen address")
	replicas := flag.String("replicas", "", "replica list as name=url,name=url (required)")
	rps := flag.Float64("rps", 0, "default per-tenant quota in requests/sec (0 = unlimited)")
	burst := flag.Int("burst", 0, "default per-tenant burst (0 = ceil(rps))")
	maxInflight := flag.Int("max-inflight", 0, "global in-flight request cap (0 = unlimited)")
	healthEvery := flag.Duration("health-every", time.Second, "replica health-probe period")
	tenantQuotas := quotaFlags{}
	flag.Var(tenantQuotas, "tenant-quota", "per-tenant quota override as tenant=rps[:burst] (repeatable)")
	flag.Parse()

	peers, err := fleet.ParsePeers(*replicas)
	if err != nil {
		log.Fatal(err)
	}
	rt, err := fleet.NewRouter(fleet.RouterConfig{
		Replicas:     peers,
		Quota:        fleet.Quota{RPS: *rps, Burst: *burst},
		TenantQuotas: tenantQuotas,
		MaxInflight:  *maxInflight,
		HealthEvery:  *healthEvery,
	})
	if err != nil {
		log.Fatal(err)
	}

	hs := &http.Server{Addr: *addr, Handler: rt.Handler()}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		stop()
		shCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		hs.Shutdown(shCtx)
	}()

	fmt.Printf("mapfleet routing %d replica(s) on %s\n", len(peers), *addr)
	if err := hs.ListenAndServe(); err != nil && !errors.Is(err, http.ErrServerClosed) {
		log.Fatal(err)
	}
	rt.Close()
	fmt.Println("mapfleet stopped")
}
