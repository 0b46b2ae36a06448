// Package loadgen is the fleet's synthetic heavy-traffic client.
//
// It models the serving workload the ROADMAP aims at — many clients,
// few distinct searches — as an open-loop arrival process (requests fire
// on schedule regardless of how the service is coping, which is what
// makes overload visible) over a Zipf popularity distribution of request
// bodies. Three arrival patterns are built in:
//
//   - poisson: memoryless arrivals at a constant mean rate;
//   - bursty: on/off modulation (full rate compressed into half the
//     time), the worst case for admission control;
//   - diurnal: a sinusoidal rate swing, a compressed day.
//
// Schedules are generated deterministically from a seed (internal/xrand),
// so two runs at the same configuration offer identical load; what the
// service makes of it — latency, shedding — is the measurement. The
// repository's serve benchmark is benchmark/'s serve-fleet-mixed workload.
package loadgen

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"automap/internal/xrand"
)

// Pattern names an arrival process.
type Pattern string

// Built-in arrival patterns.
const (
	Poisson Pattern = "poisson"
	Bursty  Pattern = "bursty"
	Diurnal Pattern = "diurnal"
)

// Patterns lists every built-in pattern.
var Patterns = []Pattern{Poisson, Bursty, Diurnal}

// Config parameterizes one load run.
type Config struct {
	// Target is the base URL of the service under load (router or a
	// single daemon).
	Target string
	// Pattern is the arrival process; RPS its mean offered rate;
	// Duration the run length.
	Pattern  Pattern
	RPS      float64
	Duration time.Duration
	// Bodies is the request popularity set (POST /v1/search documents),
	// most popular first; ZipfS is the popularity skew exponent
	// (<= 0: 1.1).
	Bodies []string
	ZipfS  float64
	// Seed drives the arrival schedule and popularity draws.
	Seed uint64
	// Tenant is sent as X-Tenant on every request ("" omits the header).
	Tenant string
	// Timeout bounds one request (0 = 30s). An open-loop client must
	// never wait forever: a timed-out request is a service failure and
	// is counted as such.
	Timeout time.Duration
	// Client overrides the HTTP client (tests); nil builds one from
	// Timeout.
	Client *http.Client
}

// Point is the outcome of one run: one point on the QPS/latency curve.
type Point struct {
	Pattern     string  `json:"pattern"`
	OfferedRPS  float64 `json:"offered_rps"`
	AchievedRPS float64 `json:"achieved_rps"`
	DurationSec float64 `json:"duration_sec"`
	Sent        int     `json:"sent"`
	Accepted    int     `json:"accepted"`
	Shed        int     `json:"shed"`
	// ShedWithRetryAfter counts 429s that carried a Retry-After header;
	// honest shedding means it equals Shed.
	ShedWithRetryAfter int `json:"shed_with_retry_after"`
	HTTPErrors         int `json:"http_errors"`
	TransportErrors    int `json:"transport_errors"`
	Timeouts           int `json:"timeouts"`
	// Latency percentiles (milliseconds) over accepted requests.
	P50Ms float64 `json:"p50_ms"`
	P90Ms float64 `json:"p90_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// arrival is one scheduled request: an offset from the run start and the
// index of the body to send.
type arrival struct {
	at   time.Duration
	body int
}

// rate returns the instantaneous offered rate of pattern p at offset t
// into a run with mean rate rps. Bursty compresses the full load into
// alternating 1-second on windows; diurnal swings ±80% around the mean
// over a compressed 10-second day.
func rate(p Pattern, rps float64, t, total time.Duration) float64 {
	switch p {
	case Bursty:
		if int(t/time.Second)%2 == 0 {
			return 2 * rps
		}
		return 0
	case Diurnal:
		period := 10 * time.Second
		if total < period {
			period = total
		}
		return rps * (1 + 0.8*math.Sin(2*math.Pi*t.Seconds()/period.Seconds()))
	default: // Poisson
		return rps
	}
}

// peakRate bounds rate() over a run, for thinning.
func peakRate(p Pattern, rps float64) float64 {
	switch p {
	case Bursty:
		return 2 * rps
	case Diurnal:
		return 1.8 * rps
	default:
		return rps
	}
}

// schedule generates the run's deterministic arrival list: a
// non-homogeneous Poisson process via thinning against the pattern's
// rate function, each arrival paired with a Zipf-popular body index.
func schedule(cfg Config, rng *xrand.RNG) []arrival {
	peak := peakRate(cfg.Pattern, cfg.RPS)
	if peak <= 0 {
		return nil
	}
	cum := zipfCumulative(len(cfg.Bodies), cfg.ZipfS)
	var out []arrival
	t := time.Duration(0)
	for {
		// Exponential inter-arrival at the peak rate; thinning accepts
		// with probability rate(t)/peak.
		dt := -math.Log(1-rng.Float64()) / peak
		t += time.Duration(dt * float64(time.Second))
		if t >= cfg.Duration {
			return out
		}
		if rng.Float64()*peak >= rate(cfg.Pattern, cfg.RPS, t, cfg.Duration) {
			continue
		}
		out = append(out, arrival{at: t, body: pickZipf(cum, rng)})
	}
}

// zipfCumulative builds the cumulative popularity distribution over n
// ranks with weight 1/(rank+1)^s.
func zipfCumulative(n int, s float64) []float64 {
	if s <= 0 {
		s = 1.1
	}
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	for i := range cum {
		cum[i] /= total
	}
	return cum
}

// pickZipf draws a body index from the cumulative distribution.
func pickZipf(cum []float64, rng *xrand.RNG) int {
	u := rng.Float64()
	return sort.SearchFloat64s(cum, u)
}

// maxClientInflight bounds concurrently outstanding requests on the
// client side. An open-loop client keeps firing while earlier requests
// wait, but a run that crosses this bound is measuring client file
// descriptors, not the service; further arrivals are counted as
// transport errors.
const maxClientInflight = 4096

// Run offers the configured load and measures the outcome.
func Run(ctx context.Context, cfg Config) (*Point, error) {
	if len(cfg.Bodies) == 0 {
		return nil, fmt.Errorf("loadgen: no request bodies")
	}
	if cfg.RPS <= 0 || cfg.Duration <= 0 {
		return nil, fmt.Errorf("loadgen: need a positive rate and duration")
	}
	timeout := cfg.Timeout
	if timeout <= 0 {
		timeout = 30 * time.Second
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Timeout: timeout}
	}
	arrivals := schedule(cfg, xrand.New(cfg.Seed))

	var (
		mu        sync.Mutex
		pt        = Point{Pattern: string(cfg.Pattern), OfferedRPS: cfg.RPS, DurationSec: cfg.Duration.Seconds()}
		latencies []float64
		wg        sync.WaitGroup
		sem       = make(chan struct{}, maxClientInflight)
	)
	start := time.Now()
	for _, a := range arrivals {
		if d := time.Until(start.Add(a.at)); d > 0 {
			select {
			case <-time.After(d):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		pt.Sent++
		select {
		case sem <- struct{}{}:
		default:
			pt.TransportErrors++ // client-side overload; see maxClientInflight
			continue
		}
		wg.Add(1)
		go func(body string) {
			defer wg.Done()
			defer func() { <-sem }()
			t0 := time.Now()
			code, hasRetry, err := fire(ctx, client, cfg, body)
			lat := time.Since(t0).Seconds() * 1000
			mu.Lock()
			defer mu.Unlock()
			switch {
			case err != nil:
				if ctx.Err() != nil || strings.Contains(err.Error(), "Client.Timeout") ||
					strings.Contains(err.Error(), "context deadline exceeded") {
					pt.Timeouts++
				} else {
					pt.TransportErrors++
				}
			case code == http.StatusTooManyRequests:
				pt.Shed++
				if hasRetry {
					pt.ShedWithRetryAfter++
				}
			case code >= 200 && code < 300:
				pt.Accepted++
				latencies = append(latencies, lat)
			default:
				pt.HTTPErrors++
			}
		}(cfg.Bodies[a.body])
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()
	if elapsed > 0 {
		pt.AchievedRPS = round2(float64(pt.Accepted) / elapsed)
	}
	sort.Float64s(latencies)
	pt.P50Ms = round2(percentile(latencies, 0.50))
	pt.P90Ms = round2(percentile(latencies, 0.90))
	pt.P99Ms = round2(percentile(latencies, 0.99))
	if n := len(latencies); n > 0 {
		pt.MaxMs = round2(latencies[n-1])
	}
	return &pt, nil
}

// fire sends one request and classifies the response.
func fire(ctx context.Context, client *http.Client, cfg Config, body string) (code int, hasRetryAfter bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		cfg.Target+"/v1/search", strings.NewReader(body))
	if err != nil {
		return 0, false, err
	}
	req.Header.Set("Content-Type", "application/json")
	if cfg.Tenant != "" {
		req.Header.Set("X-Tenant", cfg.Tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		return 0, false, err
	}
	defer resp.Body.Close()
	// Drain so the connection is reusable; bodies are small.
	buf := make([]byte, 4096)
	for {
		if _, rerr := resp.Body.Read(buf); rerr != nil {
			break
		}
	}
	return resp.StatusCode, resp.Header.Get("Retry-After") != "", nil
}

// percentile returns the q-th percentile of sorted values (0 for none).
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q*float64(len(sorted)))) - 1
	if idx < 0 {
		idx = 0
	}
	if idx >= len(sorted) {
		idx = len(sorted) - 1
	}
	return sorted[idx]
}

// round2 keeps report JSON readable.
func round2(v float64) float64 { return math.Round(v*100) / 100 }
