package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// The benchmark's own open-loop load generator. Requests fire on a
// schedule fixed in advance from the workload seed, whatever the service
// is doing; each is timed from when it was due, not from when a worker got
// to send it, so a stall is charged to every request it delays. At most
// GOMAXPROCS workers — and as many connections — send, and the generator
// reports how late it ran.

// opKind is what a scheduled request does.
type opKind int

const (
	// opHit submits a pre-warmed (popular) request: a store hit.
	opHit opKind = iota
	// opRead GETs a search's status: an outstanding cold search when one
	// is waiting to be polled, otherwise a popular one.
	opRead
	// opCold submits a request with a fresh seed: a real search runs.
	opCold
)

func (k opKind) String() string {
	return [...]string{"hit", "read", "cold"}[k]
}

// loadStep is one fixed-rate stretch of the schedule.
type loadStep struct {
	rate float64 // mean arrivals per second (Poisson)
	dur  time.Duration
}

// trafficMix sets the share of reads and the cold-submit cadence; hits
// take the rest.
type trafficMix struct {
	read float64
	// coldEvery makes every coldEvery-th request of the schedule a cold
	// submit: an exact share, so every run starts the same number of
	// searches in each step.
	coldEvery int
	// zipfS is the popularity skew over the warm requests (> 1).
	zipfS float64
}

// scheduledOp is one request of the schedule.
type scheduledOp struct {
	due  time.Duration // offset from the start of the window
	step int
	kind opKind
	// warm indexes the popular request a hit submits (and a read falls
	// back to); cold numbers the fresh request a cold submit sends.
	warm int
	cold int
}

// buildSchedule draws the whole schedule from the seed: Poisson arrivals
// at each step's rate, every coldEvery-th a cold submit and the others
// reads or hits by the read share, hits and reads choosing a popular
// request by Zipf rank. The same seed always yields
// the same schedule.
func buildSchedule(seed uint64, steps []loadStep, warm int, mix trafficMix) []scheduledOp {
	rng := newRand(seed, "schedule")
	zipf := rand.NewZipf(rng, mix.zipfS, 1, uint64(warm-1))
	var ops []scheduledOp
	var offset time.Duration
	colds := 0
	for si, st := range steps {
		t := 0.0
		for {
			t += rng.ExpFloat64() / st.rate
			due := time.Duration(t * float64(time.Second))
			if due >= st.dur {
				break
			}
			op := scheduledOp{due: offset + due, step: si, warm: int(zipf.Uint64())}
			switch {
			case (len(ops)+1)%mix.coldEvery == 0:
				op.kind = opCold
				op.cold = colds
				colds++
			case rng.Float64() < mix.read:
				op.kind = opRead
			default:
				op.kind = opHit
			}
			ops = append(ops, op)
		}
		offset += st.dur
	}
	return ops
}

// opResult is the outcome of one scheduled request. Times are offsets from
// the window start.
type opResult struct {
	sent, done time.Duration
	// target is the search the request addressed.
	target string
	// handler is the time the request spent inside the replica handler
	// (traced runs only; 0 otherwise).
	handler time.Duration
	err     error
}

// latency is the request's time from due to done.
func (r *opResult) latency(op *scheduledOp) time.Duration { return r.done - op.due }

// late is how long after its due time the request was sent.
func (r *opResult) late(op *scheduledOp) time.Duration { return r.sent - op.due }

// client is the generator's view of the fleet: the router URL, the
// request bodies, and the checks on what comes back.
type client struct {
	http   *http.Client
	target string
	warm   []warmSearch
	cold   func(i int) string
	// handlerTime, when set (traced runs), returns what the replica-side
	// timing middleware measured for a request tag; each request then
	// carries its tag in an X-Bench-Req header.
	handlerTime func(tag string) time.Duration

	results *resultBook
	colds   *coldBook
}

// warmSearch is one pre-warmed popular request.
type warmSearch struct {
	body string
	id   string
}

// statusDoc is the part of a mapd status or submit response the
// generator reads.
type statusDoc struct {
	ID     string          `json:"id"`
	Status string          `json:"status"`
	Error  string          `json:"error"`
	Result json.RawMessage `json:"result"`
}

// run executes the schedule against the fleet with `workers` concurrent
// senders. Worker w takes the next unsent request, waits for its due time,
// sends it, and records the outcome in its slot.
func (c *client) run(ctx context.Context, ops []scheduledOp, start time.Time, workers int) []opResult {
	out := make([]opResult, len(ops))
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(ops) || ctx.Err() != nil {
					return
				}
				if d := time.Until(start.Add(ops[i].due)); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				c.do(ctx, i, &ops[i], &out[i], start)
			}
		}()
	}
	wg.Wait()
	return out
}

// do sends one request and checks its response.
func (c *client) do(ctx context.Context, i int, op *scheduledOp, res *opResult, start time.Time) {
	var req *http.Request
	var err error
	switch op.kind {
	case opHit:
		res.target = c.warm[op.warm].id
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.target+"/v1/search", bytes.NewReader([]byte(c.warm[op.warm].body)))
	case opCold:
		req, err = http.NewRequestWithContext(ctx, http.MethodPost, c.target+"/v1/search", bytes.NewReader([]byte(c.cold(op.cold))))
	case opRead:
		if res.target = c.colds.poll(start); res.target == "" {
			res.target = c.warm[op.warm].id
		}
		req, err = http.NewRequestWithContext(ctx, http.MethodGet, c.target+"/v1/search/"+res.target, nil)
	}
	if err != nil {
		res.err = err
		return
	}
	var tag string
	if c.handlerTime != nil {
		tag = strconv.Itoa(i)
		req.Header.Set(benchReqHeader, tag)
	}
	res.sent = time.Since(start)
	resp, err := c.http.Do(req)
	if err != nil {
		res.done = time.Since(start)
		res.err = err
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	res.done = time.Since(start)
	if tag != "" {
		res.handler = c.handlerTime(tag)
	}
	if err != nil {
		res.err = err
		return
	}
	res.err = c.check(op, res, resp.StatusCode, body)
}

// check validates one response: the status code the request kind allows,
// a hit already done, and every result byte-identical to the first
// completed result seen for its search.
func (c *client) check(op *scheduledOp, res *opResult, code int, body []byte) error {
	if code != http.StatusOK && code != http.StatusAccepted {
		return fmt.Errorf("%s: HTTP %d: %s", op.kind, code, bytes.TrimSpace(body))
	}
	var doc statusDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return fmt.Errorf("%s: decoding response: %w", op.kind, err)
	}
	switch op.kind {
	case opHit:
		if doc.Status != "done" || doc.ID != res.target {
			return fmt.Errorf("hit on %s answered %q for %s", res.target, doc.Status, doc.ID)
		}
	case opCold:
		res.target = doc.ID
		c.colds.submitted(doc.ID, op.due)
	}
	switch doc.Status {
	case "done":
		if err := c.results.check(doc.ID, doc.Result); err != nil {
			return err
		}
		if op.kind != opHit {
			c.colds.finished(doc.ID, res.done)
		}
	case "failed", "suspended":
		return fmt.Errorf("search %s is %s: %s", doc.ID, doc.Status, doc.Error)
	}
	return nil
}

// resultBook holds the first completed result bytes per search.
type resultBook struct {
	mu    sync.Mutex
	first map[string][]byte
}

func newResultBook() *resultBook { return &resultBook{first: make(map[string][]byte)} }

// check records the first result for id and requires every later one to
// be byte-identical.
func (b *resultBook) check(id string, result []byte) error {
	if len(result) == 0 {
		return fmt.Errorf("search %s is done but carries no result", id)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	prev, ok := b.first[id]
	if !ok {
		b.first[id] = append([]byte(nil), result...)
		return nil
	}
	if !bytes.Equal(prev, result) {
		return fmt.Errorf("search %s: result differs from the first completed one", id)
	}
	return nil
}

// coldBook tracks cold searches from submission to the first read that
// finds them done.
type coldBook struct {
	mu   sync.Mutex
	open map[string]*coldSearch
	// order lists open searches by submission, for round-robin polling.
	order []string
	ttr   []time.Duration
}

type coldSearch struct {
	due, polled time.Duration
}

func newColdBook() *coldBook { return &coldBook{open: make(map[string]*coldSearch)} }

func (b *coldBook) submitted(id string, due time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.open[id]; ok {
		return
	}
	b.open[id] = &coldSearch{due: due, polled: due}
	b.order = append(b.order, id)
}

// poll picks the open cold search polled least recently, or "".
func (b *coldBook) poll(start time.Time) string {
	b.mu.Lock()
	defer b.mu.Unlock()
	var best string
	var bestAt time.Duration
	for _, id := range b.order {
		cs := b.open[id]
		if best == "" || cs.polled < bestAt {
			best, bestAt = id, cs.polled
		}
	}
	if best != "" {
		b.open[best].polled = time.Since(start)
	}
	return best
}

// finished closes an open cold search, recording its time to result (due
// to the response that reported it done).
func (b *coldBook) finished(id string, at time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	cs, ok := b.open[id]
	if !ok {
		return
	}
	b.ttr = append(b.ttr, at-cs.due)
	delete(b.open, id)
	for i, o := range b.order {
		if o == id {
			b.order = append(b.order[:i], b.order[i+1:]...)
			break
		}
	}
}

// pending returns the ids of cold searches not yet seen done.
func (b *coldBook) pending() []string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]string(nil), b.order...)
}

// benchReqHeader carries a request's tag from the generator through the
// router (which forwards all headers) to the replica-side middleware.
const benchReqHeader = "X-Bench-Req"
