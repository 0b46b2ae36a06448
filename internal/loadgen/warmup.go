// Warmup: the request bodies a load run offers, and the pass that submits
// each of them once and waits, so a measurement sees a steady-state
// (cache-serving) target.

package loadgen

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"
)

// DefaultBodies returns n distinct quick search requests (distinct seeds,
// hence distinct fingerprints) suitable for load generation: each first
// submission runs a sub-second search, every repeat coalesces.
func DefaultBodies(n int) []string {
	bodies := make([]string, n)
	for i := range bodies {
		bodies[i] = fmt.Sprintf(`{"app":"stencil","input":"500x500","algorithm":"ccd","seed":%d,`+
			`"max_suggestions":60,"repeats":2,"final_repeats":2,"final_candidates":2}`, i+1)
	}
	return bodies
}

// Warmup submits every body once and waits for all of them to finish, so
// measurement windows see a steady-state (cache-serving) fleet. It
// tolerates shed submissions by retrying until the deadline.
func Warmup(ctx context.Context, target string, bodies []string, timeout time.Duration) error {
	client := &http.Client{Timeout: 30 * time.Second}
	deadline := time.Now().Add(timeout)
	ids := make(map[string]bool)
	for _, body := range bodies {
		for {
			id, done, err := submitOnce(ctx, client, target, body)
			if err == nil && id != "" {
				if !done {
					ids[id] = true
				}
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("loadgen: warmup submission never accepted: %v", err)
			}
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	for id := range ids {
		for {
			if done := pollDone(ctx, client, target, id); done {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("loadgen: warmup search %s never finished", id)
			}
			select {
			case <-time.After(200 * time.Millisecond):
			case <-ctx.Done():
				return ctx.Err()
			}
		}
	}
	return nil
}

// submitOnce POSTs one search; done reports an already-finished result.
func submitOnce(ctx context.Context, client *http.Client, target, body string) (id string, done bool, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		target+"/v1/search", strings.NewReader(body))
	if err != nil {
		return "", false, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return "", false, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return "", false, fmt.Errorf("submit = %d", resp.StatusCode)
	}
	var st struct {
		ID     string `json:"id"`
		Status string `json:"status"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return "", false, err
	}
	return st.ID, st.Status == "done" || st.Status == "failed", nil
}

// pollDone reports whether the search reached a terminal state.
func pollDone(ctx context.Context, client *http.Client, target, id string) bool {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet,
		target+"/v1/search/"+id, nil)
	if err != nil {
		return false
	}
	resp, err := client.Do(req)
	if err != nil {
		return false
	}
	defer resp.Body.Close()
	var st struct {
		Status string `json:"status"`
	}
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return false
	}
	return st.Status == "done" || st.Status == "failed"
}
