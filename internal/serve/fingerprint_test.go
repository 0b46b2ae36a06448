package serve_test

import (
	"encoding/json"
	"testing"

	"automap/internal/serve"
)

// TestFingerprintGolden pins Request.Fingerprint for normalized requests
// covering every cluster, every algorithm, maestro's tunable subset and
// the implicit two-hour bound of an unbounded ot search. A fingerprint
// keys the daemon's store and the fleet's ring, so a change to how a
// request resolves its cluster, algorithm or options must not move one.
func TestFingerprintGolden(t *testing.T) {
	for _, tc := range []struct{ body, want string }{
		{`{"app":"stencil","input":"500x500"}`, "6e2dd9c3b361a963597454d5"},
		{`{"app":"circuit","input":"n50w200","cluster":"lassen","nodes":2,"algorithm":"cd","seed":7}`, "0d91dad91d6d3a93611f403b"},
		{`{"app":"pennant","cluster":"Perlmutter","algorithm":"anneal","max_suggestions":200}`, "da66edd65a51c595220eee04"},
		{`{"app":"htr","algorithm":"random","budget_sec":60,"repeats":3}`, "b207232101d7959ac3ceb974"},
		{`{"app":"maestro","cluster":"lassen","final_candidates":3,"final_repeats":11}`, "a3583b91c0e07ce3151bff2c"},
		{`{"app":"stencil","cluster":"perlmutter","algorithm":"OT","noise_sigma":0.1}`, "beb6e51646bec58a5ecbcec7"},
	} {
		var req serve.Request
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Normalize(); err != nil {
			t.Fatalf("%s: Normalize: %v", tc.body, err)
		}
		got, err := req.Fingerprint()
		if err != nil {
			t.Fatalf("%s: Fingerprint: %v", tc.body, err)
		}
		if got != tc.want {
			t.Errorf("%s: Fingerprint = %s, want %s", tc.body, got, tc.want)
		}
	}
}

// TestNormalizeWorkers checks that "workers" accepts only 0 and 1, and that
// it stays outside the fingerprint: a search measures one candidate at a
// time, so a larger value would be silently meaningless.
func TestNormalizeWorkers(t *testing.T) {
	fp := func(body string) (string, error) {
		var req serve.Request
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		if err := req.Normalize(); err != nil {
			return "", err
		}
		return req.Fingerprint()
	}
	want, err := fp(`{"app":"stencil","input":"500x500"}`)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := fp(`{"app":"stencil","input":"500x500","workers":1}`); err != nil || got != want {
		t.Errorf(`"workers":1: fingerprint %s, %v; want %s`, got, err, want)
	}
	for _, body := range []string{
		`{"app":"stencil","input":"500x500","workers":8}`,
		`{"app":"stencil","input":"500x500","workers":-1}`,
	} {
		if _, err := fp(body); err == nil {
			t.Errorf("%s: Normalize accepted it", body)
		}
	}
}
