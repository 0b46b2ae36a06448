package main

import (
	"sort"
	"testing"
)

// TestManifestMatchesCode keeps BENCHMARK.json and the program in step:
// the declared workloads are the ones the program runs, the per-layer list
// is exactly the union of the families' metrics, and the serve workload
// states its latency limit.
func TestManifestMatchesCode(t *testing.T) {
	man, err := loadManifest("../" + manifestPath)
	if err != nil {
		t.Fatal(err)
	}
	var declared []string
	for _, w := range man.Workloads {
		declared = append(declared, w.Name)
	}
	sort.Strings(declared)
	if got := workloadNames(); !equalStrings(got, declared) {
		t.Errorf("program runs %v, manifest declares %v", got, declared)
	}
	for name := range searchWorkloads {
		if workloads[name] == nil {
			t.Errorf("search workload %s has no runner", name)
		}
	}

	var layers []string
	for _, m := range man.PerLayer {
		layers = append(layers, m.Name)
	}
	var code []string
	code = append(code, searchLayerMetrics...)
	code = append(code, serveLayerMetrics...)
	code = append(code, sharedLayerMetrics...)
	sort.Strings(layers)
	sort.Strings(code)
	if !equalStrings(layers, code) {
		t.Errorf("manifest per_layer %v\nprogram families %v", layers, code)
	}

	if _, err := latencyLimit(man, "serve-fleet-mixed"); err != nil {
		t.Error(err)
	}
	var setup bool
	for _, m := range man.EndToEnd {
		if m.Name == "setup_s" && m.Unit == "s" && m.Better == "lower" {
			setup = true
		}
	}
	if !setup {
		t.Error("end_to_end must declare setup_s in s, lower is better")
	}
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
