package main

// The per-layer metrics of each workload family. BENCHMARK.json's
// per_layer list is their union (a test checks it); a traced run reports
// its own family's metrics as measured and the other family's as 0, since
// those layers do not run in it.

var searchLayerMetrics = []string{
	"profile.setup_s", "search.self_s", "driver.evaluate_s", "driver.prefetch_s", "driver.final_s",
	"driver.evaluate.calls", "driver.evaluate.cached", "driver.prefetch.calls",
	"driver.commit.wait_s", "driver.commit.sync_evals", "driver.prefetch.useful_ratio",
	"sim.evals.incremental", "sim.evals.fallback", "sim.evals.incremental_share",
	"sim.plan_cache.misses", "search.evaluated", "search.suggested",
	"sim.plan_us", "sim.full_us", "sim.fold_us", "sim.structure_us", "sim.simulate_us",
	"sim.delta.classify_us", "sim.delta.run_us",
	"go.alloc_mb", "go.gc_pause_s",
	"search.traced_s", "search.untraced_s", "layers.sum_ratio",
}

var serveLayerMetrics = []string{
	"fleet.router_ms", "fleet.replica_ms", "fleet.router.proxy_ms", "serve.fingerprint_us",
	"serve.queue_wait_s", "serve.search_run_s", "serve.coalesce.hit_ratio",
	"fleet.push.ok", "fleet.push.fail", "loadgen.late_ms",
	"serve.read_tail_ms", "serve.cold_ttr_p50_s", "serve.capacity_rps",
}

// sharedLayerMetrics are reported by every traced run. latency_tail_ms is
// the end-to-end tail (see README.md for why it is not gated).
var sharedLayerMetrics = []string{"trace.overhead_s", "latency_tail_ms"}

// setZero reports each named metric as 0: the layer did not run.
func setZero(meas *measurement, names []string) {
	for _, n := range names {
		meas.set(n, 0, "not exercised by this workload")
	}
}
