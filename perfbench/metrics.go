package main

// metricDef names one reported metric. README.md records, for each
// per-layer metric, its source and the end-to-end metric and workload it
// should move.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a caller of ftserve sees, printed with --trace 0 for
// every workload. A failure never yields 0: ok_frac is the share of
// attempted operations that succeeded and passed every correctness check.
// Throughput and the tail percentiles are printed in the line before the
// result; they moved too much between runs of the same code to be gated
// (README.md).
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"p50_ms", "ms", "lower"},
	{"ok_frac", "frac", "higher"},
	{"alloc_kb_per_op", "KiB", "lower"},
}

// perLayer is printed with --trace 1. Every traced run prints every entry;
// a layer that a workload does not exercise reads 0 there (see README.md).
var perLayer = []metricDef{
	{"graph.decode_ms", "ms", "lower"},
	{"graph.digest_ms", "ms", "lower"},
	{"cluster.spec_digest_ms", "ms", "lower"},
	{"cluster.local_ms", "ms", "lower"},
	{"cluster.routed_ms", "ms", "lower"},
	{"cluster.retries_per_op", "1/op", "lower"},
	{"cluster.peer_errors_per_op", "1/op", "lower"},
	{"service.submit_ms", "ms", "lower"},
	{"service.fetch_ms", "ms", "lower"},
	{"service.mem_hit_frac", "frac", "higher"},
	{"service.queue_ms", "ms", "lower"},
	{"service.persist_ms", "ms", "lower"},
	{"service.session_overhead_ms", "ms", "lower"},
	{"service.http_ms", "ms", "lower"},
	{"service.unattributed_ms", "ms", "lower"},
	{"service.layer_sum_ok", "bool", "higher"},
	{"core.build_ms", "ms", "lower"},
	{"core.spec_waste_frac", "frac", "lower"},
	{"core.pipeline_depth", "count", "lower"},
	{"core.apply_batch_ms", "ms", "lower"},
	{"core.current_ms", "ms", "lower"},
	{"core.suffix_len", "count", "lower"},
	{"core.full_rebuild_frac", "frac", "lower"},
	{"core.oracle_reuse_frac", "frac", "higher"},
	{"fault.oracle_calls_per_op", "1/op", "lower"},
	{"fault.witness_hit_rate", "frac", "higher"},
	{"fault.query_p50_us", "us", "lower"},
	{"sssp.dijkstras_per_op", "1/op", "lower"},
	{"store.put_ms", "ms", "lower"},
	{"store.get_ms", "ms", "lower"},
	{"store.hit_frac", "frac", "higher"},
	{"store.write_errors", "count", "lower"},
	{"trace_overhead_frac", "frac", "lower"},
}

// zeroLayers returns every per-layer metric at 0, for a workload to fill
// in the layers it exercises.
func zeroLayers() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}
	return m
}
