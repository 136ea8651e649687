package main

import (
	"math"
	"sort"
)

// metric declares one reported number. BENCHMARK.json at the repository
// root repeats name, unit, direction and bound; bench_test.go keeps the
// two in step.
type metric struct {
	Name   string
	Unit   string
	Better string  // "higher" or "lower"
	Bound  float64 // end-to-end only: tolerated worsening as a share of the parent's median
	// Moves names, for a per-layer metric, the end-to-end metric it is
	// expected to move and where; it travels with the metric's rows in
	// the report (README.md has the full table with the predicted
	// no-change cells).
	Moves string
}

// endToEnd lists what a user of the generator sees. Every one is
// reported on every workload and is never zero.
var endToEnd = []metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "edges_per_sec", Unit: "edges/s", Better: "higher", Bound: 0.25},
	{Name: "job_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_bytes_per_edge", Unit: "B/edge", Better: "lower", Bound: 0.15},
	{Name: "peak_rss_mb", Unit: "MiB", Better: "lower", Bound: 0.10},
	{Name: "bytes_per_edge", Unit: "B/edge", Better: "lower", Bound: 0.005},
}

// perLayer lists the single-layer numbers of the traced run. A layer a
// workload never enters reports 0 there.
var perLayer = []metric{
	{Name: "rng.float64_ns", Unit: "ns", Better: "lower", Moves: "edges_per_sec on batch-sparse (per attempt)"},
	{Name: "rng.new_scoped_ns", Unit: "ns", Better: "lower", Moves: "edges_per_sec on batch-sparse (per scope)"},

	{Name: "recvec.new_ns", Unit: "ns", Better: "lower", Moves: "edges_per_sec on batch-sparse"},
	{Name: "recvec.new_allocs", Unit: "count", Better: "lower", Moves: "alloc_bytes_per_edge on batch-sparse"},
	{Name: "recvec.new_noisy_ns", Unit: "ns", Better: "lower", Moves: "edges_per_sec on noisy configs"},
	{Name: "recvec.determine_ns", Unit: "ns", Better: "lower", Moves: "edges_per_sec on batch-sparse"},
	{Name: "recvec.big_determine_ns", Unit: "ns", Better: "lower", Moves: "edges_per_sec on high-precision configs"},

	{Name: "avs.scope_size_ns", Unit: "ns", Better: "lower", Moves: "edges_per_sec, partition.plan_ms"},
	{Name: "avs.scope_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_sec on the same workload"},
	{Name: "avs.attempts_per_edge", Unit: "ratio", Better: "lower", Moves: "edges_per_sec on batch-dense"},
	{Name: "avs.allocs_per_scope", Unit: "count", Better: "lower", Moves: "alloc_bytes_per_edge"},
	{Name: "avs.peak_worker_kib", Unit: "KiB", Better: "lower", Moves: "peak_rss_mb"},

	{Name: "partition.plan_ms", Unit: "ms", Better: "lower", Moves: "edges_per_sec (serial fraction), server.first_byte_p50_ms"},
	{Name: "partition.plan_share", Unit: "ratio", Better: "lower", Moves: "edges_per_sec"},
	{Name: "partition.range_skew", Unit: "ratio", Better: "lower", Moves: "edges_per_sec (caps W-worker speed-up)"},

	{Name: "gformat.tsv_write_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_sec on store-cycle, stream-http"},
	{Name: "gformat.adj6_write_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_sec on swarm-2w, dist-2w, community-k4"},
	{Name: "gformat.csr6_write_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "none of the workloads (CSR6 is not streamed)"},
	{Name: "gformat.tsv_read_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "core.check_part_mb_per_s"},
	{Name: "gformat.adj6_read_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_sec on swarm-2w (scan verification)"},
	{Name: "gformat.write_allocs_per_scope", Unit: "count", Better: "lower", Moves: "alloc_bytes_per_edge"},

	{Name: "core.plan_s", Unit: "s", Better: "lower", Moves: "edges_per_sec"},
	{Name: "core.draw_s", Unit: "s", Better: "lower", Moves: "edges_per_sec"},
	{Name: "core.sink_s", Unit: "s", Better: "lower", Moves: "edges_per_sec on store-cycle"},
	{Name: "core.draw_share", Unit: "ratio", Better: "higher", Moves: "edges_per_sec"},
	{Name: "core.seq_edges_per_sec", Unit: "edges/s", Better: "higher", Moves: "edges_per_sec on batch-*"},
	{Name: "core.scaling_efficiency", Unit: "ratio", Better: "higher", Moves: "edges_per_sec on batch-*"},
	{Name: "core.file_sink_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_sec on store-cycle"},
	{Name: "core.check_part_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "edges_per_sec on swarm-2w, store-cycle"},
	{Name: "core.manifest_ms", Unit: "ms", Better: "lower", Moves: "edges_per_sec and store.warm_call_p50_ms on store-cycle"},

	{Name: "store.ingest_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "edges_per_sec on store-cycle"},
	{Name: "store.ingest_share", Unit: "ratio", Better: "lower", Moves: "edges_per_sec on store-cycle"},
	{Name: "store.retrieve_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "store.warm_call_p50_ms on store-cycle"},
	{Name: "store.verify_mb_per_s", Unit: "MB/s", Better: "higher", Moves: "store.warm_call_p50_ms on store-cycle"},
	{Name: "store.hit_share", Unit: "ratio", Better: "higher", Moves: "store.warm_call_p50_ms on store-cycle"},
	{Name: "store.cache_hit_edges_per_sec", Unit: "edges/s", Better: "higher", Moves: "the warm calls of store-cycle: no end-to-end metric (demoted for spread)"},
	{Name: "store.warm_call_p50_ms", Unit: "ms", Better: "lower", Moves: "the warm calls of store-cycle: no end-to-end metric (demoted for spread)"},

	{Name: "server.stream_range_edges_per_sec", Unit: "edges/s", Better: "higher", Moves: "edges_per_sec on stream-http"},
	{Name: "server.pipeline_overhead", Unit: "ratio", Better: "lower", Moves: "edges_per_sec on stream-http"},
	{Name: "server.http_overhead", Unit: "ratio", Better: "lower", Moves: "edges_per_sec on stream-http"},
	{Name: "server.job_p90_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms on stream-http"},
	{Name: "server.first_byte_p50_ms", Unit: "ms", Better: "lower", Moves: "job_p50_ms on stream-http"},
	{Name: "server.rejected_share", Unit: "ratio", Better: "lower", Moves: "edges_per_sec on stream-http"},

	{Name: "swarm.makespan_s", Unit: "s", Better: "lower", Moves: "edges_per_sec on swarm-2w"},
	{Name: "swarm.overhead_vs_batch", Unit: "ratio", Better: "lower", Moves: "edges_per_sec on swarm-2w"},
	{Name: "swarm.epochs_max", Unit: "count", Better: "lower", Moves: "edges_per_sec on swarm-2w"},
	{Name: "swarm.lost_parts", Unit: "count", Better: "lower", Moves: "edges_per_sec on swarm-2w"},
	{Name: "swarm.idle_s", Unit: "s", Better: "lower", Moves: "edges_per_sec on swarm-2w"},

	{Name: "dist.makespan_s", Unit: "s", Better: "lower", Moves: "edges_per_sec on dist-2w"},
	{Name: "dist.overhead_vs_batch", Unit: "ratio", Better: "lower", Moves: "edges_per_sec on dist-2w"},
	{Name: "dist.gate_ms", Unit: "ms", Better: "lower", Moves: "edges_per_sec on dist-2w"},
	{Name: "dist.plan_ms", Unit: "ms", Better: "lower", Moves: "edges_per_sec on dist-2w"},
	{Name: "dist.requeues", Unit: "count", Better: "lower", Moves: "edges_per_sec on dist-2w"},

	{Name: "community.layout_ms", Unit: "ms", Better: "lower", Moves: "edges_per_sec on community-k4"},
	{Name: "community.block_skew", Unit: "ratio", Better: "lower", Moves: "edges_per_sec on community-k4"},
	{Name: "community.attempts_per_edge", Unit: "ratio", Better: "lower", Moves: "edges_per_sec on community-k4"},
	{Name: "erv.scope_ns_per_edge", Unit: "ns/edge", Better: "lower", Moves: "edges_per_sec on community-k4"},

	{Name: "telemetry.observe_overhead_share", Unit: "ratio", Better: "lower", Moves: "edges_per_sec on stream-http, swarm-2w, dist-2w"},

	{Name: "bench.trace_overhead_share", Unit: "ratio", Better: "lower", Moves: "nothing: the cost of the bench's own spans"},
	{Name: "bench.root_self_share", Unit: "ratio", Better: "lower", Moves: "nothing: wall no layer span accounts for"},
}

// median returns the middle of xs (mean of the two middles for an even
// count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile as Python's
// statistics.quantiles(xs, n=4) computes them (the exclusive method),
// which is what the acceptance procedure for this benchmark uses. Fewer
// than two values have no spread: both quartiles are the value itself.
func quartiles(xs []float64) (q1, q3 float64) {
	n := len(xs)
	if n < 2 {
		return median(xs), median(xs)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(i int) float64 { // quantile i/4
		j := i * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// percentile returns the p-quantile (0..1) of xs by nearest rank.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// spread is the interquartile distance as a share of the median.
func spread(xs []float64) float64 {
	m := median(xs)
	if m == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return math.Abs((q3 - q1) / m)
}
