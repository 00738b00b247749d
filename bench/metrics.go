package main

// metric describes one reported number. The two tables are the benchmark's
// side of BENCHMARK.json: the tests check that the file lists exactly these
// names, units, directions and bounds.
type metric struct {
	name string
	unit string
	// better is "higher" or "lower".
	better string
	// bound is the share of the baseline median by which the metric may
	// worsen before compare calls it a regression (end-to-end only).
	bound float64
	// kind is "host", "sim" or "count" (per-layer metrics only): host
	// values are timed, sim and count values are read from the simulation
	// and repeat exactly for a seed.
	kind string
	// moves names the end-to-end metric and workload a change to the layer
	// should move (per-layer metrics only).
	moves string
}

// endToEnd are the numbers a user of the generator sees, measured with
// tracing off. Host times are in reference seconds (see kernel.go). The
// bounds leave room for what ten 20-second passes with different seeds
// spread (IQR over median) on a shared 2-vCPU host: up to 9.5% for the host
// times of pooled and lazy, which fit only 8-16 reps a pass, under 5% for
// the allocation metrics and under 2.5% for the live heap. setup_s, the
// set-up time no later change may grow unnoticed, has the widest bound.
var endToEnd = []metric{
	{name: "ops_per_s", unit: "ops/s", better: "higher", bound: 0.20},
	{name: "wall_s", unit: "s", better: "lower", bound: 0.20},
	{name: "setup_s", unit: "s", better: "lower", bound: 0.25},
	{name: "allocs_per_op", unit: "allocs/op", better: "lower", bound: 0.15},
	{name: "alloc_bytes_per_op", unit: "B/op", better: "lower", bound: 0.15},
	{name: "heap_live_mb", unit: "MB", better: "lower", bound: 0.10},
}

// rawSuffix marks the uncalibrated twin of a host-time metric. Raw values
// are printed and stored for diagnosis, never gated.
const rawSuffix = "_raw"

// perLayer are the traced pass's numbers, one or more per layer an op
// passes through.
var perLayer = []metric{
	{name: "gds.build_ms", unit: "ms", better: "lower", kind: "host", moves: "setup_s, all workloads (small)"},
	{name: "dist.sample_ns", unit: "ns", better: "lower", kind: "host", moves: "ops_per_s on local"},
	{name: "fsc.build_ns_per_op", unit: "ns/op", better: "lower", kind: "host", moves: "setup_s on pooled; ops_per_s and wall_s on lazy"},
	{name: "fsc.build_ops", unit: "count", better: "lower", kind: "count", moves: "setup_s on pooled; ops_per_s and wall_s on lazy"},
	{name: "fsc.users_built", unit: "count", better: "lower", kind: "count", moves: "setup_s on pooled; ops_per_s and wall_s on lazy"},
	{name: "core.setup_other_ms", unit: "ms", better: "lower", kind: "host", moves: "setup_s on pooled"},
	{name: "core.warm_ops", unit: "count", better: "lower", kind: "count", moves: "setup_s on pooled"},
	{name: "usim.sessions", unit: "count", better: "higher", kind: "count", moves: "denominator, pinned by the digest"},
	{name: "usim.ops", unit: "count", better: "higher", kind: "count", moves: "denominator, pinned by the digest"},
	{name: "usim.errors", unit: "count", better: "lower", kind: "count", moves: "denominator, pinned by the digest"},
	{name: "trace.fold_ns", unit: "ns", better: "lower", kind: "host", moves: "ops_per_s on contention, pooled, lazy"},
	{name: "trace.append_ns", unit: "ns", better: "lower", kind: "host", moves: "ops_per_s, wall_s and heap_live_mb on local"},
	{name: "trace.analyze_ns", unit: "ns", better: "lower", kind: "host", moves: "ops_per_s, wall_s and heap_live_mb on local"},
	{name: "vfs.memfs_ns", unit: "ns", better: "lower", kind: "host", moves: "ops_per_s on local"},
	{name: "vfs.local_hit_ratio", unit: "ratio", better: "higher", kind: "sim", moves: "none, pinned by the digest"},
	{name: "sim.event_ns", unit: "ns", better: "lower", kind: "host", moves: "ops_per_s on contention and pooled"},
	{name: "sim.virtual_s", unit: "s", better: "lower", kind: "sim", moves: "none, pinned by the digest"},
	{name: "netsim.transfer_ns", unit: "ns", better: "lower", kind: "host", moves: "ops_per_s on contention"},
	{name: "netsim.messages", unit: "count", better: "lower", kind: "count", moves: "ops_per_s on contention"},
	{name: "netsim.bytes", unit: "B", better: "lower", kind: "count", moves: "ops_per_s on contention"},
	{name: "netsim.util", unit: "ratio", better: "lower", kind: "sim", moves: "none, pinned by the digest"},
	{name: "netsim.blocked_us", unit: "us", better: "lower", kind: "sim", moves: "none, pinned by the digest"},
	{name: "nfs.server_calls", unit: "count", better: "lower", kind: "count", moves: "ops_per_s on contention, pooled, lazy"},
	{name: "nfs.server_data_calls", unit: "count", better: "lower", kind: "count", moves: "ops_per_s on contention, pooled, lazy"},
	{name: "nfs.nfsd_util", unit: "ratio", better: "lower", kind: "sim", moves: "none, pinned by the digest"},
	{name: "nfs.nfsd_wait_us", unit: "us", better: "lower", kind: "sim", moves: "none, pinned by the digest"},
	{name: "nfs.client_rpcs", unit: "count", better: "lower", kind: "count", moves: "ops_per_s on pooled, lazy"},
	{name: "nfs.client_flushes", unit: "count", better: "lower", kind: "count", moves: "ops_per_s on pooled, lazy"},
	{name: "cache.access_ns", unit: "ns", better: "lower", kind: "host", moves: "ops_per_s on contention"},
	{name: "cache.server_hit_ratio", unit: "ratio", better: "higher", kind: "sim", moves: "none, pinned by the digest"},
	{name: "cache.client_hit_ratio", unit: "ratio", better: "higher", kind: "sim", moves: "none, pinned by the digest"},
	{name: "disk.access_ns", unit: "ns", better: "lower", kind: "host", moves: "ops_per_s on contention"},
	{name: "attrib.explained_share", unit: "ratio", better: "higher", kind: "host", moves: "diagnostic"},
	{name: "mem.heap_peak_mb", unit: "MB", better: "lower", kind: "host", moves: "heap_live_mb on lazy"},
	{name: "trace.span_overhead", unit: "ratio", better: "lower", kind: "host", moves: "must stay at most 0.02"},
}
