package main

// catalogEntry is one named metric. For a per-layer metric, moves
// states, before anything is measured, which end-to-end metric on which
// workload a change in it should move; for an end-to-end metric it is
// the metric's definition.
type catalogEntry struct {
	name, unit, moves string
}

// endToEnd metrics are reported by --trace 0 on every workload. A
// served workload's request is one chunk POST and its answer the 200
// ack; offline-detect's request is one training run handed to
// core.Detect and its answer the complete Detection. ack_p99_ms, the
// 99th percentile within each pass and the median over passes, is
// measured on every run too but goes to provenance: on the 2-vCPU VM
// it was tuned on, its quartile spread over ten runs reached 0.38-0.53
// of its median on cluster-durable, above the 0.25 regression bound,
// so it cannot gate a change.
var endToEnd = []catalogEntry{
	{"events_per_s", "1/s", "events carried to an answer per wall second"},
	{"ack_p50_ms", "ms", "median request-to-answer latency"},
	{"detect_s", "s", "median wall time of one pass over the workload's whole input set to its last answer"},
	{"setup_s", "s", "median time from process launch until every process answers ready"},
	{"mem_peak_mb", "MB", "summed peak resident memory (VmHWM) of the serving or detecting processes"},
}

const (
	onStream  = "events_per_s, ack_p50_ms on stream-ephemeral; less on cluster-durable; none on offline-detect"
	onMem     = "mem_peak_mb on stream-ephemeral and cluster-durable"
	onStreamE = "events_per_s on stream-ephemeral (the wavelet filter and partition also run offline: read detect_s on offline-detect too)"
	onCkpt    = "ack_p99_ms on cluster-durable"
	onRequest = "ack_p50_ms on cluster-durable"
	onDurable = "ack_p50_ms, ack_p99_ms on cluster-durable; absent (0) on stream-ephemeral"
	onPhase   = "ack_p50_ms on cluster-durable only"
	onReplica = "mem_peak_mb, failed_ratio on cluster-durable when the replication queue overflows"
	onOffline = "detect_s on offline-detect only"
	onBench   = "none: a property of the benchmark itself"
)

// perLayer metrics are reported by --trace 1 on every workload. A layer
// a workload bypasses reports 0.
var perLayer = []catalogEntry{
	{"reuse.approx_ns_per_access", "ns", onStream},
	{"reuse.share_of_detect", "ratio", onStream},
	{"reuse.live_peak", "count", onMem},
	{"reuse.buckets_peak", "count", onMem},
	{"reuse.evictions", "count", onStream},
	{"reuse.exact_ns_per_access", "ns", onOffline},

	{"online.detect_ns_per_event", "ns", onStreamE},
	{"online.filtered_ratio", "ratio", onStreamE},
	{"online.shed_ratio", "ratio", onStreamE},
	{"online.boundaries", "count", onStreamE},
	{"online.allocs_per_event", "count", onStreamE},
	{"online.snapshot_ms_p50", "ms", onCkpt},
	{"online.snapshot_bytes", "bytes", onCkpt},

	{"trace.decode_ns_per_event", "ns", onRequest},
	{"trace.wire_bytes_per_event", "bytes", onRequest},
	{"trace.allocs_per_chunk", "count", onRequest},

	{"durable.append_us_per_chunk", "us", onDurable},
	{"durable.wal_bytes_per_event", "bytes", onDurable},
	{"durable.checkpoint_ms_p50", "ms", onDurable},
	{"durable.checkpoints", "count", onDurable},

	{"phase.consume_ns_per_event", "ns", onPhase},
	{"phase.events", "count", onPhase},

	{"replica.enqueued", "count", onReplica},
	{"replica.dropped", "count", onReplica},
	{"replica.lag_ms_p50", "ms", onReplica},
	{"replica.lag_ms_p99", "ms", onReplica},

	{"server.handle_self_us_p50", "us", onRequest},
	{"server.retries", "count", onRequest},
	{"cluster.route_self_us_p50", "us", onRequest},

	{"workload.gen_s", "s", onOffline},
	{"reuse.exact_s", "s", onOffline},
	{"sampling.s", "s", onOffline},
	{"sampling.samples", "count", onOffline},
	{"core.filter_s", "s", onOffline + " (the online detector runs the same wavelet filter: read stream-ephemeral too)"},
	{"core.filtered", "count", onOffline},
	{"phasedet.partition_s", "s", onOffline + " (phasedet.Partition also runs online: read stream-ephemeral too)"},
	{"phasedet.boundaries", "count", onOffline},
	{"marker.select_s", "s", onOffline},
	{"regexphase.hierarchy_s", "s", onOffline},

	{"bench.accounted_ratio", "ratio", onBench},
	{"bench.trace_overhead_ratio", "ratio", onBench},
	{"bench.traced_events_per_s", "1/s", onBench},
	{"bench.untraced_events_per_s", "1/s", onBench},
}

// accountTolerance bounds the traced run's accounting check: on
// offline-detect the stage times must sum to within this share of the
// composed path's time, and on served workloads the replayed layers may
// exceed the node handler spans by at most this share.
const accountTolerance = 0.15

// coverFloor is the least share of the node handler spans the replayed
// layers must account for on served workloads. The rest is the node's
// own HTTP, session and queueing work, which the replay does not run.
const coverFloor = 0.5

// zeroMetrics returns every per-layer metric set to 0, for a workload
// to overwrite the layers it exercises.
func zeroMetrics() map[string]float64 {
	m := make(map[string]float64, len(perLayer))
	for _, e := range perLayer {
		m[e.name] = 0
	}
	return m
}
