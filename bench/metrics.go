package main

// metricKind says where a metric is reported.
type metricKind int

const (
	// endToEnd metrics are printed by every workload's untraced run and
	// listed under end_to_end in BENCHMARK.json, with their bounds.
	endToEnd metricKind = iota
	// recordOnly metrics are end-to-end metrics that go to the run
	// record (and so to -compare, with their bounds) but not to the
	// result line, which carries the same steady set on every workload:
	// those one workload alone has, and max_rss_mb, which spreads too
	// widely on some workloads to gate on (see README).
	recordOnly
	// layer metrics are printed by every workload's traced run and
	// listed under per_layer in BENCHMARK.json. A layer the workload's
	// path never reaches reads 0.
	layer
	// layerCost metrics are per-unit layer costs of the traced run. They
	// go to the run record only, because a unit cost has no value on a
	// workload that never reaches the layer.
	layerCost
)

// metricDef is one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	// Bound is the share of the parent's median by which the metric may
	// worsen before -compare calls it a regression (end-to-end only).
	Bound float64
	Kind  metricKind
}

func (m metricDef) higherIsBetter() bool { return m.Better == "higher" }

// metricTable is every metric the benchmark reports. BENCHMARK.json
// mirrors the endToEnd and layer rows; a test keeps the two in step.
var metricTable = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25, Kind: endToEnd},
	{Name: "realtime_x", Unit: "x", Better: "higher", Bound: 0.25, Kind: endToEnd},

	{Name: "max_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25, Kind: recordOnly},
	{Name: "chunk_p50_us", Unit: "us", Better: "lower", Bound: 0.25, Kind: recordOnly},
	{Name: "chunk_p99_us", Unit: "us", Better: "lower", Bound: 0.25, Kind: recordOnly},
	{Name: "frame_latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: recordOnly},
	{Name: "frame_latency_p99_ms", Unit: "ms", Better: "lower", Bound: 0.25, Kind: recordOnly},
	{Name: "goodput_bps", Unit: "bit/s", Better: "higher", Bound: 0, Kind: recordOnly},

	{Name: "dsp.frontend.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "core.hunt.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "core.select.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "core.gate.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "core.decode.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "core.hunt.fastpath_share", Unit: "share", Better: "higher", Kind: layer},
	{Name: "core.lock.per_msample", Unit: "1/Msample", Better: "lower", Kind: layer},
	{Name: "core.decode.frames_per_lock", Unit: "ratio", Better: "higher", Kind: layer},
	{Name: "core.gate.lag_samples_p50", Unit: "samples", Better: "lower", Kind: layer},
	{Name: "link.stack.allocs_per_chunk", Unit: "count", Better: "lower", Kind: layer},
	{Name: "stream.ingest.wait_share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "reliable.session.self_share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "reliable.session.retransmit_share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "link.downlink.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "core.encode.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "zigbee.modulate.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "zigbee.modulate.repeat_share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "channel.faults.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "channel.faults.drop_share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "wifi.phases.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "link.uplink.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "reliable.coded.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "reliable.coded.calls_per_frame", Unit: "ratio", Better: "lower", Kind: layer},
	{Name: "arq.shadow_coverage", Unit: "ratio", Better: "higher", Kind: layer},
	{Name: "medium.engine.share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "medium.engine.peak_overlap", Unit: "count", Better: "lower", Kind: layer},
	{Name: "runtime.alloc_mb_per_air_s", Unit: "MB/s", Better: "lower", Kind: layer},
	{Name: "runtime.gc.cpu_share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "trace.coverage", Unit: "share", Better: "higher", Kind: layer},
	{Name: "trace.overhead_share", Unit: "share", Better: "lower", Kind: layer},
	{Name: "trace.realtime_x", Unit: "x", Better: "higher", Kind: layer},

	{Name: "dsp.frontend.ns_per_sample", Unit: "ns", Better: "lower", Kind: layerCost},
	{Name: "core.hunt.ns_per_sample", Unit: "ns", Better: "lower", Kind: layerCost},
	{Name: "core.select.us_per_lock", Unit: "us", Better: "lower", Kind: layerCost},
	{Name: "core.decode.us_per_attempt", Unit: "us", Better: "lower", Kind: layerCost},
	{Name: "reliable.session.self_us_per_frame", Unit: "us", Better: "lower", Kind: layerCost},
	{Name: "link.downlink.us_per_frame", Unit: "us", Better: "lower", Kind: layerCost},
	{Name: "core.encode.us_per_frame", Unit: "us", Better: "lower", Kind: layerCost},
	{Name: "zigbee.modulate.us_per_frame", Unit: "us", Better: "lower", Kind: layerCost},
	{Name: "channel.faults.us_per_frame", Unit: "us", Better: "lower", Kind: layerCost},
	{Name: "wifi.phases.us_per_frame", Unit: "us", Better: "lower", Kind: layerCost},
	{Name: "link.uplink.us_per_frame", Unit: "us", Better: "lower", Kind: layerCost},
	{Name: "reliable.coded.us_per_call", Unit: "us", Better: "lower", Kind: layerCost},
	{Name: "runtime.alloc_mb_per_frame", Unit: "MB", Better: "lower", Kind: layerCost},
	{Name: "medium.engine.ns_per_sample", Unit: "ns", Better: "lower", Kind: layerCost},
	{Name: "medium.rx.ns_per_sample", Unit: "ns", Better: "lower", Kind: layerCost},
}

// metricByName indexes metricTable.
var metricByName = func() map[string]metricDef {
	m := make(map[string]metricDef, len(metricTable))
	for _, d := range metricTable {
		m[d.Name] = d
	}
	return m
}()

// metricsOfKind returns the table rows of one kind, in table order.
func metricsOfKind(k metricKind) []metricDef {
	var out []metricDef
	for _, d := range metricTable {
		if d.Kind == k {
			out = append(out, d)
		}
	}
	return out
}
