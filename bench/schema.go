package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// metricDef names one metric with its unit and direction, as
// BENCHMARK.json declares it.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, measured with
// tracing off. Bounds live in BENCHMARK.json alone.
var endToEnd = []metricDef{
	{Name: "run_s", Unit: "s", Better: "lower"},
	{Name: "run_cpu_s", Unit: "s", Better: "lower"},
	{Name: "setup_s", Unit: "s", Better: "lower"},
	{Name: "allocs_per_run", Unit: "count", Better: "lower"},
	{Name: "alloc_mb_per_run", Unit: "MB", Better: "lower"},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower"},
}

// spanMetrics are the harness spans reported as mean wall seconds per
// call, keyed by span name.
var spanMetrics = []string{
	"harness.build", "harness.install", "fabric.run", "fabric.checkinv",
	"harness.readout", "core.sweep", "report.evaluate",
}

// countMetrics are the program's own counters, read after a run through
// public accessors. They are exact and repeat bit-for-bit; a workload that
// gives the harness no handle on a network (the sweep and the claims
// ledger) reports 0 for the ones it cannot read.
var countMetrics = []metricDef{
	{Name: "sim.cycles", Unit: "cy", Better: "lower"},
	{Name: "sim.fastforward_cy", Unit: "cy", Better: "higher"},
	{Name: "sim.ticks_compute", Unit: "count", Better: "lower"},
	{Name: "sim.ticks_delivery", Unit: "count", Better: "lower"},
	{Name: "sim.ticks_collect", Unit: "count", Better: "lower"},
	{Name: "sim.wakes_event", Unit: "count", Better: "lower"},
	{Name: "sim.wakes_timer", Unit: "count", Better: "lower"},
	{Name: "sim.wakes_spurious", Unit: "count", Better: "lower"},
	{Name: "sim.awake_mean_compute", Unit: "count", Better: "lower"},
	{Name: "sim.awake_mean_delivery", Unit: "count", Better: "lower"},
	{Name: "sim.timer_heap_max", Unit: "count", Better: "lower"},
	{Name: "sim.ticks_per_flit_hop", Unit: "ratio", Better: "lower"},
	{Name: "traffic.packets_created", Unit: "count", Better: "higher"},
	{Name: "noc.pool_gets", Unit: "count", Better: "higher"},
	{Name: "noc.pool_fresh", Unit: "count", Better: "lower"},
	{Name: "noc.pool_reuse_ratio", Unit: "ratio", Better: "higher"},
	{Name: "noc.pool_highwater", Unit: "count", Better: "lower"},
	{Name: "router.flit_hops", Unit: "count", Better: "higher"},
	{Name: "router.xbar_traversals", Unit: "count", Better: "higher"},
	{Name: "router.buffered_highwater", Unit: "count", Better: "lower"},
	{Name: "sbus.flits", Unit: "count", Better: "higher"},
	{Name: "sbus.busy_cy", Unit: "cy", Better: "lower"},
	{Name: "sbus.token_moves", Unit: "count", Better: "lower"},
	{Name: "sbus.credit_stall_cy", Unit: "cy", Better: "lower"},
	{Name: "sbus.util_max", Unit: "ratio", Better: "lower"},
	{Name: "sbus.token_moves_per_flit", Unit: "ratio", Better: "lower"},
	{Name: "power.elec_flits", Unit: "count", Better: "higher"},
	{Name: "power.phot_flits", Unit: "count", Better: "higher"},
	{Name: "power.wireless_flits", Unit: "count", Better: "higher"},
	{Name: "stats.packets_measured", Unit: "count", Better: "higher"},
	{Name: "stats.avg_latency_cy", Unit: "cy", Better: "lower"},
	{Name: "stats.throughput", Unit: "f/n/c", Better: "higher"},
	{Name: "probe.samples", Unit: "count", Better: "higher"},
	{Name: "probe.span_packets", Unit: "count", Better: "higher"},
	{Name: "probe.trace_events", Unit: "count", Better: "higher"},
	{Name: "flightrec.frames", Unit: "count", Better: "higher"},
	{Name: "check.violations", Unit: "count", Better: "lower"},
	{Name: "core.points", Unit: "count", Better: "higher"},
	{Name: "core.points_saturated", Unit: "count", Better: "lower"},
	{Name: "report.claims_passed", Unit: "count", Better: "higher"},
}

// derivedMetrics combine the traced pass with the untraced reference
// calls made in the same process.
var derivedMetrics = []metricDef{
	{Name: "fabric.sim_cycles_per_s", Unit: "cy/s", Better: "higher"},
	{Name: "fabric.host_ns_per_flit_hop", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "trace.profile_cpu_ratio", Unit: "ratio", Better: "higher"},
	{Name: "observer.overhead_ratio", Unit: "ratio", Better: "lower"},
	{Name: "core.cpu_utilization", Unit: "ratio", Better: "higher"},
}

// perLayer lists every per-layer metric in report order: host CPU time
// per layer from the profile, harness spans, derived ratios, exact
// counters, then the ladder.
func perLayer() []metricDef {
	var defs []metricDef
	for _, l := range profLayers {
		defs = append(defs, metricDef{Name: layerMetric(l), Unit: "s", Better: "lower"})
	}
	for _, s := range spanMetrics {
		defs = append(defs, metricDef{Name: s + "_s", Unit: "s", Better: "lower"})
	}
	defs = append(defs, derivedMetrics...)
	defs = append(defs, countMetrics...)
	for _, r := range ladder() {
		d := metricDef{Name: r.Name, Unit: "ns", Better: "lower"}
		if r.PerSecond {
			d.Unit, d.Better = "cy/s", "higher"
		}
		defs = append(defs, d)
	}
	return defs
}

// benchmarkFile is the part of BENCHMARK.json, at the repository root,
// that the harness reads: -compare takes the bounds from it, the tests hold
// the names against the harness's own.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

// repoRoot finds the directory holding BENCHMARK.json: the working
// directory when started through bench/run.sh, its parent under
// `go run .` or `go test` inside bench/.
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found in . or ..: run from the repository root or from bench/")
}

func loadBenchmarkFile() (*benchmarkFile, error) {
	root, err := repoRoot()
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}
