package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
)

// metricDef declares one reported metric. The tables below are the single
// source of the metric vocabulary: BENCHMARK.json must list the same names
// and units (TestBenchmarkJSONMatchesTables checks it).
type metricDef struct {
	Name, Unit, Better string
}

// endToEnd metrics are printed by every workload on an untraced run. Each
// has one meaning per workload (see README.md); none is ever zero.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"peak_rss_MB", "MB", "lower"},
	{"msgs_per_s", "msgs/s", "higher"},
	{"op_ms", "ms", "lower"},
}

// perLayer metrics are printed by every workload on a traced run; a layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	// The workload's own headline numbers under the names of the issue that
	// defined the benchmark, taken from the untraced half of a traced run.
	{"failed_frac", "ratio", "lower"},
	{"wire_msgs_per_s", "msgs/s", "higher"},
	{"wire_lat_p50_us", "us", "lower"},
	{"wire_lat_p99_us", "us", "lower"},
	{"wire_B_per_msg", "B", "lower"},
	{"bcast_s", "s", "lower"},
	{"node_msgs_per_s", "msgs/s", "higher"},
	{"live_stretch", "ratio", "lower"},
	{"sim_msgs_per_s", "msgs/s", "higher"},
	{"analysis_s", "s", "lower"},

	{"graph.gen_s", "s", "lower"},
	{"cut.conductance_s", "s", "lower"},
	{"cut.ladder_levels", "count", "lower"},
	{"sim.self_s", "s", "lower"},
	{"sim.rounds", "count", "lower"},
	{"sim.msgs", "count", "lower"},
	{"core.handler_calls", "count", "lower"},
	{"core.handler_ns", "ns", "lower"},
	{"core.handler_s", "s", "lower"},
	{"live.run.ticks", "count", "lower"},
	{"live.run.extra_ticks", "count", "lower"},
	{"live.run.tick_ms", "ms", "lower"},
	{"live.run.informed_p50_ms", "ms", "lower"},
	{"live.run.informed_p99_ms", "ms", "lower"},
	{"live.run.sink_ns", "ns", "lower"},
	{"live.run.mailbox_shed", "count", "lower"},
	{"live.run.setup_s", "s", "lower"},
	{"live.run.other_cpu_s", "s", "lower"},
	{"live.stream.send_ns", "ns", "lower"},
	{"live.stream.transit_p50_us", "us", "lower"},
	{"live.stream.transit_p99_us", "us", "lower"},
	{"live.stream.msgs_per_frame", "msgs", "higher"},
	{"live.stream.msgs_per_flush", "msgs", "higher"},
	{"live.stream.wire_B_per_msg", "B", "lower"},
	{"live.stream.retransmits", "count", "lower"},
	{"live.stream.dups_suppressed", "count", "lower"},
	{"live.stream.dropped", "count", "lower"},
	{"live.stream.shed", "count", "lower"},
	{"live.stream.useful_frac", "ratio", "higher"},
	{"live.stream.drain_ms", "ms", "lower"},
	{"live.stream.drain_clean", "ratio", "higher"},
	{"go.cpu_util", "ratio", "higher"},
	{"go.allocs_per_msg", "count", "lower"},
	{"go.alloc_B_per_msg", "B", "lower"},
	{"go.gc_cycles", "count", "lower"},
	{"go.gc_cpu_frac", "ratio", "lower"},
	{"bench.gen_late_p99_us", "us", "lower"},
	{"bench.trace_overhead_pct", "%", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// newResult fills every metric of defs from vals; a name missing from vals
// is a bug in a workload and is reported as an error.
func newResult(defs []metricDef, vals map[string]float64, attempted, failed int64, correct bool) (result, error) {
	r := result{Correct: correct, Attempted: attempted, Failed: failed, Metrics: make(map[string]metricValue, len(defs))}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return r, fmt.Errorf("metric %s not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return r, fmt.Errorf("metric %s is %v", d.Name, v)
		}
		r.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return r, nil
}

// writeResult prints one "name value unit" line per metric, sorted, and
// then the result object as the final line.
func writeResult(w io.Writer, r result) error {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Fprintf(w, "metric %-28s %14.6g %s\n", n, m.Value, m.Unit)
	}
	b, err := json.Marshal(r)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// quantile returns the q-quantile (0..1) of sorted xs by linear
// interpolation between closest ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// median sorts a copy of xs and returns its middle value.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return quantile(s, 0.5)
}

// tailLadder lists the tail percentiles a timing may report, highest first.
var tailLadder = []float64{99.9, 99, 90, 75, 50}

// tailPercentile applies the benchmark's tail rule: the highest percentile
// of tailLadder, capped at limit, that leaves at least ten of n samples
// beyond it. ok is false when even the median leaves fewer than ten.
func tailPercentile(n int, limit float64) (p float64, ok bool) {
	for _, p := range tailLadder {
		if p > limit {
			continue
		}
		if float64(n)*(100-p)/100 >= 10-1e-9 { // tolerate 100-99.9 rounding
			return p, true
		}
	}
	return 0, false
}

// tail returns the tail-rule percentile of the samples (sorted in place)
// capped at limit, with the percentile used; with too few samples it falls
// back to the maximum and reports p = 100.
func tail(xs []float64, limit float64) (v, p float64) {
	if len(xs) == 0 {
		return 0, 0
	}
	sort.Float64s(xs)
	p, ok := tailPercentile(len(xs), limit)
	if !ok {
		return xs[len(xs)-1], 100
	}
	return quantile(xs, p/100), p
}
