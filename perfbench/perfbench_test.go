package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"

	"gossip/internal/live"
)

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n     int
		limit float64
		want  float64
		ok    bool
	}{
		{10000, 100, 99.9, true}, // exactly 10 samples beyond p99.9
		{9999, 100, 99, true},    // 9.999 beyond p99.9 is too few
		{1000, 100, 99, true},
		{999, 100, 90, true},
		{100, 100, 90, true},
		{99, 100, 75, true},
		{20, 100, 50, true},
		{19, 100, 0, false},
		{1_000_000, 99, 99, true}, // the cap holds however many samples
	}
	for _, c := range cases {
		got, ok := tailPercentile(c.n, c.limit)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d, %v) = %v, %v; want %v, %v", c.n, c.limit, got, ok, c.want, c.ok)
		}
	}
	xs := make([]float64, 1000)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i)
	}
	if v, p := tail(xs, 99); p != 99 || math.Abs(v-989.01) > 1e-9 {
		t.Errorf("tail of 0..999 = %v at p%v, want 989.01 at p99", v, p)
	}
	if v, p := tail([]float64{3, 1, 2}, 99); v != 3 || p != 100 {
		t.Errorf("tail of 3 samples = %v at p%v, want the maximum at p100", v, p)
	}
}

// parseLastResult decodes the final non-empty line of out as a result.
func parseLastResult(out string) (result, error) {
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	var r result
	err := json.Unmarshal([]byte(lines[len(lines)-1]), &r)
	return r, err
}

var metricNameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// validName reports whether s is an acceptable metric or workload name:
// it starts with a letter or digit and uses only [A-Za-z0-9_.-], at most 64.
func validName(s string) bool { return metricNameRE.MatchString(s) }

var unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !validName(d.Name) {
			t.Errorf("metric name %q outside [A-Za-z0-9_.-]", d.Name)
		}
		if seen[d.Name] {
			t.Errorf("metric name %q used twice", d.Name)
		}
		seen[d.Name] = true
		if !unitRE.MatchString(d.Unit) {
			t.Errorf("metric %s: bad unit %q", d.Name, d.Unit)
		}
		if d.Better != "lower" && d.Better != "higher" {
			t.Errorf("metric %s: better = %q", d.Name, d.Better)
		}
	}
	for _, bad := range []string{"", "_x", ".x", "a b", "a/b", "µs", strings.Repeat("a", 65)} {
		if validName(bad) {
			t.Errorf("validName(%q) = true", bad)
		}
	}
	for _, good := range []string{"setup_s", "live.stream.send_ns", "a-b.c_d", "9lives", strings.Repeat("a", 64)} {
		if !validName(good) {
			t.Errorf("validName(%q) = false", good)
		}
	}
}

func TestLedgerFailureCounting(t *testing.T) {
	l := newLedger(10)
	deliver := func(i int) { l.deliver(live.Message{SentTick: i}, 0) }
	l.sent.Store(10)
	for i := 0; i < 10; i++ {
		if i != 7 {
			deliver(i)
		}
	}
	deliver(3)         // duplicate
	deliver(probeTick) // the connection probe is not a message of the phase
	var out outcome
	l.judge(&out, "T")
	if out.attempted != 10 || out.failed != 2 || out.wrong {
		t.Fatalf("one missing, one duplicate: attempted %d failed %d wrong %v; want 10, 2, false", out.attempted, out.failed, out.wrong)
	}
	deliver(12) // never sent
	out = outcome{}
	l.judge(&out, "T")
	if out.failed != 3 || !out.wrong {
		t.Fatalf("with a stray delivery: failed %d wrong %v; want 3, true", out.failed, out.wrong)
	}
	if len(out.problems) != 3 {
		t.Errorf("problems = %q, want one line per failed check", out.problems)
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{Name: "iteration", ID: 1, Start: 0, End: 100},
		{Name: "live.Run", ID: 2, Parent: 1, Start: 10, End: 30},
		{Name: "live.Run", ID: 3, Parent: 1, Start: 20, End: 50}, // overlaps its sibling
		{Name: "graph", ID: 4, Parent: 1, Start: 90, End: 120},   // runs past its parent
		{Name: "live.stream.send", ID: 5, Parent: 2, Start: 12, End: 14},
	}
	got := selfTimes(spans)
	want := map[string]int64{
		"iteration":        100 - 40 - 10, // children cover [10,50) and [90,100)
		"live.Run":         (20 - 2) + 30,
		"graph":            30,
		"live.stream.send": 2,
	}
	for k, v := range want {
		if got[k] != v {
			t.Errorf("self(%s) = %d, want %d", k, got[k], v)
		}
	}
}

func TestSampledShare(t *testing.T) {
	n := 0
	for i := 0; i < 1<<20; i++ {
		if (msgKey{from: i % 7, edge: i % 1013, sentTick: i, kind: live.MsgRequest}).sampled() {
			n++
		}
	}
	if n < 700 || n > 1400 {
		t.Errorf("%d of 2^20 keys sampled, want about 1024", n)
	}
}

func TestResultRoundTrip(t *testing.T) {
	vals := map[string]float64{"setup_s": 0.8127, "peak_rss_MB": 51.5, "msgs_per_s": 1.25e6, "op_ms": 1.2034}
	r, err := newResult(endToEnd, vals, 1000, 0, true)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := writeResult(&buf, r); err != nil {
		t.Fatal(err)
	}
	back, err := parseLastResult(buf.String())
	if err != nil {
		t.Fatal(err)
	}
	if back.Correct != true || back.Attempted != 1000 || back.Failed != 0 || len(back.Metrics) != len(endToEnd) {
		t.Fatalf("round trip gave %+v", back)
	}
	for k, v := range vals {
		if back.Metrics[k].Value != v {
			t.Errorf("%s = %v, want %v", k, back.Metrics[k].Value, v)
		}
	}
	var keys map[string]json.RawMessage
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &keys); err != nil || len(keys) != 4 {
		t.Errorf("last line has keys %v (%v), want exactly correct, attempted, failed, metrics", keys, err)
	}
	delete(vals, "op_ms")
	if _, err := newResult(endToEnd, vals, 1, 0, true); err == nil {
		t.Error("a missing metric was not reported")
	}
	vals["op_ms"] = math.NaN()
	if _, err := newResult(endToEnd, vals, 1, 0, true); err == nil {
		t.Error("a NaN metric was not reported")
	}
}

// TestBenchmarkJSONMatchesTables keeps BENCHMARK.json and the metric tables
// the program prints from in step.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.EndToEnd) != len(endToEnd) || len(doc.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d+%d metrics, the tables %d+%d", len(doc.EndToEnd), len(doc.PerLayer), len(endToEnd), len(perLayer))
	}
	var setupBound, maxBound float64
	for i, m := range doc.EndToEnd {
		if d := endToEnd[i]; m.Name != d.Name || m.Unit != d.Unit || m.Better != d.Better {
			t.Errorf("end_to_end[%d] = %+v, table has %+v", i, m, d)
		}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		maxBound = math.Max(maxBound, m.Bound)
		if m.Name == "setup_s" {
			setupBound = m.Bound
		}
	}
	if setupBound != maxBound {
		t.Errorf("setup_s bound %v is not the largest (%v)", setupBound, maxBound)
	}
	for i, m := range doc.PerLayer {
		if m != perLayer[i] {
			t.Errorf("per_layer[%d] = %+v, table has %+v", i, m, perLayer[i])
		}
	}
	for _, w := range doc.Workloads {
		if newWorkload(w.Name) == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "sim-theorem", "--trace", "2"},
		{"--workload", "sim-theorem", "--seconds", "0"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
			t.Errorf("run(%q) = %d with output %q; want a non-zero exit and no result", args, code, out.String())
		}
	}
}

// TestTracedRunEndToEnd drives the smallest workload through a traced run
// and checks the result line carries every per-layer metric.
func TestTracedRunEndToEnd(t *testing.T) {
	if testing.Short() {
		t.Skip("runs live broadcasts over loopback TCP")
	}
	var out, errb bytes.Buffer
	code := run([]string{"--workload", "bcast-paced", "--seed", "2", "--seconds", "0.2", "--trace", "1", "--span-dir", t.TempDir()}, &out, &errb)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, errb.String())
	}
	r, err := parseLastResult(out.String())
	if err != nil {
		t.Fatal(err)
	}
	// Loss on loopback (a failed operation) depends on how loaded the
	// machine is, under -race especially; a wrong output never does.
	if !r.Correct || r.Attempted == 0 {
		t.Fatalf("result %+v, stderr %s", r, errb.String())
	}
	for _, d := range perLayer {
		if _, ok := r.Metrics[d.Name]; !ok {
			t.Errorf("metric %s missing", d.Name)
		}
	}
	for _, name := range []string{"live.run.ticks", "core.handler_calls", "live.stream.send_ns", "live.run.sink_ns", "live_stretch", "cut.conductance_s", "cut.ladder_levels", "sim.rounds", "sim.msgs"} {
		if r.Metrics[name].Value <= 0 {
			t.Errorf("%s = %v, want it measured", name, r.Metrics[name].Value)
		}
	}
}
