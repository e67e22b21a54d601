// Command perfbench is the repository benchmark. It drives the gossip code
// from outside, through the calls users make, on one workload per run:
//
//	perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// With --trace 0 it measures the end-to-end metrics with no tracing in the
// path. With --trace 1 it measures the same workload untraced for half the
// time and then traced for the other half, through wrappers defined in this
// package, and reports the per-layer ledger plus the tracing overhead. The
// last line of standard output is always one JSON object:
//
//	{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}
//
// See README.md for the workloads and what each metric is meant to move.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// workload is one benchmark input. A value lives for the whole process, so
// it may keep reference results from its first (warm-up) call to check the
// later ones against.
type workload interface {
	run(e env) (outcome, error)
}

// env is what one call of a workload measures under.
type env struct {
	seed    uint64
	seconds float64 // measuring time; 0 means a single (warm-up) iteration
	tr      *tracer // nil on untraced runs
}

// outcome is what one call of a workload measured. An operation fails when
// the program lost or refused work (a shed message, an unclean drain); an
// output is wrong when the program produced a result it must not (a
// duplicate delivery, an uninformed node, a run that differs from its
// same-seed twin). Wrong outputs also count as failed operations, and only
// they make a run incorrect.
type outcome struct {
	attempted, failed int64
	wrong             bool
	notes             []string           // lines for standard output
	problems          []string           // one line per failed check
	e2e               map[string]float64 // the endToEnd metrics
	named             map[string]float64 // the workload's headline metrics by issue name
	layer             map[string]float64 // per-layer metrics (traced calls only)
}

// fail counts n failed operations under one explanatory line.
func (o *outcome) fail(n int64, format string, args ...any) {
	o.failed += n
	if len(o.problems) < 20 {
		o.problems = append(o.problems, fmt.Sprintf(format, args...))
	}
}

// note records a line for standard output.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// incorrect counts n failed operations whose output was wrong.
func (o *outcome) incorrect(n int64, format string, args ...any) {
	o.wrong = true
	o.fail(n, "wrong output: "+format, args...)
}

// watchdog bounds a run that hangs despite the bounded waits inside.
const watchdog = 170 * time.Second

func newWorkload(name string) workload {
	switch name {
	case "wire-stream":
		return &wireStream{}
	case "bcast-bulk":
		return newBcast(bulkSpec)
	case "bcast-paced":
		return newBcast(pacedSpec)
	case "sim-theorem":
		return &simTheorem{}
	}
	return nil
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "wire-stream, bcast-bulk, bcast-paced or sim-theorem")
	seed := fs.Uint64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 10, "measuring time")
	trace := fs.Int("trace", 0, "1 = traced run reporting the per-layer ledger")
	spanDir := fs.String("span-dir", ".bench_build", "directory for the traced run's span file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w := newWorkload(*name)
	if w == nil || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *name, *seconds, *trace)
		return 2
	}
	time.AfterFunc(watchdog, func() {
		fmt.Fprintf(stderr, "perfbench: %s still running after %v\n", *name, watchdog)
		os.Exit(3)
	})
	host := hostInfo()
	fmt.Fprintf(stdout, "host nproc=%s gomaxprocs=%s go=%s cpu=%q link=%q\n",
		host["nproc"], host["gomaxprocs"], host["go"], host["cpu"], host["link"])

	// One untimed warm-up iteration: first runs in a process measured
	// 15–20% slow (lazy set-up, cold caches, heap growth).
	warm, err := w.run(env{seed: *seed})
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s warm-up: %v\n", *name, err)
		return 1
	}
	outs := []outcome{warm}
	var defs []metricDef
	vals := map[string]float64{}
	if *trace == 0 {
		out, err := w.run(env{seed: *seed, seconds: *seconds})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		outs = append(outs, out)
		defs = endToEnd
		for k, v := range out.e2e {
			vals[k] = v
		}
		printNamed(stdout, out.named)
	} else {
		plain, err := w.run(env{seed: *seed, seconds: *seconds / 2})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
			return 1
		}
		tr := newTracer()
		traced, err := w.run(env{seed: *seed, seconds: *seconds / 2, tr: tr})
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %s traced: %v\n", *name, err)
			return 1
		}
		outs = append(outs, plain, traced)
		defs = perLayer
		for _, d := range perLayer {
			vals[d.Name] = 0
		}
		for k, v := range traced.layer {
			vals[k] = v
		}
		for k, v := range plain.named {
			vals[k] = v
		}
		if a, b := plain.e2e["msgs_per_s"], traced.e2e["msgs_per_s"]; a > 0 && b > 0 {
			vals["bench.trace_overhead_pct"] = (a/b - 1) * 100
		}
		printNamed(stdout, plain.named)
		if err := os.MkdirAll(*spanDir, 0o755); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		path := filepath.Join(*spanDir, fmt.Sprintf("spans-%s-%d.json", *name, *seed))
		if err := tr.write(path, host); err != nil {
			fmt.Fprintf(stderr, "perfbench: write spans: %v\n", err)
			return 1
		}
		fmt.Fprintf(stdout, "spans %s\n", path)
	}

	var attempted, failed int64
	wrong := false
	for _, o := range outs {
		attempted += o.attempted
		failed += o.failed
		wrong = wrong || o.wrong
		for _, n := range o.notes {
			fmt.Fprintln(stdout, n)
		}
		for _, p := range o.problems {
			fmt.Fprintf(stderr, "perfbench: %s: FAILED %s\n", *name, p)
		}
	}
	if attempted > 0 {
		vals["failed_frac"] = float64(failed) / float64(attempted)
	}
	fmt.Fprintf(stdout, "failed_frac %.6g (%d of %d operations)\n", float64(failed)/float64(max(attempted, 1)), failed, attempted)
	res, err := newResult(defs, vals, attempted, failed, !wrong && attempted > 0)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	if err := writeResult(stdout, res); err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	return 0
}

// printNamed prints the workload's headline metrics under their issue names.
func printNamed(w io.Writer, named map[string]float64) {
	units := map[string]string{}
	for _, d := range perLayer {
		units[d.Name] = d.Unit
	}
	names := make([]string, 0, len(named))
	for n := range named {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "headline %-20s %14.6g %s\n", n, named[n], units[n])
	}
}
