package main

import (
	"bufio"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// rssMB reads the process's current resident set size in MB.
func rssMB() float64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0
	}
	return pages * float64(os.Getpagesize()) / (1 << 20)
}

// rssPeaks samples the resident set size every few milliseconds and keeps
// the peak of each iteration; the metric is their median. Memory is not
// handed back to the system between iterations: faulting it in again made
// the next timed section slower by a varying amount.
type rssPeaks struct {
	peak  atomic.Uint64 // math.Float64bits of the running peak, MB
	stop  chan struct{}
	done  chan struct{}
	peaks []float64
}

const rssEvery = 5 * time.Millisecond

func startRSS() *rssPeaks {
	r := &rssPeaks{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(r.done)
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-r.stop:
				return
			case <-t.C:
				r.observe()
			}
		}
	}()
	return r
}

func (r *rssPeaks) observe() {
	v := rssMB()
	for {
		old := r.peak.Load()
		if v <= math.Float64frombits(old) || r.peak.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// begin starts an iteration: the peak restarts from the current size.
func (r *rssPeaks) begin() { r.peak.Store(math.Float64bits(rssMB())) }

// end closes an iteration and records its peak.
func (r *rssPeaks) end() {
	r.observe()
	r.peaks = append(r.peaks, math.Float64frombits(r.peak.Load()))
}

// close stops the sampler and returns the median iteration peak.
func (r *rssPeaks) close() float64 {
	close(r.stop)
	<-r.done
	return median(r.peaks)
}

var goSampleNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// goSnap is a runtime/metrics reading plus wall and process CPU time.
type goSnap struct {
	allocs, allocB, gcCycles uint64
	gcCPU, totalCPU          float64
	wall                     time.Time
	cpu                      time.Duration
}

func readGo() goSnap {
	s := make([]metrics.Sample, len(goSampleNames))
	for i, n := range goSampleNames {
		s[i].Name = n
	}
	metrics.Read(s)
	u := func(i int) uint64 {
		if s[i].Value.Kind() == metrics.KindUint64 {
			return s[i].Value.Uint64()
		}
		return 0
	}
	f := func(i int) float64 {
		if s[i].Value.Kind() == metrics.KindFloat64 {
			return s[i].Value.Float64()
		}
		return 0
	}
	return goSnap{allocs: u(0), allocB: u(1), gcCycles: u(2), gcCPU: f(3), totalCPU: f(4), wall: time.Now(), cpu: cpuTime()}
}

// goLayer fills the go.* per-layer metrics for the interval [a, b] in which
// msgs messages were processed.
func goLayer(m map[string]float64, a, b goSnap, msgs float64) {
	wall := b.wall.Sub(a.wall).Seconds()
	cpu := (b.cpu - a.cpu).Seconds()
	if wall > 0 {
		m["go.cpu_util"] = cpu / (wall * float64(runtime.GOMAXPROCS(0)))
	}
	if msgs > 0 {
		m["go.allocs_per_msg"] = float64(b.allocs-a.allocs) / msgs
		m["go.alloc_B_per_msg"] = float64(b.allocB-a.allocB) / msgs
	}
	m["go.gc_cycles"] = float64(b.gcCycles - a.gcCycles)
	if d := b.totalCPU - a.totalCPU; d > 0 {
		m["go.gc_cpu_frac"] = (b.gcCPU - a.gcCPU) / d
	}
}

// hostInfo describes the machine a run measured.
func hostInfo() map[string]string {
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"link":       "loopback TCP",
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
