package main

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"time"

	"gossip"
	"gossip/internal/graph"
	"gossip/internal/live"
)

// bcastSpec shapes a live broadcast workload: a RingChords graph split into
// two contiguous halves, each half one runtime (one shard) behind its own
// loopback TCP transport, both in this process.
type bcastSpec struct {
	n        int
	tick     time.Duration
	linger   time.Duration // covers the lag between the halves' completions
	maxTicks int           // bounds a broadcast that cannot complete
	sources  int           // fixed sources, spread evenly over the ring
}

var (
	// bulkSpec is compute-bound: 100k nodes, a 200µs tick no shard keeps.
	bulkSpec = bcastSpec{n: 100_000, tick: 200 * time.Microsecond, linger: 500 * time.Millisecond, maxTicks: 3000, sources: 1}
	// pacedSpec is latency-bound: 1000 nodes at a 4ms tick.
	pacedSpec = bcastSpec{n: 1000, tick: 4 * time.Millisecond, linger: 60 * time.Millisecond, maxTicks: 500, sources: 8}
)

const (
	ringChords = 4 // chords per node
	chordLat   = 8 // chord latencies are uniform in [1, chordLat]
)

// bcast runs one live push-pull broadcast per iteration, each on fresh
// transports: the receiver deduplicates on (EdgeID, From, SentTick, Kind),
// so a transport reused for a second run would drop that run's messages as
// duplicates.
type bcast struct {
	spec   bcastSpec
	rounds map[graph.NodeID]int // simulator rounds per source, same graph and seed
	edges  uint64               // fingerprint of the first generated graph
	next   int                  // next source index
}

func newBcast(spec bcastSpec) *bcast {
	return &bcast{spec: spec, rounds: map[graph.NodeID]int{}}
}

// oneBcast is one broadcast's measurements.
type oneBcast struct {
	src        graph.NodeID
	setup      time.Duration // graph, transports, runtime construction
	rtSetup    time.Duration // the runtime construction part alone
	gen        time.Duration
	wall       time.Duration // injection to last informed node
	ticks      int
	msgs       int
	mailShed   int64
	stream     streamLedger // both transports, read after the drain
	handlers   handlerTotals
	informed   []float64 // ms after the runtime's first Start, per node (traced)
	drainMs    float64
	drainClean int
}

func (b *bcast) source(n int) graph.NodeID {
	s := graph.NodeID(b.next * n / b.spec.sources)
	b.next = (b.next + 1) % b.spec.sources
	return s
}

// simRounds returns the simulator's round count for src on the workload's
// graph, computing it once per process, after the timed broadcasts.
func (b *bcast) simRounds(src graph.NodeID, seed uint64) (int, error) {
	if r, ok := b.rounds[src]; ok {
		return r, nil
	}
	g := gossip.RingChords(b.spec.n, ringChords, chordLat, seed)
	res, err := gossip.RunPushPull(g, src, gossip.Options{Seed: seed})
	if err != nil {
		return 0, err
	}
	b.rounds[src] = res.Metrics.Rounds
	return res.Metrics.Rounds, nil
}

func (b *bcast) run(e env) (outcome, error) {
	out := outcome{e2e: map[string]float64{}, named: map[string]float64{}}
	var book *transitBook
	if e.tr != nil {
		book = newTransitBook()
	}
	var all []oneBcast
	mem := startRSS()
	g0 := readGo()
	start := time.Now()
	for len(all) == 0 || time.Since(start).Seconds() < e.seconds {
		mem.begin()
		ob, err := b.broadcast(e, book, &out)
		if err != nil {
			mem.close()
			return out, err
		}
		mem.end()
		all = append(all, ob)
	}
	g1 := readGo()
	out.e2e["peak_rss_MB"] = mem.close()

	var setups, walls, perRound, rates, stretches []float64
	for _, ob := range all {
		r, err := b.simRounds(ob.src, e.seed)
		if err != nil {
			return out, err
		}
		setups = append(setups, ob.setup.Seconds())
		walls = append(walls, ob.wall.Seconds())
		perRound = append(perRound, ob.wall.Seconds()*1e3/float64(r))
		rates = append(rates, float64(ob.msgs)/ob.wall.Seconds())
		stretches = append(stretches, ob.wall.Seconds()/(float64(r)*b.spec.tick.Seconds()))
	}
	out.e2e["setup_s"] = median(setups)
	// The timings are the fastest broadcast's: other tenants of a shared
	// host only ever slow a broadcast down, and across seeds the fastest
	// one spread 7% where the median spread 10%.
	out.e2e["msgs_per_s"] = slices.Max(rates)
	out.e2e["op_ms"] = slices.Min(perRound)
	out.named["bcast_s"] = median(walls)
	out.named["node_msgs_per_s"] = median(rates)
	out.named["live_stretch"] = median(stretches)
	if e.tr != nil {
		out.layer = b.layer(all, book, g0, g1)
		src := all[0].src
		theoremLayers(e, gossip.RingChords(b.spec.n, ringChords, chordLat, e.seed), src, b.rounds[src], &out)
	}
	return out, nil
}

// broadcast generates the graph, sets up both halves and runs one push-pull
// broadcast, then drains both transports and checks the outcome.
func (b *bcast) broadcast(e env, book *transitBook, out *outcome) (oneBcast, error) {
	span, spanStart := e.tr.begin()
	defer e.tr.end("iteration", span, 0, spanStart)
	if e.tr != nil {
		e.tr.parent.Store(span)
	}
	t0 := time.Now()
	gspan, gstart := e.tr.begin()
	g := gossip.RingChords(b.spec.n, ringChords, chordLat, e.seed)
	ob := oneBcast{gen: time.Since(t0)}
	e.tr.end("graph", gspan, span, gstart)
	if fp := fingerprint(g); b.edges == 0 {
		b.edges = fp
	} else if fp != b.edges {
		out.incorrect(1, "graph generator gave a different graph for the same seed")
	}
	ob.src = b.source(g.N())
	n := g.N()
	var hosted [2][]graph.NodeID
	for u := 0; u < n; u++ {
		hosted[u*2/n] = append(hosted[u*2/n], graph.NodeID(u))
	}
	addrs := make(map[graph.NodeID]string, n)
	var trs [2]*live.TCPTransport
	for i := range trs {
		tr, err := gossip.NewLiveTCPTransport("127.0.0.1:0", hosted[i])
		if err != nil {
			for _, t := range trs[:i] {
				t.Close()
			}
			return ob, err
		}
		trs[i] = tr
		for _, u := range hosted[i] {
			addrs[u] = tr.Addr().String()
		}
	}
	defer func() {
		for _, t := range trs {
			t.Close()
		}
	}()
	for _, tr := range trs {
		tr.SetPeers(addrs)
	}
	var transports [2]live.Transport
	var protos [2]live.Protocol
	var traced [2]*tracedTransport
	var tprotos [2]*tracedProto
	for i := range trs {
		transports[i], protos[i] = trs[i], gossip.LivePushPull(ob.src)
		if e.tr != nil {
			traced[i] = &tracedTransport{inner: trs[i], tr: e.tr, book: book}
			tprotos[i] = newTracedProto(protos[i], n)
			transports[i], protos[i] = traced[i], tprotos[i]
		}
	}
	pre := time.Since(t0)

	var wg sync.WaitGroup
	var results [2]gossip.LiveResult
	var errs [2]error
	var calls [2]time.Duration
	for i := range trs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rspan, rstart := e.tr.begin()
			c0 := time.Now()
			results[i], errs[i] = gossip.RunLiveTransport(g, protos[i], transports[i], gossip.LiveOptions{
				Seed:     e.seed,
				Tick:     b.spec.tick,
				MaxTicks: b.spec.maxTicks,
				Nodes:    hosted[i],
				Linger:   b.spec.linger,
				Shards:   1,
			})
			calls[i] = time.Since(c0)
			e.tr.end("live.Run", rspan, span, rstart)
		}(i)
	}
	wg.Wait()

	informed := 0
	var mailShed [2]int64
	for i, res := range results {
		rt := calls[i] - res.Metrics.Wall - b.spec.linger
		ob.rtSetup = max(ob.rtSetup, rt)
		ob.wall = max(ob.wall, res.Metrics.Wall)
		ob.ticks = max(ob.ticks, res.Metrics.Ticks)
		ob.msgs += res.Metrics.Messages()
		// Run adds the shard mailboxes' sheds to the transport's own.
		mailShed[i] = res.Faults.Overload.ShedQueue - trs[i].Overload().ShedQueue
		ob.mailShed += mailShed[i]
		for _, u := range hosted[i] {
			if res.Done[u] {
				informed++
			}
		}
	}
	ob.setup = pre + ob.rtSetup

	clean := true
	for _, tr := range trs {
		ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
		rep, err := tr.Drain(ctx)
		cancel()
		ob.drainMs += float64(rep.Wall) / 1e6
		if err == nil && rep.Clean {
			ob.drainClean++
		} else {
			clean = false
		}
	}
	// Keep numbers, not transports: a closed transport still holds its
	// dedup tables, and keeping them would grow every later iteration.
	for i, tr := range trs {
		ob.stream.addTransport(tr)
		if traced[i] != nil {
			ob.stream.addTraced(traced[i])
			ob.handlers.add(&tprotos[i].st)
			for _, at := range tprotos[i].informedAt {
				if at >= 0 {
					ob.informed = append(ob.informed, float64(at)/1e6)
				}
			}
		}
	}

	// A broadcast that did not inform every node, or ran a different
	// program path, is wrong; one that lost, shed or re-sent messages on
	// loopback, shed shard mailbox posts, or could not drain clean, failed.
	out.attempted++
	var wrong, lossy []string
	for i := range results {
		if errs[i] != nil || !results[i].Completed {
			wrong = append(wrong, fmt.Sprintf("half %d not completed (%v)", i, errs[i]))
		}
		if traced[i] != nil && traced[i].sinkRefused.Load() {
			wrong = append(wrong, fmt.Sprintf("half %d: SetSink returned false, the run took the inbox path", i))
		}
		tr := trs[i]
		if d, s, dup := tr.Dropped(), tr.Overload().Shed(), tr.DupsSuppressed(); d+s+dup+mailShed[i] > 0 {
			lossy = append(lossy, fmt.Sprintf("half %d dropped %d (shed %d), suppressed %d duplicates after %d retransmits, shed %d mailbox posts",
				i, d, s, dup, tr.Retransmits(), mailShed[i]))
		}
	}
	if informed != n {
		wrong = append(wrong, fmt.Sprintf("informed %d of %d", informed, n))
	}
	if !clean {
		lossy = append(lossy, "drain not clean")
	}
	switch {
	case wrong != nil:
		out.incorrect(1, "broadcast from %d: %v %v", ob.src, wrong, lossy)
	case lossy != nil:
		out.fail(1, "broadcast from %d: %v", ob.src, lossy)
	}
	return ob, nil
}

func (b *bcast) layer(all []oneBcast, book *transitBook, g0, g1 goSnap) map[string]float64 {
	m := map[string]float64{}
	var gens, rtSetups, ticks, extra, tickMs, informed []float64
	var msgs, mailShed int64
	var stream streamLedger
	var hs handlerTotals
	var drainMs float64
	var drainClean int
	for _, ob := range all {
		gens = append(gens, ob.gen.Seconds())
		rtSetups = append(rtSetups, ob.rtSetup.Seconds())
		ticks = append(ticks, float64(ob.ticks))
		extra = append(extra, float64(ob.ticks-b.rounds[ob.src]))
		tickMs = append(tickMs, ob.wall.Seconds()*1e3/float64(max(ob.ticks, 1)))
		msgs += int64(ob.msgs)
		mailShed += ob.mailShed
		drainMs += ob.drainMs
		drainClean += ob.drainClean
		stream.merge(ob.stream)
		hs.calls += ob.handlers.calls
		hs.sec += ob.handlers.sec
		informed = append(informed, ob.informed...)
	}
	nb := float64(len(all))
	m["graph.gen_s"] = median(gens)
	m["live.run.setup_s"] = median(rtSetups)
	m["live.run.ticks"] = median(ticks)
	m["live.run.extra_ticks"] = median(extra)
	m["live.run.tick_ms"] = median(tickMs)
	m["live.run.informed_p50_ms"] = median(informed)
	m["live.run.informed_p99_ms"], _ = tail(informed, 99)
	if stream.sinks > 0 {
		m["live.run.sink_ns"] = float64(stream.sinkNs) / float64(stream.sinks)
	}
	m["live.run.mailbox_shed"] = float64(mailShed)
	m["live.run.other_cpu_s"] = ((g1.cpu - g0.cpu).Seconds() - hs.sec - float64(stream.sendNs+stream.sinkNs)/1e9) / nb
	m["core.handler_calls"] = float64(hs.calls) / nb
	if hs.calls > 0 {
		m["core.handler_ns"] = hs.sec * 1e9 / float64(hs.calls)
	}
	m["core.handler_s"] = hs.sec / nb
	stream.layer(m, book)
	m["live.stream.drain_ms"] = drainMs / (2 * nb)
	m["live.stream.drain_clean"] = float64(drainClean) / (2 * nb)
	goLayer(m, g0, g1, float64(msgs))
	return m
}
