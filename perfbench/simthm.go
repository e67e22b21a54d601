package main

import (
	"math"
	"time"

	"gossip"
	"gossip/internal/graph"
	"gossip/internal/sim"
)

const (
	simN       = 20_000
	simBeta    = 2.5
	simAvgDeg  = 8
	simLatMax  = 16 // latencies are redrawn uniformly from [1, simLatMax]
	simSources = 4  // fixed sources, spread evenly over the node IDs
)

// simTheorem is Theorem 12 in the simulator: the weighted conductance
// analysis once, then push-pull from fixed sources, on a power-law graph
// with heterogeneous latencies. Its counts are deterministic per seed, so
// every iteration is checked against the first one.
type simTheorem struct {
	ref    map[graph.NodeID]sim.Metrics // first iteration's result per source
	edges  uint64                       // fingerprint of the first generated graph
	phi    float64
	ell    int
	levels int
}

// simGens is how many times a measuring call generates the graph, so
// setup_s is a median; iterations then reuse the last graph.
const simGens = 3

func (s *simTheorem) run(e env) (outcome, error) {
	out := outcome{e2e: map[string]float64{}, named: map[string]float64{}}
	var gens, analyses, rates []float64
	var msgs, self, hCalls, hSec float64
	var rounds, simMsgs int
	gensWanted := simGens
	if e.seconds == 0 {
		gensWanted = 1
	}
	mem := startRSS()
	g0 := readGo()
	start := time.Now()
	var g *graph.Graph
	iters := 0
	for iters == 0 || time.Since(start).Seconds() < e.seconds {
		mem.begin()
		span, spanStart := e.tr.begin()
		if len(gens) < gensWanted {
			g = nil // let the previous graph go before building the next
			gspan, gstart := e.tr.begin()
			t0 := time.Now()
			g = gossip.RandomLatencies(gossip.ChungLu(simN, simBeta, simAvgDeg, 1, e.seed), 1, simLatMax, e.seed)
			gens = append(gens, time.Since(t0).Seconds())
			e.tr.end("graph", gspan, span, gstart)
			out.attempted++
			if fp := fingerprint(g); s.edges == 0 {
				s.edges = fp
			} else if fp != s.edges {
				out.incorrect(1, "graph generator gave a different graph for the same seed")
			}
		}

		cspan, cstart := e.tr.begin()
		t1 := time.Now()
		c, err := gossip.WeightedConductance(g, e.seed)
		analyses = append(analyses, time.Since(t1).Seconds())
		e.tr.end("cut", cspan, span, cstart)
		out.attempted++
		switch {
		case err != nil:
			out.incorrect(1, "weighted conductance: %v", err)
		case s.ref == nil:
			s.phi, s.ell, s.levels = c.PhiStar, c.EllStar, len(c.Ladder)
			s.ref = map[graph.NodeID]sim.Metrics{}
			out.note("theorem12 n=%d m=%d ell*=%d phi*=%.4g (ell*/phi*)*log2(n)=%.1f rounds",
				g.N(), g.M(), c.EllStar, c.PhiStar, float64(c.EllStar)/c.PhiStar*math.Log2(float64(g.N())))
		case c.PhiStar != s.phi || c.EllStar != s.ell || len(c.Ladder) != s.levels:
			out.incorrect(1, "conductance differs on a same-seed re-run: phi*=%v ell*=%v, first %v %v", c.PhiStar, c.EllStar, s.phi, s.ell)
		}

		rounds, simMsgs = 0, 0
		for k := 0; k < simSources; k++ {
			src := graph.NodeID(k * g.N() / simSources)
			r0 := time.Now()
			var m sim.Metrics
			var completed bool
			if e.tr == nil {
				res, err := gossip.RunPushPull(g, src, gossip.Options{Seed: e.seed})
				if err != nil {
					out.incorrect(1, "push-pull from %d: %v", src, err)
				}
				m, completed = res.Metrics, res.Completed
			} else {
				var st handlerStats
				rspan, rstart := e.tr.begin()
				m, completed, err = tracedPushPull(g, src, e.seed, &st)
				e.tr.end("sim.Run", rspan, span, rstart)
				if err != nil {
					out.incorrect(1, "traced push-pull from %d: %v", src, err)
				}
				hCalls += float64(st.calls.Load())
				hSec += st.total()
				self += time.Since(r0).Seconds() - st.total()
			}
			rates = append(rates, float64(m.Messages())/time.Since(r0).Seconds())
			msgs += float64(m.Messages())
			rounds += m.Rounds
			simMsgs += m.Messages()
			out.attempted++
			ref, seen := s.ref[src]
			switch {
			case !completed:
				out.incorrect(1, "push-pull from %d did not complete", src)
			case !seen && e.tr == nil:
				s.ref[src] = m
			case !seen:
				out.incorrect(1, "traced push-pull from %d has no untraced reference", src)
			case m != ref:
				out.incorrect(1, "push-pull from %d gave %+v, first run %+v", src, m, ref)
			}
		}
		e.tr.end("iteration", span, 0, spanStart)
		mem.end()
		iters++
	}
	g1 := readGo()

	out.e2e["setup_s"] = median(gens)
	out.e2e["peak_rss_MB"] = mem.close()
	out.e2e["msgs_per_s"] = median(rates)
	out.e2e["op_ms"] = median(analyses) * 1e3
	out.named["sim_msgs_per_s"] = median(rates)
	out.named["analysis_s"] = median(analyses)
	if e.tr != nil {
		it := float64(iters)
		out.layer = map[string]float64{
			"graph.gen_s":        median(gens),
			"cut.conductance_s":  median(analyses),
			"cut.ladder_levels":  float64(s.levels),
			"sim.self_s":         self / it,
			"sim.rounds":         float64(rounds),
			"sim.msgs":           float64(simMsgs),
			"core.handler_calls": hCalls / it,
			"core.handler_s":     hSec / it,
		}
		if hCalls > 0 {
			out.layer["core.handler_ns"] = hSec * 1e9 / hCalls
		}
		goLayer(out.layer, g0, g1, msgs)
	}
	return out, nil
}

// fingerprint hashes a graph's edge list (FNV-1a over endpoints and
// latencies), so a regenerated graph can be compared with the first.
func fingerprint(g *graph.Graph) uint64 {
	h := uint64(14695981039346656037)
	for _, ed := range g.Edges() {
		for _, x := range [3]int{int(ed.U), int(ed.V), ed.Latency} {
			h ^= uint64(x)
			h *= 1099511628211
		}
	}
	return h | 1
}

// tracedPushPull is gossip.RunPushPull driven by hand: the same simulator
// network and the same state machines, each wrapped so its callbacks are
// timed. It must report exactly the rounds and messages of the untraced run.
func tracedPushPull(g *graph.Graph, src graph.NodeID, seed uint64, st *handlerStats) (sim.Metrics, bool, error) {
	proto := gossip.LivePushPull(src)
	nw := sim.NewNetwork(g, sim.Config{Seed: seed})
	for u := 0; u < g.N(); u++ {
		nw.SetHandler(u, &tracedHandler{inner: proto.NewHandler(u), st: st})
	}
	res, err := nw.Run(func(nw *sim.Network) bool {
		for u := 0; u < g.N(); u++ {
			if !proto.LocalDone(u, unwrap(nw.Handler(u))) {
				return false
			}
		}
		return true
	})
	return res.Metrics, res.Completed, err
}

// theoremLayers measures the cut and sim layers once on g for a traced run
// of a live workload, whose own iterations use neither: the weighted
// conductance analysis, then push-pull from src through wrapped handlers,
// which must take the rounds of the untraced simulator run (want).
func theoremLayers(e env, g *graph.Graph, src graph.NodeID, want int, out *outcome) {
	span, spanStart := e.tr.begin()
	defer e.tr.end("iteration", span, 0, spanStart)

	cspan, cstart := e.tr.begin()
	t0 := time.Now()
	c, err := gossip.WeightedConductance(g, e.seed)
	out.layer["cut.conductance_s"] = time.Since(t0).Seconds()
	e.tr.end("cut", cspan, span, cstart)
	out.layer["cut.ladder_levels"] = float64(len(c.Ladder))
	out.attempted++
	if err != nil {
		out.incorrect(1, "weighted conductance: %v", err)
	}

	var st handlerStats
	rspan, rstart := e.tr.begin()
	r0 := time.Now()
	m, completed, err := tracedPushPull(g, src, e.seed, &st)
	out.layer["sim.self_s"] = time.Since(r0).Seconds() - st.total()
	e.tr.end("sim.Run", rspan, span, rstart)
	out.layer["sim.rounds"] = float64(m.Rounds)
	out.layer["sim.msgs"] = float64(m.Messages())
	out.attempted++
	if err != nil || !completed || m.Rounds != want {
		out.incorrect(1, "traced push-pull from %d: %d rounds (completed %v, %v), untraced %d", src, m.Rounds, completed, err, want)
	}
}
