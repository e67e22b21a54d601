package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"gossip/internal/graph"
	"gossip/internal/live"
	"gossip/internal/sim"
)

// span is one traced interval. Times are nanoseconds since the tracer's
// epoch; Parent 0 marks a root. Sampled message spans carry the message
// identity in Msg, shared by the send and the delivery of one message.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Msg    string `json:"msg,omitempty"`
}

// tracer keeps spans in memory until the run ends. It is only ever built
// for a traced run; untraced runs pass a nil *tracer and never touch it.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	parent atomic.Int64 // span the sampled message spans hang under

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

// begin allocates a span ID and returns it with the start time; end records
// the finished span. Both do nothing on a nil tracer, so untraced runs can
// call them unconditionally.
func (t *tracer) begin() (id, start int64) {
	if t == nil {
		return 0, 0
	}
	return t.nextID.Add(1), t.now()
}

func (t *tracer) end(name string, id, parent, start int64) {
	if t != nil {
		t.record(span{Name: name, ID: id, Parent: parent, Start: start, End: t.now()})
	}
}

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// write dumps every span as one JSON document, with the host description.
func (t *tracer) write(path string, host map[string]string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	b, err := json.Marshal(struct {
		Host  map[string]string `json:"host"`
		Spans []span            `json:"spans"`
		Self  map[string]int64  `json:"self_ns"`
	}{host, spans, selfTimes(spans)})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// selfTimes sums, per span name, each span's duration minus the part of it
// covered by the union of its children's intervals (clipped to the span).
func selfTimes(spans []span) map[string]int64 {
	kids := make(map[int64][][2]int64)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[string]int64)
	for _, s := range spans {
		self[s.Name] += (s.End - s.Start) - covered(s.Start, s.End, kids[s.ID])
	}
	return self
}

// covered returns the length of [lo,hi) covered by the union of ivs.
func covered(lo, hi int64, ivs [][2]int64) int64 {
	iv := append([][2]int64(nil), ivs...)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	cur := lo
	for _, x := range iv {
		a, b := max(x[0], cur), min(x[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}

// msgKey is the identity the receiver deduplicates on, minus the payload.
type msgKey struct {
	from, edge, sentTick int
	kind                 live.MsgKind
}

func keyOf(m live.Message) msgKey {
	return msgKey{from: int(m.From), edge: m.EdgeID, sentTick: m.SentTick, kind: m.Kind}
}

func (k msgKey) String() string {
	return fmt.Sprintf("%d/%d/%d/%d", k.from, k.edge, k.sentTick, k.kind)
}

// sampled picks about one message in 1024 by a hash of its identity, so the
// sending and receiving sides agree without coordination.
func (k msgKey) sampled() bool {
	x := uint64(k.from)*0x9e3779b97f4a7c15 ^ uint64(k.edge)*0xbf58476d1ce4e5b9 ^
		uint64(k.sentTick)*0x94d049bb133111eb ^ uint64(k.kind)
	x ^= x >> 31
	x *= 0xd6e9f8e5c5b3a2f1
	x ^= x >> 29
	return x&1023 == 0
}

// transitBook pairs sampled remote sends with their deliveries across the
// transports of one traced run.
type transitBook struct {
	mu      sync.Mutex
	due     map[msgKey]int64 // Send return + intended delay, tracer ns
	transit []float64        // µs from due to sink entry
}

func newTransitBook() *transitBook { return &transitBook{due: make(map[msgKey]int64)} }

func (b *transitBook) sent(k msgKey, at int64) {
	b.mu.Lock()
	b.due[k] = at
	b.mu.Unlock()
}

func (b *transitBook) arrived(k msgKey, at int64) {
	b.mu.Lock()
	if due, ok := b.due[k]; ok {
		delete(b.due, k)
		b.transit = append(b.transit, float64(at-due)/1e3)
	}
	b.mu.Unlock()
}

// tracedTransport times Send and every delivery through the sink given to
// SetSink. It forwards every optional interface the runtime probes for, so
// the traced run takes the same program path as the untraced one.
type tracedTransport struct {
	inner *live.TCPTransport
	tr    *tracer
	book  *transitBook

	sends, sendNs atomic.Int64
	sinks, sinkNs atomic.Int64
	sinkRefused   atomic.Bool // SetSink(non-nil) returned false
}

var (
	_ live.Transport      = (*tracedTransport)(nil)
	_ live.SinkTransport  = (*tracedTransport)(nil)
	_ live.FaultReporter  = (*tracedTransport)(nil)
	_ live.Drainer        = (*tracedTransport)(nil)
	_ live.PeerStatusSink = (*tracedTransport)(nil)
)

func (t *tracedTransport) Send(msg live.Message, delay time.Duration) error {
	k := keyOf(msg)
	remote := !t.inner.Hosts(msg.To)
	var id int64
	start := t.tr.now()
	if k.sampled() {
		id = t.tr.nextID.Add(1)
	}
	err := t.inner.Send(msg, delay)
	end := t.tr.now()
	t.sends.Add(1)
	t.sendNs.Add(end - start)
	if id != 0 {
		t.tr.record(span{Name: "live.stream.send", ID: id, Parent: t.tr.parent.Load(), Start: start, End: end, Msg: k.String()})
		if remote && err == nil {
			t.book.sent(k, end+int64(delay))
		}
	}
	return err
}

func (t *tracedTransport) SetSink(sink live.DeliverySink) bool {
	if sink == nil {
		return t.inner.SetSink(nil)
	}
	ok := t.inner.SetSink(func(msg live.Message, delay time.Duration) bool {
		start := t.tr.now()
		accepted := sink(msg, delay)
		end := t.tr.now()
		t.sinks.Add(1)
		t.sinkNs.Add(end - start)
		if k := keyOf(msg); k.sampled() {
			t.tr.record(span{Name: "live.run.sink", ID: t.tr.nextID.Add(1), Parent: t.tr.parent.Load(), Start: start, End: end, Msg: k.String()})
			t.book.arrived(k, start)
		}
		return accepted
	})
	if !ok {
		t.sinkRefused.Store(true)
	}
	return ok
}

func (t *tracedTransport) Recv(u graph.NodeID) <-chan live.Message { return t.inner.Recv(u) }
func (t *tracedTransport) Close() error                            { return t.inner.Close() }
func (t *tracedTransport) Hosts(u graph.NodeID) bool               { return t.inner.Hosts(u) }
func (t *tracedTransport) Faults() live.FaultReport                { return t.inner.Faults() }
func (t *tracedTransport) PeerDown(u graph.NodeID)                 { t.inner.PeerDown(u) }
func (t *tracedTransport) PeerUp(u graph.NodeID)                   { t.inner.PeerUp(u) }
func (t *tracedTransport) Drain(ctx context.Context) (live.DrainReport, error) {
	return t.inner.Drain(ctx)
}

// streamLedger is a snapshot of the counters a stream transport exports,
// plus what its traced wrapper timed, kept after the transport is released.
type streamLedger struct {
	msgsOut, frames, flushes, bytes int64
	retrans, dups, dropped, shed    int64
	sends, sendNs, sinks, sinkNs    int64
}

func (s *streamLedger) addTransport(t *live.TCPTransport) {
	s.msgsOut += t.WireMsgsOut()
	s.frames += t.WireFramesOut()
	s.flushes += t.WireFlushes()
	s.bytes += t.WireBytesOut()
	s.retrans += t.Retransmits()
	s.dups += t.DupsSuppressed()
	s.dropped += t.Dropped()
	s.shed += t.Overload().Shed()
}

func (s *streamLedger) addTraced(t *tracedTransport) {
	s.sends += t.sends.Load()
	s.sendNs += t.sendNs.Load()
	s.sinks += t.sinks.Load()
	s.sinkNs += t.sinkNs.Load()
}

func (s *streamLedger) merge(o streamLedger) {
	s.msgsOut += o.msgsOut
	s.frames += o.frames
	s.flushes += o.flushes
	s.bytes += o.bytes
	s.retrans += o.retrans
	s.dups += o.dups
	s.dropped += o.dropped
	s.shed += o.shed
	s.sends += o.sends
	s.sendNs += o.sendNs
	s.sinks += o.sinks
	s.sinkNs += o.sinkNs
}

// layer fills the live.stream.* per-layer metrics except the drain ones.
func (s streamLedger) layer(m map[string]float64, book *transitBook) {
	if s.sends > 0 {
		m["live.stream.send_ns"] = float64(s.sendNs) / float64(s.sends)
	}
	m["live.stream.transit_p50_us"] = median(book.transit)
	m["live.stream.transit_p99_us"], _ = tail(book.transit, 99)
	if s.frames > 0 {
		m["live.stream.msgs_per_frame"] = float64(s.msgsOut) / float64(s.frames)
	}
	if s.flushes > 0 {
		m["live.stream.msgs_per_flush"] = float64(s.msgsOut) / float64(s.flushes)
	}
	if s.msgsOut > 0 {
		m["live.stream.wire_B_per_msg"] = float64(s.bytes) / float64(s.msgsOut)
		m["live.stream.useful_frac"] = float64(s.msgsOut-s.retrans) / float64(s.msgsOut)
	}
	m["live.stream.retransmits"] = float64(s.retrans)
	m["live.stream.dups_suppressed"] = float64(s.dups)
	m["live.stream.dropped"] = float64(s.dropped)
	m["live.stream.shed"] = float64(s.shed)
}

// handlerTotals is a handlerStats snapshot: callbacks and estimated seconds.
type handlerTotals struct {
	calls int64
	sec   float64
}

func (h *handlerTotals) add(s *handlerStats) {
	h.calls += s.calls.Load()
	h.sec += s.total()
}

// handlerSample is the share of handler callbacks that get timed: one in
// handlerSample. Every callback is counted; timing all of them would double
// the cost of the cheap ones.
const handlerSample = 8

// handlerStats accumulates callback counts and sampled time for one runtime.
type handlerStats struct {
	calls, timed, ns atomic.Int64
}

func (s *handlerStats) start() (t0 time.Time, on bool) {
	if s.calls.Add(1)%handlerSample != 0 {
		return time.Time{}, false
	}
	return time.Now(), true
}

func (s *handlerStats) stop(t0 time.Time, on bool) {
	if on {
		s.timed.Add(1)
		s.ns.Add(int64(time.Since(t0)))
	}
}

// total scales the mean sampled callback time to every callback, in seconds.
func (s *handlerStats) total() float64 {
	if s.timed.Load() == 0 {
		return 0
	}
	return float64(s.ns.Load()) / float64(s.timed.Load()) * float64(s.calls.Load()) / 1e9
}

// tracedHandler times the callbacks of the protocol state machine it wraps.
type tracedHandler struct {
	inner sim.Handler
	st    *handlerStats
	p     *tracedProto // nil when driven by the simulator
}

func (h *tracedHandler) Start(ctx *sim.Context) {
	if h.p != nil {
		h.p.epoch.CompareAndSwap(0, time.Now().UnixNano())
	}
	t0, on := h.st.start()
	h.inner.Start(ctx)
	h.st.stop(t0, on)
}

func (h *tracedHandler) Tick(ctx *sim.Context) {
	t0, on := h.st.start()
	h.inner.Tick(ctx)
	h.st.stop(t0, on)
}

func (h *tracedHandler) OnRequest(ctx *sim.Context, req sim.Request) sim.Payload {
	t0, on := h.st.start()
	p := h.inner.OnRequest(ctx, req)
	h.st.stop(t0, on)
	return p
}

func (h *tracedHandler) OnResponse(ctx *sim.Context, resp sim.Response) {
	t0, on := h.st.start()
	h.inner.OnResponse(ctx, resp)
	h.st.stop(t0, on)
}

func (h *tracedHandler) Done() bool { return h.inner.Done() }

// unwrap returns the protocol's own handler under a tracedHandler.
func unwrap(h sim.Handler) sim.Handler {
	if th, ok := h.(*tracedHandler); ok {
		return th.inner
	}
	return h
}

// tracedProto wraps a live protocol: its handlers are tracedHandlers, and
// LocalDone notes the first time each node reports its goal, measured from
// the runtime's first Start callback.
type tracedProto struct {
	inner      live.Protocol
	st         handlerStats
	epoch      atomic.Int64 // unix ns of the first Start
	informedAt []int64      // ns after epoch, -1 = not yet; one writer per node
}

func newTracedProto(inner live.Protocol, n int) *tracedProto {
	p := &tracedProto{inner: inner, informedAt: make([]int64, n)}
	for i := range p.informedAt {
		p.informedAt[i] = -1
	}
	return p
}

func (p *tracedProto) Name() string         { return p.inner.Name() }
func (p *tracedProto) KnownLatencies() bool { return p.inner.KnownLatencies() }

func (p *tracedProto) NewHandler(u graph.NodeID) sim.Handler {
	return &tracedHandler{inner: p.inner.NewHandler(u), st: &p.st, p: p}
}

func (p *tracedProto) LocalDone(u graph.NodeID, h sim.Handler) bool {
	done := p.inner.LocalDone(u, unwrap(h))
	if done && p.informedAt[u] < 0 {
		p.informedAt[u] = time.Now().UnixNano() - p.epoch.Load()
	}
	return done
}
