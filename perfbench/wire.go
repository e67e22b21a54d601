package main

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync/atomic"
	"time"

	"gossip"
	"gossip/internal/graph"
	"gossip/internal/live"
	"gossip/internal/sim"
)

const (
	// wireWindow caps phase A's outstanding messages. It sits below the
	// transport's default 8192-frame writer-queue limit, so the closed loop
	// gets its backpressure from the window and never from shedding.
	wireWindow = 4096
	// wireRate is phase B's open-loop offered load, msgs/s: about a tenth of
	// what phase A reaches on a 2-core Xeon, so the latency measures the
	// path and not queueing behind whatever else shares the machine. At
	// 1M msgs/s the median latency there spread 66% (quartile distance over
	// median) across ten seeds.
	wireRate = 250_000
	// wireSetups is how many extra transport pairs are set up and torn down
	// after the phases, so setup_s is a median over enough samples.
	wireSetups = 32
	// wireWindowDur is the slice both phases are summarised over: the
	// reported rate is the median and the latency a low percentile over
	// these windows, which keeps interference on a shared machine from
	// moving them.
	wireWindowDur = 50 * time.Millisecond
	// latKeep keeps one phase B latency in latKeep for the whole-phase
	// percentiles, which bounds their memory.
	latKeep = 4
	// stallLimit ends a phase that saw no delivery for this long; whatever
	// is still missing then counts as failed.
	stallLimit = 2 * time.Second
	// drainLimit bounds each transport's graceful drain.
	drainLimit = 3 * time.Second
	// probeTick marks the message that proves a transport pair is connected.
	probeTick = -1
)

// oneByte is the 1-byte payload type the wire workload registers.
type oneByte byte

// oneByteWire holds every encoding up front, as the protocols' own bit
// codec does, so encoding allocates nothing.
var oneByteWire [256][]byte

func init() {
	for i := range oneByteWire {
		oneByteWire[i] = []byte{byte(i)}
	}
	live.RegisterPayload("perfbench.byte",
		func(p sim.Payload) ([]byte, bool) {
			b, ok := p.(oneByte)
			if !ok {
				return nil, false
			}
			return oneByteWire[b], true
		},
		func(data []byte) (sim.Payload, error) {
			if len(data) != 1 {
				return nil, fmt.Errorf("perfbench.byte: %d bytes", len(data))
			}
			return oneByte(data[0]), nil
		})
}

// ledger is the receiving side of one wire phase: a bitmap over SentTick
// that counts first deliveries, duplicates and strays, and, when lat is
// set, each message's latency from its due time.
//
// Message i is stamped SentTick i. The receiver's dedup window is counted
// in ticks, so it then spans only some thousands of messages, far less than
// a retransmission timeout: a spurious retransmission is delivered twice.
// That is counted as a failed operation, not a wrong output, because real
// traffic advances SentTick once per tick. Stamping many messages per tick
// instead makes the dedup window hold seconds of firehose traffic, which
// here is gigabytes.
type ledger struct {
	bits                 []atomic.Uint64
	n                    int // indices [0, n) are valid
	delivered, dups, bad atomic.Int64
	sent                 atomic.Int64
	waiting              atomic.Bool
	wake                 chan struct{} // generator wake-up, cap 1
	probe                chan struct{} // probe delivered, cap 1

	start    time.Time
	interval time.Duration // due time of index i is start + i·interval
	lat      []float32     // µs, phase B only
}

func newLedger(n int) *ledger {
	return &ledger{bits: make([]atomic.Uint64, (n+63)/64), n: n, wake: make(chan struct{}, 1), probe: make(chan struct{}, 1)}
}

// deliver is the DeliverySink the receiving transport calls.
func (l *ledger) deliver(msg live.Message, _ time.Duration) bool {
	i := msg.SentTick
	if i == probeTick {
		select {
		case l.probe <- struct{}{}:
		default:
		}
		return true
	}
	if i < 0 || i >= l.n {
		l.bad.Add(1)
		return true
	}
	w, bit := &l.bits[i/64], uint64(1)<<(i%64)
	for {
		old := w.Load()
		if old&bit != 0 {
			l.dups.Add(1)
			return true
		}
		if w.CompareAndSwap(old, old|bit) {
			break
		}
	}
	if l.lat != nil {
		l.lat[i] = float32(time.Since(l.start)-time.Duration(i)*l.interval) / 1e3
	}
	d := l.delivered.Add(1)
	if l.waiting.Load() && l.sent.Load()-d <= wireWindow*3/4 {
		select {
		case l.wake <- struct{}{}:
		default:
		}
	}
	return true
}

// missing counts sent messages never delivered.
func (l *ledger) missing() int64 { return l.sent.Load() - l.delivered.Load() }

// awaitAll waits until every sent message is delivered or deliveries stall,
// and returns when it last saw the delivered count move.
func (l *ledger) awaitAll() time.Time {
	last, since := l.delivered.Load(), time.Now()
	for l.missing() > 0 && time.Since(since) < stallLimit {
		time.Sleep(200 * time.Microsecond)
		if d := l.delivered.Load(); d != last {
			last, since = d, time.Now()
		}
	}
	return since
}

// wirePair is two loopback TCP transports: src hosts node 0, dst node 1.
type wirePair struct {
	src, dst     *live.TCPTransport
	send         live.Transport // src, or its traced wrapper
	tsrc, tdst   *tracedTransport
	bytes0       int64
	setup        time.Duration
	msg          live.Message
	drainedClean bool
	drainWall    time.Duration
}

// newWirePair listens, connects and proves the connection with one probe
// message; the time it takes is the pair's set-up time.
func newWirePair(tr *tracer, book *transitBook, l *ledger) (*wirePair, error) {
	t0 := time.Now()
	src, err := gossip.NewLiveTCPTransport("127.0.0.1:0", []graph.NodeID{0})
	if err != nil {
		return nil, err
	}
	dst, err := gossip.NewLiveTCPTransport("127.0.0.1:0", []graph.NodeID{1})
	if err != nil {
		src.Close()
		return nil, err
	}
	p := &wirePair{src: src, dst: dst, send: src}
	src.SetPeers(map[graph.NodeID]string{1: dst.Addr().String()})
	var sinkT live.SinkTransport = dst
	if tr != nil {
		p.tsrc = &tracedTransport{inner: src, tr: tr, book: book}
		p.tdst = &tracedTransport{inner: dst, tr: tr, book: book}
		p.send, sinkT = p.tsrc, p.tdst
	}
	if !sinkT.SetSink(l.deliver) {
		p.close()
		return nil, errors.New("receiving transport refused the sink")
	}
	p.msg = live.Message{Kind: live.MsgRequest, From: 0, To: 1, EdgeID: 1, Latency: 1, SentTick: probeTick, Payload: oneByte(1)}
	if err := p.send.Send(p.msg, 0); err != nil {
		p.close()
		return nil, err
	}
	select {
	case <-l.probe:
	case <-time.After(stallLimit):
		p.close()
		return nil, errors.New("probe message not delivered")
	}
	p.setup = time.Since(t0)
	p.bytes0 = src.WireBytesOut() + dst.WireBytesOut()
	return p, nil
}

func (p *wirePair) close() {
	p.src.Close()
	p.dst.Close()
}

// drain drains the sender, then the receiver (whose acks the sender was
// waiting for), and records whether both finished clean.
func (p *wirePair) drain() {
	p.drainedClean = true
	for _, t := range []*live.TCPTransport{p.src, p.dst} {
		ctx, cancel := context.WithTimeout(context.Background(), drainLimit)
		rep, err := t.Drain(ctx)
		cancel()
		p.drainWall += rep.Wall
		if err != nil || !rep.Clean {
			p.drainedClean = false
		}
	}
}

// wireStream is the transport firehose: one generator goroutine sending
// 1-byte messages to one remote node over loopback TCP.
type wireStream struct{}

// wireStats collects one call's measurements.
type wireStats struct {
	setups               []float64
	rates                []float64 // phase A delivered msgs/s per window
	bytesPerMsg          float64
	lat, genLate         []float64 // phase B, µs
	winP50               []float64 // phase B median latency per window, µs
	stream               streamLedger
	drainMs, drainsClean float64
	drains               int
	msgs                 float64
}

func (w *wireStream) run(e env) (outcome, error) {
	out := outcome{e2e: map[string]float64{}, named: map[string]float64{}}
	phase := e.seconds / 2
	if e.seconds == 0 {
		phase = 0.25
	}
	var st wireStats
	var book *transitBook
	if e.tr != nil {
		book = newTransitBook()
	}
	mem := startRSS()
	g0 := readGo()
	mem.begin()
	if err := w.phaseA(e, book, time.Duration(phase*float64(time.Second)), &st, &out); err != nil {
		mem.close()
		return out, err
	}
	mem.end()
	mem.begin()
	if err := w.phaseB(e, book, time.Duration(phase*float64(time.Second)), &st, &out); err != nil {
		mem.close()
		return out, err
	}
	mem.end()
	g1 := readGo()
	out.e2e["peak_rss_MB"] = mem.close()
	for i := 0; i < wireSetups; i++ {
		l := newLedger(0)
		p, err := newWirePair(nil, nil, l)
		if err != nil {
			return out, err
		}
		st.setups = append(st.setups, p.setup.Seconds())
		p.close()
	}

	rate := median(st.rates)
	p50 := median(st.lat)
	p99, pct := tail(st.lat, 99)
	out.e2e["setup_s"] = median(st.setups)
	out.e2e["msgs_per_s"] = rate
	// Other tenants of a shared host only ever add latency, and in some runs
	// they reached most of phase B's windows. Across eight seeds the 10th
	// percentile window spread 3% where the median window spread 8%; in
	// another set of ten, three runs moved the median window 62%.
	wins := append([]float64(nil), st.winP50...)
	sort.Float64s(wins)
	out.e2e["op_ms"] = quantile(wins, 0.1) / 1e3
	out.named["wire_msgs_per_s"] = rate
	out.named["wire_lat_p50_us"] = p50
	out.named["wire_lat_p99_us"] = p99
	out.named["wire_B_per_msg"] = st.bytesPerMsg
	if pct != 99 {
		out.note("wire latency tail is p%v, too few samples for p99", pct)
	}
	if e.tr != nil {
		out.layer = w.layer(&st, book, g0, g1)
	}
	return out, nil
}

// phaseA is the closed loop: at most wireWindow messages outstanding, as
// fast as the transport delivers them.
func (w *wireStream) phaseA(e env, book *transitBook, dur time.Duration, st *wireStats, out *outcome) error {
	// Room for 10M msgs/s, several times what loopback TCP reaches here.
	l := newLedger(int(10e6*dur.Seconds()) + wireWindow)
	p, err := newWirePair(e.tr, book, l)
	if err != nil {
		return err
	}
	defer p.close()
	st.setups = append(st.setups, p.setup.Seconds())
	span, spanStart := e.tr.begin()
	if e.tr != nil {
		e.tr.parent.Store(span)
	}
	msg := p.msg
	l.start = time.Now()
	deadline := l.start.Add(dur)
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	lastT, lastD := l.start, int64(0)
	i := 0
send:
	for i < l.n {
		if i&255 == 0 {
			now := time.Now()
			if now.After(deadline) {
				break
			}
			if dt := now.Sub(lastT); dt >= wireWindowDur {
				d := l.delivered.Load()
				st.rates = append(st.rates, float64(d-lastD)/dt.Seconds())
				lastT, lastD = now, d
			}
		}
		if int64(i)-l.delivered.Load() >= wireWindow {
			l.waiting.Store(true)
			last, since := l.delivered.Load(), time.Now()
			for int64(i)-l.delivered.Load() >= wireWindow {
				timer.Reset(100 * time.Millisecond)
				select {
				case <-l.wake:
				case <-timer.C:
				}
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				if d := l.delivered.Load(); d != last {
					last, since = d, time.Now()
				} else if time.Since(since) > stallLimit {
					break send
				}
			}
			l.waiting.Store(false)
		}
		msg.SentTick = i
		if err := p.send.Send(msg, 0); err != nil {
			return fmt.Errorf("phase A send: %w", err)
		}
		i++
		l.sent.Store(int64(i))
	}
	l.awaitAll()
	e.tr.end("wire.phaseA", span, 0, spanStart)
	p.drain()
	w.account(p, l, st, out, "A")
	if d := l.delivered.Load(); d > 0 {
		st.bytesPerMsg = float64(p.src.WireBytesOut()+p.dst.WireBytesOut()-p.bytes0) / float64(d)
	}
	return nil
}

// phaseB is the open loop: message i is due at start + i/wireRate whatever
// happened to earlier messages, and its latency is timed from then.
func (w *wireStream) phaseB(e env, book *transitBook, dur time.Duration, st *wireStats, out *outcome) error {
	n := int(float64(wireRate) * dur.Seconds())
	l := newLedger(n)
	l.interval = time.Second / wireRate
	l.lat = make([]float32, n)
	p, err := newWirePair(e.tr, book, l)
	if err != nil {
		return err
	}
	defer p.close()
	st.setups = append(st.setups, p.setup.Seconds())
	span, spanStart := e.tr.begin()
	if e.tr != nil {
		e.tr.parent.Store(span)
	}
	msg := p.msg
	l.start = time.Now()
	for i := 0; i < n; {
		now := time.Since(l.start)
		due := int(now/l.interval) + 1
		if due <= i {
			time.Sleep(20 * time.Microsecond)
			continue
		}
		for ; i < due && i < n; i++ {
			if i&15 == 0 {
				st.genLate = append(st.genLate, float64(now-time.Duration(i)*l.interval)/1e3)
			}
			msg.SentTick = i
			if err := p.send.Send(msg, 0); err != nil {
				return fmt.Errorf("phase B send: %w", err)
			}
			l.sent.Store(int64(i + 1))
		}
	}
	l.awaitAll()
	e.tr.end("wire.phaseB", span, 0, spanStart)
	p.drain() // also closes both transports, so no sink call races the reads below
	w.account(p, l, st, out, "B")
	per := int(wireWindowDur / l.interval)
	var win []float64
	for i := 0; i < n; i++ {
		if l.bits[i/64].Load()&(1<<(i%64)) != 0 {
			if i%latKeep == 0 {
				st.lat = append(st.lat, float64(l.lat[i]))
			}
			win = append(win, float64(l.lat[i]))
		}
		if (i+1)%per == 0 || i == n-1 {
			if len(win) > 0 {
				st.winP50 = append(st.winP50, median(win))
			}
			win = win[:0]
		}
	}
	return nil
}

// judge counts every sent message as one operation and fails each one not
// delivered exactly once; a delivery of a message never sent is wrong.
func (l *ledger) judge(out *outcome, phase string) {
	out.attempted += l.sent.Load()
	if m := l.missing(); m > 0 {
		out.fail(m, "phase %s: %d of %d messages not delivered", phase, m, l.sent.Load())
	}
	if d := l.dups.Load(); d > 0 {
		out.fail(d, "phase %s: %d duplicate deliveries", phase, d)
	}
	if b := l.bad.Load(); b > 0 {
		out.incorrect(b, "phase %s: %d deliveries of messages never sent", phase, b)
	}
}

// account judges a phase, fails an unclean drain, and keeps the pair's
// ledgers for the per-layer report.
func (w *wireStream) account(p *wirePair, l *ledger, st *wireStats, out *outcome, phase string) {
	out.note("phase %s: sent %d delivered %d duplicates %d retransmits %d shed %d drain clean %v",
		phase, l.sent.Load(), l.delivered.Load(), l.dups.Load(), p.src.Retransmits(), p.src.Overload().Shed(), p.drainedClean)
	l.judge(out, phase)
	if !p.drainedClean {
		out.fail(1, "phase %s: drain not clean", phase)
	}
	st.stream.addTransport(p.src)
	st.stream.addTransport(p.dst)
	if p.tsrc != nil {
		st.stream.addTraced(p.tsrc)
		st.stream.addTraced(p.tdst)
	}
	st.drains += 2
	st.drainMs += float64(p.drainWall) / 1e6
	if p.drainedClean {
		st.drainsClean += 2
	}
	st.msgs += float64(l.sent.Load())
}

func (w *wireStream) layer(st *wireStats, book *transitBook, g0, g1 goSnap) map[string]float64 {
	m := map[string]float64{}
	st.stream.layer(m, book)
	if st.drains > 0 {
		m["live.stream.drain_ms"] = st.drainMs / float64(st.drains)
		m["live.stream.drain_clean"] = st.drainsClean / float64(st.drains)
	}
	// Everything the process burned outside Send and the benchmark's sink:
	// writer and reader goroutines (encode, syscalls, decode, dedup, acks)
	// and the garbage collector.
	m["live.run.other_cpu_s"] = (g1.cpu - g0.cpu).Seconds() - float64(st.stream.sendNs+st.stream.sinkNs)/1e9
	m["bench.gen_late_p99_us"], _ = tail(st.genLate, 99)
	goLayer(m, g0, g1, st.msgs)
	return m
}
