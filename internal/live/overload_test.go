package live

import (
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"gossip/internal/graph"
)

// pollUntil spins until cond holds or the deadline passes; reports success.
func pollUntil(d time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(time.Millisecond)
	}
	return cond()
}

// quietListener accepts connections and discards everything it reads — a
// peer that takes frames but never acks, so pend entries stay in flight.
// It counts accepted connections for redial assertions.
func quietListener(t testing.TB) (addr string, accepts *atomic.Int64, closeAll func()) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	accepts = new(atomic.Int64)
	var conns []net.Conn
	done := make(chan struct{})
	go func() {
		defer close(done)
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			accepts.Add(1)
			conns = append(conns, c)
			go io.Copy(io.Discard, c)
		}
	}()
	return ln.Addr().String(), accepts, func() {
		ln.Close()
		<-done
		for _, c := range conns {
			c.Close()
		}
	}
}

// overloadPair builds a transport hosting node 0 whose peer 1 is a quiet
// listener and whose writer is parked behind an hour-long flush window, so
// frames pile up in the writer queue and pend shards deterministically.
func overloadPair(t *testing.T) (*TCPTransport, func()) {
	t.Helper()
	addr, _, closeLn := quietListener(t)
	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		closeLn()
		t.Fatal(err)
	}
	tr.SetPeers(map[graph.NodeID]string{1: addr})
	tr.SetFlushWindow(time.Hour)   // park the writer: nothing reaches the wire
	tr.SetRetransmit(time.Hour, 4) // and nothing retransmits mid-test
	return tr, func() { tr.Close(); closeLn() }
}

func testMsg(to graph.NodeID, kind MsgKind, tick int) Message {
	return Message{Kind: kind, From: 0, To: to, EdgeID: 1, Latency: 1,
		SentTick: tick, Payload: bitp{informed: true}}
}

// TestOverloadQueueShedOldest: past the writer-queue cap, gossip newcomers
// shed the oldest queued gossip frame — a terminal, counted loss.
func TestOverloadQueueShedOldest(t *testing.T) {
	tr, cleanup := overloadPair(t)
	defer cleanup()
	tr.SetOverloadLimits(4, -1)

	const sends = 20
	for i := 0; i < sends; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !pollUntil(5*time.Second, func() bool {
		return tr.Overload().ShedQueue == sends-4 && tr.queueDepth() == 4
	}) {
		t.Fatalf("ShedQueue = %d, queueDepth = %d; want %d shed, 4 queued",
			tr.Overload().ShedQueue, tr.queueDepth(), sends-4)
	}
	if got := tr.Dropped(); got < sends-4 {
		t.Fatalf("Dropped() = %d, want >= %d (sheds are drops)", got, sends-4)
	}
	if ov := tr.Faults().Overload; ov.ShedQueue != sends-4 {
		t.Fatalf("Faults().Overload.ShedQueue = %d, want %d", ov.ShedQueue, sends-4)
	}
}

// TestOverloadMemberBackpressure: membership frames are never shed — they
// preempt gossip from a full queue, and when the queue is all membership
// traffic a membership newcomer blocks (bounded) instead of dropping.
func TestOverloadMemberBackpressure(t *testing.T) {
	tr, cleanup := overloadPair(t)
	defer cleanup()
	tr.SetOverloadLimits(2, -1)

	// Fill the queue with membership frames.
	for i := 0; i < 2; i++ {
		if err := tr.Send(testMsg(1, MsgMember, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	if !pollUntil(5*time.Second, func() bool { return tr.queueDepth() == 2 }) {
		t.Fatalf("queueDepth = %d, want 2", tr.queueDepth())
	}

	// A gossip newcomer cannot displace membership: it is shed itself.
	if err := tr.Send(testMsg(1, MsgRequest, 100), 0); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return tr.Overload().ShedQueue == 1 }) {
		t.Fatalf("ShedQueue = %d, want 1 (gossip newcomer shed)", tr.Overload().ShedQueue)
	}

	// A membership newcomer applies backpressure: it blocks rather than drop.
	sent := make(chan error, 1)
	go func() { sent <- tr.Send(testMsg(1, MsgMember, 101), 0) }()
	if !pollUntil(5*time.Second, func() bool { return tr.Overload().MemberBackpressured == 1 }) {
		t.Fatalf("MemberBackpressured = %d, want 1", tr.Overload().MemberBackpressured)
	}
	if tr.Overload().ShedQueue != 1 {
		t.Fatalf("membership frame was shed: ShedQueue = %d", tr.Overload().ShedQueue)
	}
	// Close rescues the blocked enqueuer.
	cleanup()
	if err := <-sent; err != nil && err != ErrTransportClosed {
		t.Fatalf("backpressured send returned %v", err)
	}
}

// TestOverloadPendShed: the pend cap sheds the oldest in-flight gossip entry
// per shard; membership entries are exempt.
func TestOverloadPendShed(t *testing.T) {
	tr, cleanup := overloadPair(t)
	defer cleanup()
	tr.SetFlushWindow(0)                 // unpark the writer: super-frames register at flush
	tr.SetOverloadLimits(-1, pendShards) // one pending super-frame per shard

	// Serialized sends: each message flushes as its own batch of one, keyed
	// by its Seq, so the entries spread evenly over the pend shards and the
	// shed math is exact in logical messages.
	const sends = 4 * pendShards
	for i := 0; i < sends; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
		if !pollUntil(5*time.Second, func() bool { return tr.WireMsgsOut() == int64(i+1) }) {
			t.Fatalf("send %d never flushed: WireMsgsOut = %d", i, tr.WireMsgsOut())
		}
	}
	if !pollUntil(5*time.Second, func() bool {
		return tr.Overload().ShedPend == sends-pendShards && tr.pendingCount() == pendShards
	}) {
		t.Fatalf("ShedPend = %d, pendingCount = %d; want %d shed, %d pending",
			tr.Overload().ShedPend, tr.pendingCount(), sends-pendShards, pendShards)
	}
}

// TestTCPBreakerTripsOnDialFailures: consecutive delivery failures — a
// broken connection, then a failed redial — trip the breaker; tripping
// flushes the unreachable peer's pending super-frames, and once open, sends
// are refused without spending a dial.
func TestTCPBreakerTripsOnDialFailures(t *testing.T) {
	addr, _, closeLn := quietListener(t)
	tr, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		closeLn()
		t.Fatal(err)
	}
	defer func() { tr.Close(); closeLn() }()
	tr.SetPeers(map[graph.NodeID]string{1: addr})
	tr.SetDialTimeout(time.Millisecond)
	tr.SetRetransmit(time.Hour, 4) // the quiet listener never acks; only a trip clears pend
	tr.SetBreaker(2, time.Hour)    // trip after 2 failures, stay open

	const sends = 8
	for i := 0; i < sends; i++ {
		if err := tr.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
	}
	// All written ⇒ all registered (registration precedes the write).
	if !pollUntil(5*time.Second, func() bool { return tr.WireMsgsOut() == sends }) {
		t.Fatalf("WireMsgsOut = %d, want %d", tr.WireMsgsOut(), sends)
	}
	if n := tr.pendingCount(); n != sends {
		t.Fatalf("pendingCount = %d, want %d", n, sends)
	}

	// Failure 1: the peer goes away, breaking the connection.
	closeLn()
	ps := tr.peer(addr)
	if !pollUntil(5*time.Second, func() bool {
		ps.mu.Lock()
		defer ps.mu.Unlock()
		return ps.fails == 1
	}) {
		t.Fatalf("broken connection never counted as a peer failure")
	}
	if ov := tr.Overload(); ov.BreakerOpens != 0 {
		t.Fatalf("breaker open after one failure: %+v", ov)
	}
	if n := tr.pendingCount(); n != sends {
		t.Fatalf("pendingCount = %d after the break, want %d (RTO is an hour)", n, sends)
	}

	// Failure 2: the next send's redial is refused, which trips the breaker.
	if err := tr.Send(testMsg(1, MsgRequest, sends), 0); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return tr.Overload().BreakerOpens == 1 }) {
		t.Fatalf("breaker never opened: %+v", tr.Overload())
	}
	// Tripping flushed the unreachable peer's pend entries, counted in
	// logical messages; with an hour-long RTO nothing else could clear them.
	if n := tr.pendingCount(); n != 0 {
		t.Fatalf("pendingCount = %d after trip, want 0", n)
	}
	if ov := tr.Overload(); ov.BreakerDrops != sends {
		t.Fatalf("BreakerDrops = %d after trip, want %d flushed messages", ov.BreakerDrops, sends)
	}
	// While open, admission is refused outright.
	before := tr.Overload().BreakerDrops
	if err := tr.Send(testMsg(1, MsgRequest, 50), 0); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return tr.Overload().BreakerDrops > before }) {
		t.Fatalf("open breaker admitted a send: %+v", tr.Overload())
	}
}

// TestTCPPeerDownTripsBreakerPeerUpHeals: a membership Dead verdict for the
// only node at an address opens its breaker; an Alive verdict re-admits it.
func TestTCPPeerDownTripsBreakerPeerUpHeals(t *testing.T) {
	src, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	src.SetRetransmit(time.Hour, 4)
	src.SetPeers(map[graph.NodeID]string{1: dst.Addr().String()})

	if err := src.Send(testMsg(1, MsgRequest, 1), 0); err != nil {
		t.Fatal(err)
	}
	<-dst.Recv(1)

	src.PeerDown(1)
	if ov := src.Overload(); ov.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d after PeerDown, want 1", ov.BreakerOpens)
	}
	before := src.Overload().BreakerDrops
	if err := src.Send(testMsg(1, MsgRequest, 2), 0); err != nil {
		t.Fatal(err)
	}
	if !pollUntil(5*time.Second, func() bool { return src.Overload().BreakerDrops > before }) {
		t.Fatalf("dead peer's breaker admitted a send")
	}

	src.PeerUp(1)
	if err := src.Send(testMsg(1, MsgRequest, 3), 0); err != nil {
		t.Fatal(err)
	}
	select {
	case msg := <-dst.Recv(1):
		if msg.SentTick != 3 {
			t.Fatalf("delivered tick %d, want 3", msg.SentTick)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("PeerUp did not re-admit sends")
	}
}

// TestBreakerStateMachine drives peerState directly through closed → open →
// half-open → closed, and the half-open → open relapse.
func TestBreakerStateMachine(t *testing.T) {
	now := time.Unix(0, 0)
	cooldown := time.Second
	ps := &peerState{}

	if !ps.allow(3, now) {
		t.Fatal("closed breaker refused a send")
	}
	if ps.failure(3, cooldown, now) {
		t.Fatal("tripped below threshold")
	}
	if ps.failure(3, cooldown, now) {
		t.Fatal("tripped below threshold")
	}
	if !ps.failure(3, cooldown, now) {
		t.Fatal("did not trip at threshold")
	}
	if ps.state() != breakerOpen {
		t.Fatalf("state = %v, want open", ps.state())
	}
	if ps.allow(3, now.Add(cooldown/2)) {
		t.Fatal("open breaker admitted a send inside cooldown")
	}

	// Cooldown elapsed: exactly one probe passes.
	probeAt := now.Add(2 * cooldown)
	if !ps.allow(3, probeAt) {
		t.Fatal("half-open breaker refused the probe")
	}
	if ps.state() != breakerHalfOpen {
		t.Fatalf("state = %v, want half-open", ps.state())
	}
	if ps.allow(3, probeAt) {
		t.Fatal("half-open breaker admitted a second concurrent probe")
	}
	// The probe's own retransmission is probe traffic, not a new send.
	if !ps.allowRetry(3, probeAt) {
		t.Fatal("half-open breaker refused the probe's retransmission")
	}

	// Probe succeeds: closed, failure count cleared.
	ps.success()
	if ps.state() != breakerClosed {
		t.Fatalf("state = %v after probe success, want closed", ps.state())
	}
	if !ps.allow(3, probeAt) {
		t.Fatal("healed breaker refused a send")
	}

	// Trip again; this time the probe fails → straight back to open.
	for i := 0; i < 3; i++ {
		ps.failure(3, cooldown, probeAt)
	}
	probe2 := probeAt.Add(2 * cooldown)
	if !ps.allow(3, probe2) {
		t.Fatal("second half-open probe refused")
	}
	// The relapse is not a fresh trip (it was counted when the breaker first
	// opened), but it must swing the state back to open.
	if ps.failure(3, cooldown, probe2) {
		t.Fatal("half-open relapse reported a fresh trip")
	}
	if ps.state() != breakerOpen {
		t.Fatalf("state = %v after failed probe, want open", ps.state())
	}
}

// TestAdaptiveRTOEstimator checks the Jacobson/Karn arithmetic and clamps.
func TestAdaptiveRTOEstimator(t *testing.T) {
	ps := &peerState{}
	fallback := time.Second
	if got := ps.rto(fallback, time.Millisecond, time.Minute); got != fallback {
		t.Fatalf("no-sample rto = %v, want fallback %v", got, fallback)
	}

	// First sample: srtt = rtt, rttvar = rtt/2 → RTO = rtt + 4·rttvar = 3·rtt.
	ps.observeRTT(10 * time.Millisecond)
	if got := ps.rto(fallback, time.Millisecond, time.Minute); got != 30*time.Millisecond {
		t.Fatalf("rto after first sample = %v, want 30ms", got)
	}
	// Second identical sample: rttvar decays to 3.75ms → RTO = 25ms.
	ps.observeRTT(10 * time.Millisecond)
	if got := ps.rto(fallback, time.Millisecond, time.Minute); got != 25*time.Millisecond {
		t.Fatalf("rto after second sample = %v, want 25ms", got)
	}

	// Clamps: a microsecond network floors at rtoMin, a dead-slow one at max.
	fast := &peerState{}
	fast.observeRTT(10 * time.Microsecond)
	if got := fast.rto(fallback, 50*time.Millisecond, time.Minute); got != 50*time.Millisecond {
		t.Fatalf("fast-path rto = %v, want floored to 50ms", got)
	}
	slow := &peerState{}
	slow.observeRTT(time.Hour)
	if got := slow.rto(fallback, time.Millisecond, time.Minute); got != time.Minute {
		t.Fatalf("slow-path rto = %v, want capped at 1m", got)
	}
}

// TestTCPAdaptiveRTOFromLiveTraffic: acked exchanges feed the estimator, so
// the effective RTO shrinks from the configured fallback toward wire RTT.
func TestTCPAdaptiveRTOFromLiveTraffic(t *testing.T) {
	src, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{0}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer src.Close()
	dst, err := NewTCPTransport("127.0.0.1:0", []graph.NodeID{1}, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer dst.Close()
	addr := dst.Addr().String()
	src.SetPeers(map[graph.NodeID]string{1: addr})

	for i := 0; i < 4; i++ {
		if err := src.Send(testMsg(1, MsgRequest, i), 0); err != nil {
			t.Fatal(err)
		}
		<-dst.Recv(1)
	}
	if !pollUntil(5*time.Second, func() bool { return src.pendingCount() == 0 }) {
		t.Fatalf("acks never resolved: pendingCount = %d", src.pendingCount())
	}
	// A loopback RTT is far below a 10s fallback; the estimator must be live.
	if got := src.peer(addr).rto(10*time.Second, time.Millisecond, time.Hour); got >= time.Second {
		t.Fatalf("estimated rto = %v, want loopback-scale (estimator not fed)", got)
	}
}
