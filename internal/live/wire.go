package live

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"sort"
)

// This file is the wire codec of the stream transport: a length-prefixed
// binary frame format. Every data message crosses a stream connection inside
// a FrameBatch super-frame — a single message is a batch of one — and acks
// either ride a super-frame's header or travel in an ack-only frame.
//
// Frame layout (all integers varint-encoded unless noted):
//
//	frame   := header(1B) bodyLen(uvarint) body
//	header  := version nibble (0001) | flag nibble
//	flags   := 0x2 frame carries piggybacked acks
//	           0x4 frame is a FrameBatch super-frame
//	body    := acks                                // ack-only frame: flags 0x2
//	         | [acks] count(uvarint) data ...      // super-frame: count >= 1
//	acks    := count(uvarint) seq0(uvarint) delta1(uvarint) ...   // ascending
//	data    := kind(1B) seqDelta(varint) from(varint) to(varint) edge(varint)
//	           latency(varint) tickDelta(varint) ptype payload
//	ptype   := 0                                  // no payload type
//	         | 1 nameLen(uvarint) name            // define: appended to table
//	         | n>=2                               // reference to table[n-2]
//	payload := len(uvarint) bytes
//
// Any other flag bit — including 0x1, the single-data frame of earlier
// versions — makes the frame malformed. Signed fields use zigzag varints
// (binary.AppendVarint) so any int round-trips; acks are sorted and
// delta-encoded, so a batch of k consecutive acks costs ~k+3 bytes. Payload
// type names are interned per connection: the first sub-message carrying a
// type pays for the name, every later one references it with one byte.
// Payload bytes are opaque to the codec.
//
// The N sub-messages of a super-frame share one header, the connection's
// intern table and its Seq/SentTick delta chains, so a run of
// near-consecutive messages costs a handful of bytes each. The receiver
// acknowledges a super-frame once, with the Seq of its last sub-message — the
// sender bookkeeps reliable delivery per super-frame, not per message.
//
// Seq and SentTick are delta-encoded against per-connection running state
// (seqDelta is relative to lastSeq+1, tickDelta to lastTick, both with
// two's-complement wraparound so every value round-trips): a connection's
// sequence numbers and ticks are near-monotonic, so both usually cost one
// byte instead of growing with the run length. Both codec halves carry
// connection state (these deltas, the intern table), so a decoder must see a
// connection's frames in order from the start — exactly what a stream
// provides.

const (
	wireVersion     = 0x10 // version 1 in the high nibble
	wireVersionMask = 0xF0
	wireFlagAcks    = 0x02
	wireFlagBatch   = 0x04

	// maxWireBody bounds one frame body so a corrupt length prefix cannot
	// trigger an arbitrarily large allocation.
	maxWireBody = 1 << 22

	// maxBatchMsgs bounds the sub-messages one FrameBatch super-frame
	// carries. The aggregating writer splits a larger drain into multiple
	// super-frames, so one frame stays well under maxWireBody even with
	// worst-case payloads.
	maxBatchMsgs = 1024

	// maxInternedTypes bounds the per-connection payload-type intern table:
	// a frame that would define a type past the cap is rejected as malformed,
	// so a misbehaving peer cannot grow decoder state without limit.
	// RegisterPayload refuses registrations past the same cap, so a
	// conforming encoder can never hit it.
	maxInternedTypes = 64
)

var errMalformedFrame = fmt.Errorf("live: malformed binary frame")

// wireEnc is the encoder half of one connection: the payload-type intern
// table plus a reusable body scratch buffer. It is owned by the connection's
// writer goroutine and needs no locking.
type wireEnc struct {
	names    map[string]uint64
	scratch  []byte
	lastSeq  uint64
	lastTick int64
}

// appendAcks appends the sorted, delta-encoded ack block to body. acks is
// sorted in place.
func appendAcks(body []byte, acks []uint64) []byte {
	sort.Slice(acks, func(i, j int) bool { return acks[i] < acks[j] })
	body = binary.AppendUvarint(body, uint64(len(acks)))
	prev := uint64(0)
	for i, s := range acks {
		if i == 0 {
			body = binary.AppendUvarint(body, s)
		} else {
			body = binary.AppendUvarint(body, s-prev)
		}
		prev = s
	}
	return body
}

// appendSub appends one data sub-message to body, advancing the connection's
// delta chains and intern table.
func (e *wireEnc) appendSub(body []byte, w *wireMessage) []byte {
	body = append(body, w.Kind)
	body = binary.AppendVarint(body, int64(w.Seq-(e.lastSeq+1)))
	e.lastSeq = w.Seq
	body = binary.AppendVarint(body, int64(w.From))
	body = binary.AppendVarint(body, int64(w.To))
	body = binary.AppendVarint(body, int64(w.EdgeID))
	body = binary.AppendVarint(body, int64(w.Latency))
	body = binary.AppendVarint(body, int64(w.SentTick)-e.lastTick)
	e.lastTick = int64(w.SentTick)
	switch {
	case w.PayloadType == "":
		body = binary.AppendUvarint(body, 0)
	default:
		id, known := e.names[w.PayloadType]
		if known {
			body = binary.AppendUvarint(body, id+2)
		} else {
			if e.names == nil {
				e.names = make(map[string]uint64)
			}
			e.names[w.PayloadType] = uint64(len(e.names))
			body = binary.AppendUvarint(body, 1)
			body = binary.AppendUvarint(body, uint64(len(w.PayloadType)))
			body = append(body, w.PayloadType...)
		}
	}
	body = binary.AppendUvarint(body, uint64(len(w.Payload)))
	return append(body, w.Payload...)
}

// appendFrame appends one frame to dst: a FrameBatch super-frame carrying
// msgs under a single header, sharing this connection's intern table and
// delta chains, with any acks hoisted to the header — or, when msgs is
// empty, an ack-only frame. acks is sorted in place.
func (e *wireEnc) appendFrame(dst []byte, msgs []wireMessage, acks []uint64) []byte {
	body := e.scratch[:0]
	var flags byte
	if len(acks) > 0 {
		flags |= wireFlagAcks
		body = appendAcks(body, acks)
	}
	if len(msgs) > 0 {
		flags |= wireFlagBatch
		body = binary.AppendUvarint(body, uint64(len(msgs)))
		for i := range msgs {
			body = e.appendSub(body, &msgs[i])
		}
	}
	e.scratch = body
	dst = append(dst, wireVersion|flags)
	dst = binary.AppendUvarint(dst, uint64(len(body)))
	return append(dst, body...)
}

// wireDec is the decoder half of one connection: the mirrored intern table
// plus reusable body, ack, and sub-message buffers. Owned by the
// connection's read loop.
type wireDec struct {
	names    []string
	body     []byte
	acks     []uint64
	msgs     []wireMessage
	lastSeq  uint64
	lastTick int64
}

// decodeSub decodes one data sub-message at off, filling *w and returning
// the new offset. w.Payload and w.PayloadType alias decoder-owned buffers.
func (d *wireDec) decodeSub(body []byte, off int, w *wireMessage) (int, error) {
	if off >= len(body) {
		return off, errMalformedFrame
	}
	*w = wireMessage{Kind: body[off]}
	off++
	seqDelta, off, err := varintAt(body, off)
	if err != nil {
		return off, err
	}
	w.Seq = d.lastSeq + 1 + uint64(seqDelta)
	d.lastSeq = w.Seq
	ints := [4]*int{&w.From, &w.To, &w.EdgeID, &w.Latency}
	for _, p := range ints {
		v, o, err := varintAt(body, off)
		if err != nil {
			return off, err
		}
		*p, off = int(v), o
	}
	tickDelta, off, err := varintAt(body, off)
	if err != nil {
		return off, err
	}
	d.lastTick += tickDelta
	w.SentTick = int(d.lastTick)
	code, off, err := uvarintAt(body, off)
	if err != nil {
		return off, err
	}
	switch {
	case code == 0:
		// no payload type
	case code == 1:
		if len(d.names) >= maxInternedTypes {
			return off, fmt.Errorf("%w: payload type table full (%d entries)", errMalformedFrame, maxInternedTypes)
		}
		nameLen, o, err := uvarintAt(body, off)
		if err != nil {
			return off, err
		}
		off = o
		if nameLen > uint64(len(body)-off) {
			return off, errMalformedFrame
		}
		name := string(body[off : off+int(nameLen)])
		off += int(nameLen)
		d.names = append(d.names, name)
		w.PayloadType = name
	default:
		idx := code - 2
		if idx >= uint64(len(d.names)) {
			return off, fmt.Errorf("%w: payload type ref %d beyond table of %d", errMalformedFrame, idx, len(d.names))
		}
		w.PayloadType = d.names[idx]
	}
	payLen, off, err := uvarintAt(body, off)
	if err != nil {
		return off, err
	}
	if payLen > uint64(len(body)-off) {
		return off, errMalformedFrame
	}
	if payLen > 0 {
		w.Payload = body[off : off+int(payLen)]
		off += int(payLen)
	}
	return off, nil
}

// readFrameMulti reads one frame and decodes what it carries: acks, plus
// either no data (an ack-only frame) or the N >= 1 sub-messages of a
// FrameBatch super-frame, which the receiver acknowledges once with the last
// sub-message's Seq. The returned slices and every msg's Payload alias
// decoder-owned buffers that are reused by the next call, so all must be
// consumed before then. On error nothing is returned: a frame decodes whole
// or not at all.
func (d *wireDec) readFrameMulti(br *bufio.Reader) (acks []uint64, msgs []wireMessage, err error) {
	b0, err := br.ReadByte()
	if err != nil {
		return nil, nil, err
	}
	if b0&wireVersionMask != wireVersion {
		return nil, nil, fmt.Errorf("%w: unknown header 0x%02x", errMalformedFrame, b0)
	}
	flags := b0 &^ byte(wireVersionMask)
	if flags&^(wireFlagAcks|wireFlagBatch) != 0 {
		return nil, nil, fmt.Errorf("%w: unknown flags 0x%x", errMalformedFrame, flags)
	}
	n, err := binary.ReadUvarint(br)
	if err != nil {
		return nil, nil, err
	}
	if n > maxWireBody {
		return nil, nil, fmt.Errorf("%w: body of %d bytes exceeds limit", errMalformedFrame, n)
	}
	if uint64(cap(d.body)) < n {
		d.body = make([]byte, n)
	}
	body := d.body[:n]
	if _, err := io.ReadFull(br, body); err != nil {
		return nil, nil, err
	}

	// Delta chains and the intern table advance as we decode; snapshot them so
	// a malformed tail can roll the connection state back to the frame
	// boundary (the caller tears the connection down on errMalformedFrame, but
	// the all-or-nothing contract keeps fuzzing oracles honest).
	savedSeq, savedTick, savedNames := d.lastSeq, d.lastTick, len(d.names)
	defer func() {
		if err != nil {
			d.lastSeq, d.lastTick, d.names = savedSeq, savedTick, d.names[:savedNames]
		}
	}()

	off := 0
	if flags&wireFlagAcks != 0 {
		count, o, err := uvarintAt(body, off)
		if err != nil {
			return nil, nil, err
		}
		off = o
		if count > uint64(len(body)) { // each ack costs at least one byte
			return nil, nil, errMalformedFrame
		}
		d.acks = d.acks[:0]
		seq := uint64(0)
		for i := uint64(0); i < count; i++ {
			delta, o, err := uvarintAt(body, off)
			if err != nil {
				return nil, nil, err
			}
			off = o
			seq += delta
			d.acks = append(d.acks, seq)
		}
		acks = d.acks
	}
	if flags&wireFlagBatch == 0 {
		if off != len(body) {
			return nil, nil, errMalformedFrame
		}
		return acks, nil, nil
	}

	count, off, err := uvarintAt(body, off)
	if err != nil {
		return nil, nil, err
	}
	if count == 0 || count > uint64(len(body)) { // each sub-message costs >= 1 byte
		return nil, nil, fmt.Errorf("%w: batch of %d sub-messages in %d-byte body", errMalformedFrame, count, len(body))
	}
	d.msgs = d.msgs[:0]
	for i := uint64(0); i < count; i++ {
		var w wireMessage
		o, err := d.decodeSub(body, off, &w)
		if err != nil {
			return nil, nil, err
		}
		off = o
		d.msgs = append(d.msgs, w)
	}
	if off != len(body) {
		return nil, nil, errMalformedFrame
	}
	return acks, d.msgs, nil
}

// uvarintAt decodes a uvarint at off, returning the value and the new offset.
func uvarintAt(b []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(b[off:])
	if n <= 0 {
		return 0, off, errMalformedFrame
	}
	return v, off + n, nil
}

// varintAt decodes a zigzag varint at off.
func varintAt(b []byte, off int) (int64, int, error) {
	v, n := binary.Varint(b[off:])
	if n <= 0 {
		return 0, off, errMalformedFrame
	}
	return v, off + n, nil
}
