// Package gateway is the network ingest layer of the serving stack: a
// TCP server speaking a compact chunk protocol built on the repaired
// radio framing (internal/hw/radio), multiplexing many device streams
// per connection into session.Engine shards chosen by consistent
// hashing, and fanning each session's typed event stream back out to
// its subscribers.
//
// Wire protocol. Every message is one radio frame — sync byte, type,
// seq, one-byte length, payload, CRC16 — read through a strict
// radio.Scanner: TCP is a reliable transport, so any framing error
// (bad CRC, oversized length, sequence gap) means a broken or
// malicious peer and kills the connection rather than resyncing.
// Payloads use the format's full 255-byte range (radio.MaxPayloadExt),
// not the BLE ATT limit. All integers are big-endian.
//
//	TypeHello    [ver:1][flags:1][stream:2][session:8]  open a session
//	TypeHelloAck [stream:2][code:1]                     result
//	TypeChunk    [stream:2][n:1][n×ecg Δ][n×z Δ]        samples; Frame.Seq = per-stream counter
//	TypeCloseStream [stream:2]                          flush + close
//	TypeCloseAck [stream:2][code:1]                     after final events delivered
//	TypeSub      [session:8]                            join a live session's event stream
//	TypeSubAck   [session:8][code:1]                    result
//	TypeEvent    [event:196]                            one event, canonical wal codec
//	TypeErr      [stream:2][code:1]                     stream notice; stream 0xFFFF = fatal
//
// Sample encoding (TypeChunk) is LOSSLESS: each channel is an
// XOR-delta chain over the raw IEEE-754 bits, uvarint-encoded —
// consecutive physiological samples share sign/exponent/high-mantissa
// bits, so deltas are short, and a decoded stream is bit-identical to
// the pushed one, which is what lets the loopback determinism proof
// demand hash-identical event streams. Delta state persists across
// frames per stream; Frame.Seq increments per chunk frame and wraps at
// 256, so a single lost or reordered frame is detected as a sequence
// gap (ErrSeqGap) before the broken delta chain can corrupt samples.
//
// Backpressure is per connection and unbounded-queue-free in both
// directions: ingest applies it by blocking — the connection's reader
// calls Session.PushOwned, which blocks once that session's bounded
// backlog (session.Config.MaxPending) is full, so the kernel's TCP
// flow control pushes back to the device; egress never blocks a
// session worker — events go through a bounded per-connection queue
// and are dropped (counted, Stats.EventsDropped) when a subscriber
// falls behind, per the event-sink contract.
package gateway

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/hw/radio"
)

// Gateway frame types (disjoint from the BLE beat-link types).
const (
	TypeHello       = 0x10
	TypeHelloAck    = 0x11
	TypeChunk       = 0x12
	TypeCloseStream = 0x13
	TypeCloseAck    = 0x14
	TypeSub         = 0x15
	TypeSubAck      = 0x16
	TypeEvent       = 0x17
	TypeErr         = 0x18
)

// ProtocolVersion is the Hello version byte this implementation speaks.
// Version 2 ships revision-2 event frames (196 bytes, no Dropped
// field); a version-1 peer's Hello is answered with CodeBadVersion.
const ProtocolVersion = 2

// HelloSubscribe (Hello flags bit 0) subscribes the opening connection
// to the session's event stream.
const HelloSubscribe = 0x01

// Ack / error codes.
const (
	CodeOK            = 0
	CodeDuplicate     = 1 // session ID already open on its shard
	CodeQuarantined   = 2 // inside the post-eviction cool-down
	CodeEngineClosed  = 3
	CodeBadVersion    = 4
	CodeUnknownStream = 5
	CodeEvicted       = 6 // session was evicted mid-stream
	CodeNotFound      = 7 // Sub for a session that is not live
	CodeLimit         = 8 // per-connection stream cap reached
	CodeProtocol      = 9 // malformed frame / sequence gap (fatal)
)

// fatalStream marks a TypeErr frame that condemns the whole connection.
const fatalStream = 0xFFFF

// Protocol errors.
var (
	ErrSeqGap       = errors.New("gateway: chunk sequence gap")
	ErrBadPayload   = errors.New("gateway: malformed frame payload")
	ErrStreamClosed = errors.New("gateway: stream closed")
	ErrRejected     = errors.New("gateway: request rejected")
)

// deltaState is one channel's XOR-delta chain position.
type deltaState struct{ prev uint64 }

// appendDelta appends v's uvarint XOR-delta and advances the chain.
func (d *deltaState) appendDelta(dst []byte, v float64) []byte {
	bits := math.Float64bits(v)
	x := bits ^ d.prev
	d.prev = bits
	return binary.AppendUvarint(dst, x)
}

// deltaLen returns the encoded size of v's delta WITHOUT advancing the
// chain — the packer's fit check.
func (d *deltaState) deltaLen(v float64) int {
	x := math.Float64bits(v) ^ d.prev
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

// readDelta decodes one delta from b and advances the chain.
func (d *deltaState) readDelta(b []byte) (float64, int, error) {
	x, n := binary.Uvarint(b)
	if n <= 0 {
		return 0, 0, ErrBadPayload
	}
	d.prev ^= x
	return math.Float64frombits(d.prev), n, nil
}

// chunkHeader is the fixed prefix of a TypeChunk payload: stream id and
// sample count.
const chunkHeader = 3

// maxChunkBody is the delta-byte budget of one chunk frame.
const maxChunkBody = radio.MaxPayloadExt - chunkHeader

// putU16/putU64 append big-endian integers.
func putU16(dst []byte, v uint16) []byte { return append(dst, byte(v>>8), byte(v)) }
func putU64(dst []byte, v uint64) []byte {
	return append(dst, byte(v>>56), byte(v>>48), byte(v>>40), byte(v>>32),
		byte(v>>24), byte(v>>16), byte(v>>8), byte(v))
}

func getU16(b []byte) uint16 { return binary.BigEndian.Uint16(b) }
func getU64(b []byte) uint64 { return binary.BigEndian.Uint64(b) }

// chunkEncoder packs one stream's samples into chunk frames: greedy
// fill up to the frame payload budget, delta state continuous across
// frame boundaries, per-stream seq stamped on each frame. The ECG and
// Z delta runs are contiguous inside a frame's payload, so pairs are
// encoded into two scratch runs that the frame assembly concatenates.
type chunkEncoder struct {
	stream  uint16
	seq     byte
	ecg, z  deltaState
	runE    []byte
	runZ    []byte
	payload []byte
}

// appendChunks encodes len(ecg) sample pairs (equal-length channels)
// into as many chunk frames as the payload budget needs, appending the
// encoded frames to dst and returning the extended slice.
func (c *chunkEncoder) appendChunks(dst []byte, ecg, z []float64) ([]byte, error) {
	i := 0
	for i < len(ecg) {
		c.runE, c.runZ = c.runE[:0], c.runZ[:0]
		n := 0
		for i < len(ecg) && n < 255 {
			need := c.ecg.deltaLen(ecg[i]) + c.z.deltaLen(z[i])
			if n > 0 && len(c.runE)+len(c.runZ)+need > maxChunkBody {
				break // frame full; the pair opens the next one
			}
			c.runE = c.ecg.appendDelta(c.runE, ecg[i])
			c.runZ = c.z.appendDelta(c.runZ, z[i])
			n++
			i++
		}
		c.payload = c.payload[:0]
		c.payload = putU16(c.payload, c.stream)
		c.payload = append(c.payload, byte(n))
		c.payload = append(c.payload, c.runE...)
		c.payload = append(c.payload, c.runZ...)
		f := radio.Frame{Type: TypeChunk, Seq: c.seq, Payload: c.payload}
		var err error
		dst, err = f.AppendTo(dst)
		if err != nil {
			return dst, err
		}
		c.seq++
	}
	return dst, nil
}

// chunkDecoder is the receiving half: per-stream delta chains and the
// expected sequence byte.
type chunkDecoder struct {
	seq    byte
	ecg, z deltaState
}

// decodeChunk validates one chunk frame against the stream's expected
// seq and decodes its sample pairs into a single freshly-owned buffer:
// ecg is out[:n], z is out[n:2n] — exactly the shape
// session.Session.PushOwned takes ownership of (zero further copies).
func (d *chunkDecoder) decodeChunk(f *radio.Frame) (ecg, z []float64, err error) {
	if f.Seq != d.seq {
		return nil, nil, ErrSeqGap
	}
	d.seq++
	if len(f.Payload) < chunkHeader {
		return nil, nil, ErrBadPayload
	}
	n := int(f.Payload[2])
	body := f.Payload[chunkHeader:]
	out := make([]float64, 2*n)
	for i := 0; i < n; i++ {
		v, c, err := d.ecg.readDelta(body)
		if err != nil {
			return nil, nil, err
		}
		out[i] = v
		body = body[c:]
	}
	for i := 0; i < n; i++ {
		v, c, err := d.z.readDelta(body)
		if err != nil {
			return nil, nil, err
		}
		out[n+i] = v
		body = body[c:]
	}
	if len(body) != 0 {
		return nil, nil, ErrBadPayload
	}
	return out[:n:n], out[n:], nil
}
