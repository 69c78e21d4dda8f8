// Package radio models the device's Bluetooth Low Energy link (nRF8001,
// Section III-A). The device does not stream raw waveforms: it processes
// signals locally and transmits only the per-beat results (Z0, LVET, PEP,
// HR), which is why the radio duty cycle stays in the 0.1-1% range used by
// the paper's battery-life computation.
package radio

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
)

// BLE ATT payload limit used for framing (nRF8001-era 20-byte payloads).
const MaxPayload = 20

// MaxPayloadExt is the framing format's own payload ceiling: the length
// field is one byte. BLE links enforce MaxPayload; wired transports
// reusing the same framing (the network ingest gateway) may run the
// full range via AppendTo/NewScannerLimit.
const MaxPayloadExt = 255

// frameOverhead is the fixed per-frame byte cost: sync, type, seq,
// length, CRC16.
const frameOverhead = 6

// Frame types.
const (
	TypeBeat   = 0x01 // one BeatRecord
	TypeStatus = 0x02 // device status (battery, duty cycle)
)

// Frame is one radio packet.
type Frame struct {
	Type    byte
	Seq     byte
	Payload []byte
}

// Codec errors.
var (
	ErrPayloadTooLarge = errors.New("radio: payload exceeds 20 bytes")
	ErrBadSync         = errors.New("radio: bad sync byte")
	ErrBadCRC          = errors.New("radio: CRC mismatch")
	ErrShortFrame      = errors.New("radio: truncated frame")
)

const syncByte = 0xA5

// crcTable is the byte-at-a-time table for CRC-16/CCITT-FALSE
// (polynomial 0x1021). The bitwise loop was 93% of the gateway's frame
// encode cost — every byte CRCs on encode and again on scan, so the
// framing checksum is the hottest loop on the network path.
var crcTable = func() (t [256]uint16) {
	for i := range t {
		crc := uint16(i) << 8
		for b := 0; b < 8; b++ {
			if crc&0x8000 != 0 {
				crc = crc<<1 ^ 0x1021
			} else {
				crc <<= 1
			}
		}
		t[i] = crc
	}
	return
}()

// crc16 computes CRC-16/CCITT-FALSE over data.
func crc16(data []byte) uint16 {
	crc := uint16(0xFFFF)
	for _, b := range data {
		crc = crc<<8 ^ crcTable[byte(crc>>8)^b]
	}
	return crc
}

// Encode serializes a frame: sync, type, seq, len, payload, crc16. The
// BLE payload limit applies; wired transports append with AppendTo.
func (f *Frame) Encode() ([]byte, error) {
	return f.appendTo(make([]byte, 0, frameOverhead+len(f.Payload)), MaxPayload)
}

// AppendTo appends the frame's encoding to dst and returns the extended
// slice — the allocation-free encode path. It accepts payloads up to
// MaxPayloadExt (the framing format's own ceiling), not just the BLE
// ATT limit: the network gateway runs the same framing over TCP with
// full-size payloads.
func (f *Frame) AppendTo(dst []byte) ([]byte, error) {
	return f.appendTo(dst, MaxPayloadExt)
}

func (f *Frame) appendTo(dst []byte, limit int) ([]byte, error) {
	if len(f.Payload) > limit {
		return dst, ErrPayloadTooLarge
	}
	start := len(dst)
	dst = append(dst, syncByte, f.Type, f.Seq, byte(len(f.Payload)))
	dst = append(dst, f.Payload...)
	crc := crc16(dst[start+1:]) // CRC over everything after the sync byte
	dst = binary.BigEndian.AppendUint16(dst, crc)
	return dst, nil
}

// Decode parses one frame from buf and returns it together with the
// number of bytes consumed.
//
// Error contract (the resync law): consumed is 0 only for ErrShortFrame
// — a plausible frame head that needs more bytes. Every other error
// returns a POSITIVE skip: the distance from buf[0] to the next
// candidate sync byte inside the span the decoder examined (or past the
// span when it holds none), so a skip-consumed resync loop always makes
// progress and never walks past an embedded valid frame. The old
// contract returned 0 for ErrBadCRC/ErrPayloadTooLarge too, which
// looped such scanners forever.
func Decode(buf []byte) (*Frame, int, error) {
	f, n, err := decodeInto(buf, MaxPayload)
	if err != nil {
		return nil, n, err
	}
	f.Payload = append([]byte(nil), f.Payload...)
	return &f, n, nil
}

// decodeInto is Decode without the payload copy: the returned frame's
// payload aliases buf and is valid only while buf is. limit is the
// payload ceiling in force (MaxPayload on BLE, up to MaxPayloadExt on
// wired transports).
func decodeInto(buf []byte, limit int) (Frame, int, error) {
	if len(buf) == 0 {
		return Frame{}, 0, ErrShortFrame
	}
	if buf[0] != syncByte {
		return Frame{}, resyncSkip(buf, len(buf)), ErrBadSync
	}
	if len(buf) < frameOverhead {
		return Frame{}, 0, ErrShortFrame
	}
	plen := int(buf[3])
	if plen > limit {
		// Only the 4 header bytes were examined; skip within them.
		return Frame{}, resyncSkip(buf, 4), ErrPayloadTooLarge
	}
	total := frameOverhead + plen
	if len(buf) < total {
		return Frame{}, 0, ErrShortFrame
	}
	want := binary.BigEndian.Uint16(buf[total-2 : total])
	if crc16(buf[1:total-2]) != want {
		return Frame{}, resyncSkip(buf, total), ErrBadCRC
	}
	return Frame{Type: buf[1], Seq: buf[2], Payload: buf[4 : 4+plen : 4+plen]}, total, nil
}

// resyncSkip returns how many bytes a resync scanner should skip after
// a failed decode at buf[0]: the distance to the next candidate sync
// byte inside the examined span buf[1:span], or the whole span when it
// holds none. Always at least 1 — errors must consume.
func resyncSkip(buf []byte, span int) int {
	if span > len(buf) {
		span = len(buf)
	}
	for i := 1; i < span; i++ {
		if buf[i] == syncByte {
			return i
		}
	}
	if span < 1 {
		return 1
	}
	return span
}

// WriteFrame encodes and writes a frame to w.
func WriteFrame(w io.Writer, f *Frame) error {
	buf, err := f.Encode()
	if err != nil {
		return err
	}
	_, err = w.Write(buf)
	return err
}

// BeatRecord is the per-beat result transmitted to the physician's side:
// exactly the parameter set listed in Section V (Z0, LVET, PEP, HR).
type BeatRecord struct {
	TimestampMs uint32  // time of the R peak since session start
	Z0          float64 // base impedance (Ohm)
	LVET        float64 // left ventricular ejection time (s)
	PEP         float64 // pre-ejection period (s)
	HR          float64 // heart rate (bpm)
}

// beatPayloadLen is the fixed encoded size of a BeatRecord.
const beatPayloadLen = 14

// Marshal encodes the record into a fixed 14-byte payload with
// fixed-point fields: Z0 in milliohm (uint32), LVET/PEP in 0.1 ms
// (uint16), HR in 0.1 bpm (uint16).
func (b *BeatRecord) Marshal() []byte {
	buf := make([]byte, beatPayloadLen)
	binary.BigEndian.PutUint32(buf[0:4], b.TimestampMs)
	binary.BigEndian.PutUint32(buf[4:8], uint32(clampNonNeg(b.Z0*1000)))
	binary.BigEndian.PutUint16(buf[8:10], uint16(clamp16(b.LVET*1e4)))
	binary.BigEndian.PutUint16(buf[10:12], uint16(clamp16(b.PEP*1e4)))
	binary.BigEndian.PutUint16(buf[12:14], uint16(clamp16(b.HR*10)))
	return buf
}

// UnmarshalBeat decodes a payload produced by Marshal.
func UnmarshalBeat(buf []byte) (*BeatRecord, error) {
	if len(buf) != beatPayloadLen {
		return nil, fmt.Errorf("radio: beat payload length %d, want %d", len(buf), beatPayloadLen)
	}
	return &BeatRecord{
		TimestampMs: binary.BigEndian.Uint32(buf[0:4]),
		Z0:          float64(binary.BigEndian.Uint32(buf[4:8])) / 1000,
		LVET:        float64(binary.BigEndian.Uint16(buf[8:10])) / 1e4,
		PEP:         float64(binary.BigEndian.Uint16(buf[10:12])) / 1e4,
		HR:          float64(binary.BigEndian.Uint16(buf[12:14])) / 10,
	}, nil
}

func clampNonNeg(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 4294967295 {
		return 4294967295
	}
	return v
}

func clamp16(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 65535 {
		return 65535
	}
	return v
}

// LinkConfig describes the simulated BLE link.
type LinkConfig struct {
	LossProb   float64 // per-transmission loss probability
	MaxRetries int     // retransmissions before giving up
	BitRate    float64 // air bit rate (1 Mbps for BLE 4)
	Overhead   int     // per-frame air overhead in bytes (preamble, headers)
}

// DefaultLink returns an nRF8001-like link.
func DefaultLink() LinkConfig {
	return LinkConfig{LossProb: 0.01, MaxRetries: 3, BitRate: 1e6, Overhead: 14}
}

// Link simulates transmissions and accounts airtime.
type Link struct {
	cfg LinkConfig
	rng *rand.Rand

	Sent      int
	Delivered int
	Dropped   int
	Retries   int
	AirtimeS  float64
}

// NewLink returns a link simulator with a deterministic seed.
func NewLink(cfg LinkConfig, seed int64) *Link {
	return &Link{cfg: cfg, rng: rand.New(rand.NewSource(seed))}
}

// airTime returns the on-air duration of one encoded frame.
func (l *Link) airTime(frameBytes int) float64 {
	if l.cfg.BitRate <= 0 {
		return 0
	}
	return float64(frameBytes+l.cfg.Overhead) * 8 / l.cfg.BitRate
}

// Send attempts delivery of a frame with retransmission. It returns
// whether the frame was delivered.
func (l *Link) Send(f *Frame) bool {
	buf, err := f.Encode()
	if err != nil {
		return false
	}
	l.Sent++
	attempts := 1 + l.cfg.MaxRetries
	for a := 0; a < attempts; a++ {
		l.AirtimeS += l.airTime(len(buf))
		if l.rng.Float64() >= l.cfg.LossProb {
			l.Delivered++
			if a > 0 {
				l.Retries += a
			}
			return true
		}
	}
	l.Dropped++
	l.Retries += l.cfg.MaxRetries
	return false
}

// DutyCycle returns the TX duty fraction over a session of the given
// duration.
func (l *Link) DutyCycle(sessionSeconds float64) float64 {
	if sessionSeconds <= 0 {
		return 0
	}
	return l.AirtimeS / sessionSeconds
}

// ExpectedTransmissions returns the mean number of times one frame goes
// on air under the link's loss/retry policy: Link.Send retries up to
// MaxRetries times, stopping at the first success, so the expectation
// is the partial geometric sum Σ p^a over a = 0..MaxRetries.
func ExpectedTransmissions(cfg LinkConfig) float64 {
	p := cfg.LossProb
	attempts := 1 + cfg.MaxRetries
	if attempts < 1 {
		attempts = 1
	}
	if p <= 0 {
		return 1
	}
	if p >= 1 {
		return float64(attempts)
	}
	return (1 - math.Pow(p, float64(attempts))) / (1 - p)
}

// BeatStreamDuty computes the analytic TX duty cycle for beats arriving at
// hrBPM with the given link parameters: the paper's claim that sending
// only {Z0, LVET, PEP, HR} keeps the radio near 0.1-1% duty. Per-beat
// airtime is scaled by the expected transmissions under the link's
// loss/retry policy, so the figure matches Link.Send's airtime
// accounting in expectation — the old formula priced every beat at
// exactly one transmission and understated the duty on lossy links.
func BeatStreamDuty(hrBPM float64, cfg LinkConfig) float64 {
	if cfg.BitRate <= 0 {
		return 0
	}
	frameBytes := frameOverhead + beatPayloadLen + cfg.Overhead
	perBeat := float64(frameBytes) * 8 / cfg.BitRate * ExpectedTransmissions(cfg)
	beatsPerSecond := hrBPM / 60
	return perBeat * beatsPerSecond
}
