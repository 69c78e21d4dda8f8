package wal

import (
	"encoding/binary"
	"math"

	"repro/internal/event"
)

// Event codec. event.Event is a flat, pointer-free, fixed-size tagged
// union by design (the event contract), so it encodes to a fixed-width
// little-endian layout with no lengths, no framing and no allocation —
// the record CRC around it provides the integrity check. The canonical
// byte form is also what the kill/restore tests and the icgserve
// -replay prefix check compare, so "byte-identical" is literal.
//
// EventSize bytes, in field order: Kind u8 | Session u64 | Beat i64 |
// TimeS f64 | Params (14 × f64, Accepted u8) | AcceptEWMA f64 |
// Below u8 | Floor f64 | Mode i64 | PrevMode i64 | Reason i64 |
// Accepted i64 | Emitted i64 | Restored u8.
//
// This is revision 2 of the layout. Revision 1 (204 bytes) carried a
// Dropped u64 before Restored; its records have their own record kind,
// which recovery and replay skip (record.go).

// EventSize is the exact encoded size of one event.
const EventSize = 196

// EncodeEvent appends the canonical encoding of e to dst.
func EncodeEvent(dst []byte, e *event.Event) []byte {
	n := len(dst)
	if cap(dst)-n < EventSize {
		grown := make([]byte, n, n+EventSize)
		copy(grown, dst)
		dst = grown
	}
	dst = dst[:n+EventSize]
	b := dst[n:]
	b[0] = byte(e.Kind)
	binary.LittleEndian.PutUint64(b[1:], e.Session)
	binary.LittleEndian.PutUint64(b[9:], uint64(int64(e.Beat)))
	putF(b[17:], e.TimeS)
	p := &e.Params
	putF(b[25:], p.TimeS)
	putF(b[33:], p.RR)
	putF(b[41:], p.HR)
	putF(b[49:], p.PEP)
	putF(b[57:], p.LVET)
	putF(b[65:], p.STR)
	putF(b[73:], p.Z0)
	putF(b[81:], p.Z0Thoracic)
	putF(b[89:], p.DZdtMax)
	putF(b[97:], p.SVKub)
	putF(b[105:], p.SVSram)
	putF(b[113:], p.CO)
	putF(b[121:], p.TFC)
	putF(b[129:], p.Quality)
	b[137] = bit(p.Accepted)
	putF(b[138:], e.AcceptEWMA)
	b[146] = bit(e.Below)
	putF(b[147:], e.Floor)
	binary.LittleEndian.PutUint64(b[155:], uint64(int64(e.Mode)))
	binary.LittleEndian.PutUint64(b[163:], uint64(int64(e.PrevMode)))
	binary.LittleEndian.PutUint64(b[171:], uint64(int64(e.Reason)))
	binary.LittleEndian.PutUint64(b[179:], uint64(int64(e.Accepted)))
	binary.LittleEndian.PutUint64(b[187:], uint64(int64(e.Emitted)))
	b[195] = bit(e.Restored)
	return dst
}

// DecodeEvent parses one canonical event encoding. ok is false when p
// is not exactly EventSize bytes or the boolean bytes are malformed —
// decode never panics on arbitrary input (the FuzzWALDecode law).
func DecodeEvent(b []byte) (e event.Event, ok bool) {
	if len(b) != EventSize {
		return event.Event{}, false
	}
	if b[137] > 1 || b[146] > 1 || b[195] > 1 {
		return event.Event{}, false
	}
	e.Kind = event.Kind(b[0])
	e.Session = binary.LittleEndian.Uint64(b[1:])
	e.Beat = int(int64(binary.LittleEndian.Uint64(b[9:])))
	e.TimeS = getF(b[17:])
	p := &e.Params
	p.TimeS = getF(b[25:])
	p.RR = getF(b[33:])
	p.HR = getF(b[41:])
	p.PEP = getF(b[49:])
	p.LVET = getF(b[57:])
	p.STR = getF(b[65:])
	p.Z0 = getF(b[73:])
	p.Z0Thoracic = getF(b[81:])
	p.DZdtMax = getF(b[89:])
	p.SVKub = getF(b[97:])
	p.SVSram = getF(b[105:])
	p.CO = getF(b[113:])
	p.TFC = getF(b[121:])
	p.Quality = getF(b[129:])
	p.Accepted = b[137] == 1
	e.AcceptEWMA = getF(b[138:])
	e.Below = b[146] == 1
	e.Floor = getF(b[147:])
	e.Mode = int(int64(binary.LittleEndian.Uint64(b[155:])))
	e.PrevMode = int(int64(binary.LittleEndian.Uint64(b[163:])))
	e.Reason = int(int64(binary.LittleEndian.Uint64(b[171:])))
	e.Accepted = int(int64(binary.LittleEndian.Uint64(b[179:])))
	e.Emitted = int(int64(binary.LittleEndian.Uint64(b[187:])))
	e.Restored = b[195] == 1
	return e, true
}

func putF(b []byte, v float64) { binary.LittleEndian.PutUint64(b, math.Float64bits(v)) }

func getF(b []byte) float64 { return math.Float64frombits(binary.LittleEndian.Uint64(b)) }

func bit(v bool) byte {
	if v {
		return 1
	}
	return 0
}
