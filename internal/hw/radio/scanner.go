package radio

import (
	"errors"
	"io"
)

// Scanner extracts frames from a byte stream with one persistent
// buffer: no per-frame allocations in steady state, and no byte is ever
// discarded unexamined — a corrupt frame re-enters the sync hunt at the
// next candidate sync byte inside its own span, so an embedded valid
// frame (or the stream that resumes mid-garbage) is recovered instead
// of lost.
//
// Garbage between frames is skipped silently (counted in Stats);
// ErrBadCRC/ErrPayloadTooLarge are returned once per corrupt candidate
// AFTER the scanner has already advanced past it, so a tolerant caller
// just calls Next again, and a strict one (the network gateway, where a
// reliable transport means corruption is a broken peer) can abort.
type Scanner struct {
	r     io.Reader
	limit int // payload ceiling in force
	buf   []byte
	start int // first unconsumed byte
	end   int // one past the last buffered byte
	frame Frame

	frames  uint64
	resyncs uint64
	skipped uint64
}

// scannerBlock is the read granularity of a streaming scanner.
const scannerBlock = 4096

// NewScanner returns a scanner over BLE-limit frames (MaxPayload).
func NewScanner(r io.Reader) *Scanner { return NewScannerLimit(r, MaxPayload) }

// NewScannerLimit returns a scanner accepting payloads up to limit
// (clamped to [0, MaxPayloadExt]) — the gateway runs the framing over
// TCP at the format's full payload range.
func NewScannerLimit(r io.Reader, limit int) *Scanner {
	if limit < 0 {
		limit = 0
	}
	if limit > MaxPayloadExt {
		limit = MaxPayloadExt
	}
	size := max(frameOverhead+limit, scannerBlock)
	return &Scanner{r: r, limit: limit, buf: make([]byte, size)}
}

// ScanStats is the scanner's running tally.
type ScanStats struct {
	Frames  uint64 // valid frames returned
	Resyncs uint64 // corrupt candidates skipped (CRC/length failures)
	Skipped uint64 // bytes discarded hunting for sync
}

// Stats returns the running tally.
func (s *Scanner) Stats() ScanStats {
	return ScanStats{Frames: s.frames, Resyncs: s.resyncs, Skipped: s.skipped}
}

// Next returns the next frame. The returned frame's Payload aliases the
// scanner's buffer and is valid only until the following Next call —
// copy it to retain it (that aliasing is the 0 allocs/frame contract).
//
// Errors: ErrBadCRC and ErrPayloadTooLarge report a corrupt candidate
// the scanner has ALREADY resynchronized past — call Next again to
// continue. io.EOF means the stream ended cleanly (trailing garbage,
// if any, was discarded); io.ErrUnexpectedEOF means it ended inside a
// partial frame. Other errors are the reader's.
func (s *Scanner) Next() (*Frame, error) {
	for {
		// Hunt: drop bytes up to the next candidate sync.
		for s.start < s.end && s.buf[s.start] != syncByte {
			s.start++
			s.skipped++
		}
		if err := s.fill(frameOverhead); err != nil {
			return nil, s.eofState(err)
		}
		f, n, err := decodeInto(s.buf[s.start:s.end], s.limit)
		switch {
		case err == nil:
			s.start += n
			s.frames++
			s.frame = f
			return &s.frame, nil
		case errors.Is(err, ErrShortFrame):
			// Sync seen, body still in flight: extend to the claimed
			// total and retry. plen ≤ limit here (a too-large length
			// fails before ErrShortFrame), so the buffer always fits it.
			plen := int(s.buf[s.start+3])
			if err := s.fill(frameOverhead + plen); err != nil {
				return nil, s.eofState(err)
			}
		case errors.Is(err, ErrBadSync):
			// Freshly filled garbage ahead of the next sync: skip
			// silently and re-enter the hunt.
			s.start += n
			s.skipped += uint64(n)
		default:
			// Corrupt candidate: resynchronize to the next sync byte
			// inside its span and report it once.
			s.start += n
			s.skipped += uint64(n)
			s.resyncs++
			return nil, err
		}
	}
}

// fill ensures at least need unconsumed bytes are buffered, compacting
// the buffer when the tail lacks room. need never exceeds
// frameOverhead+limit, which the buffer is sized for.
func (s *Scanner) fill(need int) error {
	if s.end-s.start >= need {
		return nil
	}
	if s.start+need > len(s.buf) {
		copy(s.buf, s.buf[s.start:s.end])
		s.end -= s.start
		s.start = 0
	}
	for s.end-s.start < need {
		n, err := s.r.Read(s.buf[s.end:])
		s.end += n
		if err != nil {
			if s.end-s.start >= need {
				return nil
			}
			return err
		}
	}
	return nil
}

// eofState classifies a fill failure: trailing garbage is discarded and
// a clean EOF stays clean; bytes that begin a frame that can never
// complete turn it into io.ErrUnexpectedEOF.
func (s *Scanner) eofState(err error) error {
	for s.start < s.end && s.buf[s.start] != syncByte {
		s.start++
		s.skipped++
	}
	if err == io.EOF && s.start < s.end {
		return io.ErrUnexpectedEOF
	}
	return err
}
