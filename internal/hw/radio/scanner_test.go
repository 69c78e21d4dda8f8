package radio

import (
	"bytes"
	"errors"
	"io"
	"math"
	"testing"
)

// mustEncode builds a valid frame encoding for tests.
func mustEncode(t *testing.T, typ, seq byte, payload []byte) []byte {
	t.Helper()
	buf, err := (&Frame{Type: typ, Seq: seq, Payload: payload}).Encode()
	if err != nil {
		t.Fatal(err)
	}
	return buf
}

// Regression (pre-fix: Decode returned consumed == 0 on ErrBadCRC and
// ErrPayloadTooLarge, looping any skip-consumed resync scanner
// forever): every decode error except a plausible short frame must
// return a positive skip.
func TestDecodeErrorsConsumePositive(t *testing.T) {
	valid := mustEncode(t, TypeBeat, 1, []byte{9, 9, 9})

	corrupt := append([]byte(nil), valid...)
	corrupt[5] ^= 0x01 // payload bit flip: CRC failure
	if _, n, err := Decode(corrupt); !errors.Is(err, ErrBadCRC) || n <= 0 {
		t.Errorf("bad CRC: n=%d err=%v, want positive skip", n, err)
	}

	tooLarge := append([]byte(nil), valid...)
	tooLarge[3] = MaxPayload + 1 // corrupt length byte
	if _, n, err := Decode(tooLarge); !errors.Is(err, ErrPayloadTooLarge) || n <= 0 {
		t.Errorf("payload too large: n=%d err=%v, want positive skip", n, err)
	}

	badSync := append([]byte{0x00, 0x13}, valid...)
	if _, n, err := Decode(badSync); !errors.Is(err, ErrBadSync) || n != 2 {
		t.Errorf("bad sync: n=%d err=%v, want skip 2 to the embedded sync", n, err)
	}

	// A plausible frame head that merely needs more bytes must NOT
	// skip: the caller is expected to extend the window.
	if _, n, err := Decode(valid[:4]); !errors.Is(err, ErrShortFrame) || n != 0 {
		t.Errorf("short frame: n=%d err=%v, want 0", n, err)
	}
}

// Regression: the error skip must land exactly on a sync byte embedded
// in the corrupt candidate's span, so a valid frame hiding inside a
// corrupt one (a flipped length byte swallowing the next frame) is
// recovered, not jumped over.
func TestDecodeSkipLandsOnEmbeddedFrame(t *testing.T) {
	inner := mustEncode(t, TypeStatus, 7, []byte{1, 2})
	// Outer candidate: claims a payload long enough to swallow inner,
	// with junk where its CRC would be — guaranteed CRC failure.
	outer := []byte{syncByte, TypeBeat, 3, byte(len(inner) + 2)}
	outer = append(outer, inner...)
	outer = append(outer, 0xDE, 0xAD, 0x13, 0x37) // junk + bogus CRC
	_, n, err := Decode(outer)
	if !errors.Is(err, ErrBadCRC) {
		t.Fatalf("err = %v, want ErrBadCRC", err)
	}
	if n != 4 {
		t.Fatalf("skip = %d, want 4 (offset of the embedded sync)", n)
	}
	got, _, err := Decode(outer[n:])
	if err != nil {
		t.Fatalf("embedded frame not recovered: %v", err)
	}
	if got.Type != TypeStatus || got.Seq != 7 || !bytes.Equal(got.Payload, []byte{1, 2}) {
		t.Errorf("embedded frame mismatch: %+v", got)
	}
}

// A resync loop over a corrupt-then-valid stream must terminate and
// find every valid frame (pre-fix it spun forever on the first error).
func TestDecodeResyncLoopTerminates(t *testing.T) {
	var stream []byte
	stream = append(stream, 0x10, 0x20, 0x30) // leading garbage
	bad := mustEncode(t, TypeBeat, 1, []byte{5})
	bad[len(bad)-1] ^= 0xFF // corrupt CRC
	stream = append(stream, bad...)
	stream = append(stream, mustEncode(t, TypeBeat, 2, []byte{6})...)
	stream = append(stream, 0x00) // trailing garbage

	var got []*Frame
	steps := 0
	for off := 0; off < len(stream); {
		f, n, err := Decode(stream[off:])
		if err != nil {
			if n <= 0 {
				n = 1 // ErrShortFrame tail: nothing more can decode
			}
			off += n
		} else {
			got = append(got, f)
			off += n
		}
		if steps++; steps > 10*len(stream) {
			t.Fatal("resync loop did not terminate")
		}
	}
	if len(got) != 1 || got[0].Seq != 2 {
		t.Fatalf("recovered %d frames, want the valid Seq=2 frame", len(got))
	}
}

func TestAppendToRoundTripWidePayload(t *testing.T) {
	payload := make([]byte, 200) // beyond the BLE limit, within the format's
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	f := &Frame{Type: 0x11, Seq: 9, Payload: payload}
	buf, err := f.AppendTo(nil)
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := decodeInto(buf, MaxPayloadExt)
	if err != nil || n != len(buf) {
		t.Fatalf("decode: n=%d err=%v", n, err)
	}
	if got.Type != f.Type || got.Seq != f.Seq || !bytes.Equal(got.Payload, payload) {
		t.Error("wide round trip mismatch")
	}
	// The BLE-limit decoder must reject it as oversized, with a skip.
	if _, n, err := Decode(buf); !errors.Is(err, ErrPayloadTooLarge) || n <= 0 {
		t.Errorf("BLE decode: n=%d err=%v", n, err)
	}
}

// nextValid returns the scanner's next valid frame, continuing past
// corrupt candidates (ErrBadCRC, ErrPayloadTooLarge) the way the radio
// monitors do; any other error ends the stream.
func nextValid(s *Scanner) (*Frame, error) {
	for {
		f, err := s.Next()
		if errors.Is(err, ErrBadCRC) || errors.Is(err, ErrPayloadTooLarge) {
			continue
		}
		return f, err
	}
}

// Regression (pre-fix: the per-call frame reader discarded a corrupt
// frame's in-flight bytes without rescanning them, permanently
// desyncing the stream): a valid frame embedded in a corrupt
// candidate's claimed span must still be read.
func TestScannerRecoversEmbeddedFrame(t *testing.T) {
	inner := mustEncode(t, TypeBeat, 42, []byte{8, 8})
	outer := []byte{syncByte, TypeBeat, 3, byte(len(inner) + 2)}
	outer = append(outer, inner...)
	outer = append(outer, 0xDE, 0xAD, 0x13, 0x37)
	got, err := nextValid(NewScanner(bytes.NewReader(outer)))
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got.Seq != 42 || !bytes.Equal(got.Payload, []byte{8, 8}) {
		t.Errorf("embedded frame lost: %+v", got)
	}
}

// Corrupt, garbage, then valid must yield the valid frame once the
// corrupt candidate is skipped, and then a clean io.EOF.
func TestScannerSkipsCorruption(t *testing.T) {
	var stream bytes.Buffer
	bad := mustEncode(t, TypeBeat, 1, []byte{1, 2, 3})
	bad[4] ^= 0x40
	stream.Write(bad)
	stream.Write([]byte{0x99, 0x00})
	stream.Write(mustEncode(t, TypeStatus, 2, []byte{4}))
	sc := NewScanner(&stream)
	got, err := nextValid(sc)
	if err != nil {
		t.Fatalf("Next: %v", err)
	}
	if got.Type != TypeStatus || got.Seq != 2 {
		t.Errorf("got %+v", got)
	}
	if _, err := nextValid(sc); err != io.EOF {
		t.Errorf("tail err = %v, want io.EOF", err)
	}
}

func TestScannerRecoversAcrossCorruption(t *testing.T) {
	var stream bytes.Buffer
	stream.Write([]byte{0x01, 0x02, 0x03}) // leading garbage
	stream.Write(mustEncode(t, TypeBeat, 1, []byte{0xAA}))
	bad := mustEncode(t, TypeBeat, 2, []byte{0xBB, 0xBC})
	bad[5] ^= 0x80 // corrupt
	stream.Write(bad)
	stream.Write([]byte{0x44}) // mid garbage
	stream.Write(mustEncode(t, TypeStatus, 3, []byte{0xCC, 0xCD, 0xCE}))
	stream.Write([]byte{0x55, 0x66}) // trailing garbage

	s := NewScanner(&stream)
	var seqs []byte
	var corrupt int
	for {
		f, err := s.Next()
		if err == io.EOF {
			break
		}
		if errors.Is(err, ErrBadCRC) || errors.Is(err, ErrPayloadTooLarge) {
			corrupt++
			continue
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		seqs = append(seqs, f.Seq)
	}
	if len(seqs) != 2 || seqs[0] != 1 || seqs[1] != 3 {
		t.Fatalf("recovered seqs %v, want [1 3]", seqs)
	}
	if corrupt != 1 {
		t.Errorf("corrupt candidates = %d, want 1", corrupt)
	}
	st := s.Stats()
	if st.Frames != 2 || st.Resyncs != 1 || st.Skipped == 0 {
		t.Errorf("stats = %+v", st)
	}
}

// A truncated final frame is a hard io.ErrUnexpectedEOF; pure trailing
// garbage stays a clean io.EOF.
func TestScannerEOFClassification(t *testing.T) {
	full := mustEncode(t, TypeBeat, 5, []byte{1, 2, 3})
	s := NewScanner(bytes.NewReader(full[:len(full)-2]))
	if _, err := s.Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("truncated frame: err = %v, want io.ErrUnexpectedEOF", err)
	}
	s = NewScanner(bytes.NewReader([]byte{0x01, 0x02, 0x03}))
	if _, err := s.Next(); err != io.EOF {
		t.Errorf("trailing garbage: err = %v, want io.EOF", err)
	}
}

// loopReader replays a byte pattern forever — an endless frame stream
// for the steady-state allocation test.
type loopReader struct {
	data []byte
	pos  int
}

func (l *loopReader) Read(p []byte) (int, error) {
	n := copy(p, l.data[l.pos:])
	l.pos += n
	if l.pos == len(l.data) {
		l.pos = 0
	}
	return n, nil
}

// The Scanner hot path is allocation-free in steady state.
func TestScannerZeroAllocSteadyState(t *testing.T) {
	var pattern []byte
	pattern = append(pattern, mustEncode(t, TypeBeat, 1, bytes.Repeat([]byte{7}, 14))...)
	pattern = append(pattern, 0x31, 0x41) // inter-frame garbage
	pattern = append(pattern, mustEncode(t, TypeStatus, 2, []byte{1})...)
	s := NewScanner(&loopReader{data: pattern})
	// Warm up (first fills may grow nothing, but be safe).
	for i := 0; i < 64; i++ {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	}
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := s.Next(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("Scanner.Next allocates %.1f/frame in steady state, want 0", allocs)
	}
}

// Regression (pre-fix: BeatStreamDuty priced every beat at exactly one
// transmission): the analytic duty must match a long simulated Link
// run's airtime accounting in expectation on a lossy link.
func TestBeatStreamDutyMatchesLinkSimulation(t *testing.T) {
	for _, tc := range []struct {
		loss    float64
		retries int
	}{
		{0, 3},
		{0.1, 3},
		{0.3, 5},
	} {
		cfg := LinkConfig{LossProb: tc.loss, MaxRetries: tc.retries, BitRate: 1e6, Overhead: 14}
		l := NewLink(cfg, 42)
		f := &Frame{Type: TypeBeat, Payload: (&BeatRecord{}).Marshal()}
		const beats = 200000
		hr := 72.0
		for i := 0; i < beats; i++ {
			l.Send(f)
		}
		sessionS := beats / (hr / 60)
		sim := l.DutyCycle(sessionS)
		analytic := BeatStreamDuty(hr, cfg)
		if rel := math.Abs(sim-analytic) / sim; rel > 0.02 {
			t.Errorf("loss=%g retries=%d: analytic %.6g vs simulated %.6g (rel err %.3f)",
				tc.loss, tc.retries, analytic, sim, rel)
		}
	}
}

func TestExpectedTransmissions(t *testing.T) {
	if got := ExpectedTransmissions(LinkConfig{LossProb: 0, MaxRetries: 3}); got != 1 {
		t.Errorf("lossless = %g", got)
	}
	if got := ExpectedTransmissions(LinkConfig{LossProb: 1, MaxRetries: 3}); got != 4 {
		t.Errorf("total loss = %g, want every attempt spent", got)
	}
	// p=0.5, retries=2: 1 + 0.5 + 0.25 = 1.75.
	if got := ExpectedTransmissions(LinkConfig{LossProb: 0.5, MaxRetries: 2}); math.Abs(got-1.75) > 1e-12 {
		t.Errorf("geometric sum = %g, want 1.75", got)
	}
}

func BenchmarkScannerNext(b *testing.B) {
	pattern := mustEncodeB(b, TypeBeat, 1, bytes.Repeat([]byte{7}, 14))
	s := NewScanner(&loopReader{data: pattern})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.Next(); err != nil {
			b.Fatal(err)
		}
	}
}

func mustEncodeB(b *testing.B, typ, seq byte, payload []byte) []byte {
	b.Helper()
	buf, err := (&Frame{Type: typ, Seq: seq, Payload: payload}).Encode()
	if err != nil {
		b.Fatal(err)
	}
	return buf
}
