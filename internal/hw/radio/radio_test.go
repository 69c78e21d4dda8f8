package radio

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"
)

func TestFrameRoundTrip(t *testing.T) {
	f := &Frame{Type: TypeBeat, Seq: 42, Payload: []byte{1, 2, 3, 4}}
	buf, err := f.Encode()
	if err != nil {
		t.Fatal(err)
	}
	got, n, err := Decode(buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(buf) {
		t.Errorf("consumed %d, want %d", n, len(buf))
	}
	if got.Type != f.Type || got.Seq != f.Seq || !bytes.Equal(got.Payload, f.Payload) {
		t.Errorf("round trip mismatch: %+v", got)
	}
}

func TestFrameRoundTripQuick(t *testing.T) {
	f := func(typ, seq byte, payload []byte) bool {
		if len(payload) > MaxPayload {
			payload = payload[:MaxPayload]
		}
		fr := &Frame{Type: typ, Seq: seq, Payload: payload}
		buf, err := fr.Encode()
		if err != nil {
			return false
		}
		got, _, err := Decode(buf)
		if err != nil {
			return false
		}
		return got.Type == typ && got.Seq == seq && bytes.Equal(got.Payload, payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestEncodeRejectsOversizedPayload(t *testing.T) {
	f := &Frame{Type: TypeBeat, Payload: make([]byte, 21)}
	if _, err := f.Encode(); err != ErrPayloadTooLarge {
		t.Errorf("err = %v", err)
	}
}

func TestDecodeDetectsCorruption(t *testing.T) {
	f := &Frame{Type: TypeBeat, Seq: 1, Payload: []byte{9, 9, 9}}
	buf, _ := f.Encode()
	// Flip one payload bit: CRC must catch it.
	buf[5] ^= 0x01
	if _, _, err := Decode(buf); err != ErrBadCRC {
		t.Errorf("corrupted frame: err = %v, want ErrBadCRC", err)
	}
	// Bad sync byte.
	buf2, _ := f.Encode()
	buf2[0] = 0x00
	if _, _, err := Decode(buf2); err != ErrBadSync {
		t.Errorf("bad sync: %v", err)
	}
	// Truncated.
	buf3, _ := f.Encode()
	if _, _, err := Decode(buf3[:4]); err != ErrShortFrame {
		t.Errorf("short frame: %v", err)
	}
}

func TestCRCDetectsAllSingleBitFlipsProperty(t *testing.T) {
	f := &Frame{Type: TypeBeat, Seq: 7, Payload: []byte{1, 2, 3, 4, 5, 6, 7, 8}}
	buf, _ := f.Encode()
	for byteIdx := 1; byteIdx < len(buf); byteIdx++ {
		for bit := 0; bit < 8; bit++ {
			cp := append([]byte(nil), buf...)
			cp[byteIdx] ^= 1 << uint(bit)
			if _, _, err := Decode(cp); err == nil {
				// A flip in the length byte may truncate; everything else
				// must fail CRC.
				t.Errorf("undetected flip at byte %d bit %d", byteIdx, bit)
			}
		}
	}
}

// TestCRC16KnownAnswer pins the checksum to the CRC-16/CCITT-FALSE
// specification. The roundtrip and fuzz tests only prove encode and
// decode agree with EACH OTHER — a wrong-but-self-consistent checksum
// (the classic table-generation bug) would sail through them, so the
// table-driven implementation is checked against the published check
// value and against the definitional bitwise form.
func TestCRC16KnownAnswer(t *testing.T) {
	// The standard check input for every CRC catalogue entry.
	if got := crc16([]byte("123456789")); got != 0x29B1 {
		t.Fatalf("crc16(123456789) = %#04x, want 0x29B1", got)
	}
	if got := crc16(nil); got != 0xFFFF {
		t.Fatalf("crc16(empty) = %#04x, want init value 0xFFFF", got)
	}
	bitwise := func(data []byte) uint16 {
		crc := uint16(0xFFFF)
		for _, b := range data {
			crc ^= uint16(b) << 8
			for i := 0; i < 8; i++ {
				if crc&0x8000 != 0 {
					crc = crc<<1 ^ 0x1021
				} else {
					crc <<= 1
				}
			}
		}
		return crc
	}
	data := make([]byte, 1024)
	x := uint32(1)
	for i := range data {
		x = x*1664525 + 1013904223
		data[i] = byte(x >> 24)
	}
	for _, n := range []int{0, 1, 2, 3, 7, 20, 255, 1024} {
		if got, want := crc16(data[:n]), bitwise(data[:n]); got != want {
			t.Fatalf("len %d: table crc %#04x != bitwise %#04x", n, got, want)
		}
	}
}

func TestStreamReadWrite(t *testing.T) {
	var buf bytes.Buffer
	frames := []*Frame{
		{Type: TypeBeat, Seq: 1, Payload: []byte{1}},
		{Type: TypeStatus, Seq: 2, Payload: []byte{2, 2}},
		{Type: TypeBeat, Seq: 3, Payload: []byte{3, 3, 3}},
	}
	for _, f := range frames {
		if err := WriteFrame(&buf, f); err != nil {
			t.Fatal(err)
		}
	}
	sc := NewScanner(&buf)
	for i, want := range frames {
		got, err := nextValid(sc)
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Seq != want.Seq || !bytes.Equal(got.Payload, want.Payload) {
			t.Errorf("frame %d mismatch", i)
		}
	}
}

func TestScannerResynchronizes(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0x00, 0x13, 0x77}) // garbage before the frame
	f := &Frame{Type: TypeBeat, Seq: 9, Payload: []byte{42}}
	if err := WriteFrame(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := nextValid(NewScanner(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 9 || got.Payload[0] != 42 {
		t.Errorf("resync failed: %+v", got)
	}
}

func TestBeatRecordRoundTrip(t *testing.T) {
	b := &BeatRecord{
		TimestampMs: 123456,
		Z0:          481.25,
		LVET:        0.2952,
		PEP:         0.0861,
		HR:          64.3,
	}
	buf := b.Marshal()
	if len(buf) != beatPayloadLen {
		t.Fatalf("payload len = %d", len(buf))
	}
	got, err := UnmarshalBeat(buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.TimestampMs != b.TimestampMs {
		t.Errorf("timestamp %d", got.TimestampMs)
	}
	if math.Abs(got.Z0-b.Z0) > 0.001 {
		t.Errorf("Z0 = %g", got.Z0)
	}
	if math.Abs(got.LVET-b.LVET) > 0.0001 {
		t.Errorf("LVET = %g", got.LVET)
	}
	if math.Abs(got.PEP-b.PEP) > 0.0001 {
		t.Errorf("PEP = %g", got.PEP)
	}
	if math.Abs(got.HR-b.HR) > 0.1 {
		t.Errorf("HR = %g", got.HR)
	}
}

func TestBeatRecordQuick(t *testing.T) {
	f := func(ts uint32, z0, lvet, pep, hr float64) bool {
		b := &BeatRecord{
			TimestampMs: ts,
			Z0:          math.Abs(math.Mod(z0, 4000)),
			LVET:        math.Abs(math.Mod(lvet, 0.5)),
			PEP:         math.Abs(math.Mod(pep, 0.3)),
			HR:          math.Abs(math.Mod(hr, 250)),
		}
		got, err := UnmarshalBeat(b.Marshal())
		if err != nil {
			return false
		}
		return math.Abs(got.Z0-b.Z0) <= 0.001 &&
			math.Abs(got.LVET-b.LVET) <= 0.0001 &&
			math.Abs(got.PEP-b.PEP) <= 0.0001 &&
			math.Abs(got.HR-b.HR) <= 0.1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnmarshalBeatRejectsBadLength(t *testing.T) {
	if _, err := UnmarshalBeat(make([]byte, 5)); err == nil {
		t.Error("short payload accepted")
	}
}

func TestLinkDelivery(t *testing.T) {
	cfg := DefaultLink()
	cfg.LossProb = 0
	l := NewLink(cfg, 1)
	f := &Frame{Type: TypeBeat, Payload: (&BeatRecord{}).Marshal()}
	for i := 0; i < 100; i++ {
		if !l.Send(f) {
			t.Fatal("lossless link dropped a frame")
		}
	}
	if l.Delivered != 100 || l.Dropped != 0 {
		t.Errorf("delivered=%d dropped=%d", l.Delivered, l.Dropped)
	}
	if l.AirtimeS <= 0 {
		t.Error("no airtime accounted")
	}
}

func TestLinkRetransmitsOnLoss(t *testing.T) {
	cfg := DefaultLink()
	cfg.LossProb = 0.3
	cfg.MaxRetries = 5
	l := NewLink(cfg, 7)
	f := &Frame{Type: TypeBeat, Payload: []byte{1}}
	n := 2000
	for i := 0; i < n; i++ {
		l.Send(f)
	}
	if l.Retries == 0 {
		t.Error("no retries at 30% loss")
	}
	// With 5 retries at p=0.3, delivery is ~1-0.3^6 ~ 99.93%.
	rate := float64(l.Delivered) / float64(n)
	if rate < 0.995 {
		t.Errorf("delivery rate = %g", rate)
	}
}

func TestLinkDutyCycle(t *testing.T) {
	cfg := DefaultLink()
	cfg.LossProb = 0
	l := NewLink(cfg, 3)
	f := &Frame{Type: TypeBeat, Payload: (&BeatRecord{}).Marshal()}
	// One beat per second for 60 s.
	for i := 0; i < 60; i++ {
		l.Send(f)
	}
	duty := l.DutyCycle(60)
	// ~34 bytes on air per beat at 1 Mbps ~ 0.027% duty: far below the
	// paper's 1% budget.
	if duty <= 0 || duty > 0.01 {
		t.Errorf("duty = %g, want (0, 1%%]", duty)
	}
}

func TestBeatStreamDutyMatchesPaperClaim(t *testing.T) {
	// Sending only {Z0, LVET, PEP, HR} at 60-180 bpm keeps the radio
	// well below 1% duty (Section V: "we use just 0.1% of the duty
	// cycle of the Radio").
	for _, hr := range []float64{60, 90, 180} {
		d := BeatStreamDuty(hr, DefaultLink())
		if d <= 0 || d > 0.001 {
			t.Errorf("HR=%g: duty = %g, want <= 0.1%%", hr, d)
		}
	}
	if BeatStreamDuty(60, LinkConfig{}) != 0 {
		t.Error("zero bitrate should return 0")
	}
}

func TestLinkDeterministic(t *testing.T) {
	cfg := DefaultLink()
	cfg.LossProb = 0.2
	f := &Frame{Type: TypeBeat, Payload: []byte{1, 2}}
	a := NewLink(cfg, 99)
	b := NewLink(cfg, 99)
	for i := 0; i < 500; i++ {
		if a.Send(f) != b.Send(f) {
			t.Fatal("link nondeterministic for equal seeds")
		}
	}
}

func TestConnConfigValid(t *testing.T) {
	if !DefaultConn().Valid() {
		t.Error("default invalid")
	}
	if (ConnConfig{IntervalS: 0.001}).Valid() {
		t.Error("below BLE minimum accepted")
	}
	if (ConnConfig{IntervalS: 5}).Valid() {
		t.Error("above BLE maximum accepted")
	}
	if (ConnConfig{IntervalS: 0.1, SlaveLatency: -1}).Valid() {
		t.Error("negative latency accepted")
	}
}

func TestScheduleLatencyBounds(t *testing.T) {
	cfg := ConnConfig{IntervalS: 0.1}
	// Beats at ~1 Hz for 30 s.
	var times []float64
	for i := 0; i < 30; i++ {
		times = append(times, float64(i)+0.037)
	}
	res := Schedule(times, cfg)
	if res.Records != 30 {
		t.Errorf("records = %d", res.Records)
	}
	// Latency is bounded by one interval.
	if res.WorstLatency > cfg.IntervalS+1e-12 {
		t.Errorf("worst latency %g exceeds the interval", res.WorstLatency)
	}
	if res.MeanLatency <= 0 || res.MeanLatency > cfg.IntervalS {
		t.Errorf("mean latency = %g", res.MeanLatency)
	}
	if res.EventsUsed != 30 {
		t.Errorf("events used = %d", res.EventsUsed)
	}
	if res.EventsTotal < res.EventsUsed {
		t.Error("total events below used events")
	}
}

func TestScheduleSharedEvents(t *testing.T) {
	// Two records inside the same interval share one event.
	cfg := ConnConfig{IntervalS: 1.0}
	res := Schedule([]float64{0.1, 0.2, 1.4}, cfg)
	if res.EventsUsed != 2 {
		t.Errorf("events used = %d, want 2", res.EventsUsed)
	}
}

func TestScheduleDegenerate(t *testing.T) {
	if res := Schedule(nil, DefaultConn()); res.Records != 0 {
		t.Error("empty schedule")
	}
	if res := Schedule([]float64{1}, ConnConfig{IntervalS: 99}); res.EventsUsed != 0 {
		t.Error("invalid config should schedule nothing")
	}
}

func TestEventDuty(t *testing.T) {
	cfg := ConnConfig{IntervalS: 0.1, SlaveLatency: 4}
	// 0.5 ms of air per event, events every 0.5 s with latency 4.
	d := EventDuty(cfg, 0.0005)
	if math.Abs(d-0.001) > 1e-12 {
		t.Errorf("event duty = %g, want 0.001", d)
	}
	if EventDuty(ConnConfig{}, 0.0005) != 0 {
		t.Error("invalid config duty should be 0")
	}
}
