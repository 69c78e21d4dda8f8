package core

import (
	"testing"

	"repro/internal/event"
	"repro/internal/physio"
)

// Steady-state per-hop streaming benchmarks at the default 6 s window
// and at a doubled one: the incremental engine's per-hop cost must not
// scale with WindowSeconds. BENCHMARKS.md records the numbers.

func benchAcq(b *testing.B, d *Device) *Acquisition {
	b.Helper()
	sub, _ := physio.SubjectByID(1)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		b.Fatal(err)
	}
	return acq
}

// benchHops drives st steady-state: one 1 s hop per iteration, cycling
// through a 30 s acquisition, with its events delivered to a Buffer
// sink drained into a reused slice each hop (the serving pattern).
func benchHops(b *testing.B, acq *Acquisition, st *Streamer) {
	hop := int(acq.FS)
	n := len(acq.ECG) - hop
	buf := event.NewBuffer(256)
	st.Emit(buf, 1)
	dst := make([]event.Event, 0, 256)
	total := 0
	push := func(pos int) {
		st.Push(acq.ECG[pos:pos+hop], acq.Z[pos:pos+hop])
		dst = buf.Drain(dst[:0])
		total += len(dst)
	}
	// Warm up: fill delay lines before measuring.
	for i := 0; i < 8; i++ {
		push((i * hop) % n)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		push(((i + 8) * hop) % n)
	}
	if b.N > 30 && total == 0 {
		b.Fatal("no events emitted")
	}
}

func BenchmarkStreamHopIncremental(b *testing.B) {
	d, err := NewDevice(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	benchHops(b, benchAcq(b, d), d.NewStreamer(DefaultStreamConfig()))
}

// Doubled analysis window: the incremental engine's per-hop cost must
// stay flat.
func BenchmarkStreamHopIncremental12s(b *testing.B) {
	d, err := NewDevice(DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	sc := DefaultStreamConfig()
	sc.WindowSeconds = 12
	benchHops(b, benchAcq(b, d), d.NewStreamer(sc))
}
