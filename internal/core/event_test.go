package core

import (
	"testing"

	"repro/internal/event"
	"repro/internal/physio"
)

// Event-layer laws at the streamer level:
//
//   - Event-sequence chunk invariance: the FULL typed stream (beats,
//     health-floor transitions, governor mode flips) is byte-identical
//     for any chunking, because every event is emitted at the beat
//     where it became true.
//   - Stamps: every event carries the armed session, the beat index
//     never decreases, and a beat's stamp (its closing R) comes after
//     its anchor (the opening R).
//   - Reset rewinds the per-session event state (sink, stamp, governor)
//     so pooled streamers carry no residue.

// eventKey flattens an event for byte-comparison across runs.
func eventKey(e event.Event) [10]float64 {
	below := 0.0
	if e.Below {
		below = 1
	}
	return [10]float64{
		float64(e.Kind), float64(e.Session), float64(e.Beat), e.TimeS,
		e.Params.TimeS, e.AcceptEWMA, below, e.Floor,
		float64(e.Mode), float64(e.PrevMode),
	}
}

// dropoutTrace builds the event-layer stimulus: a live recording whose
// impedance channel flattens for a mid-session stretch (a finger
// lifting off the ICG electrodes while the ECG lead holds), so beats
// keep arriving but the gate rejects them — the accept EWMA decays
// below the floor, the governor drops to eco, and the EWMA recovers
// once contact returns.
func dropoutTrace(t *testing.T, dev *Device) (ecg, z []float64) {
	t.Helper()
	sub, _ := physio.SubjectByID(2)
	acq, err := dev.Acquire(&sub, 26)
	if err != nil {
		t.Fatal(err)
	}
	fs := dev.Config().FS
	z = append([]float64(nil), acq.Z...)
	lo, hi := int(10*fs), int(17*fs)
	for i := lo; i < hi; i++ {
		z[i] = z[lo-1]
	}
	return acq.ECG, z
}

// eventRun streams the trace with the health floor and governor armed
// and returns the full typed event sequence.
func eventRun(t *testing.T, dev *Device, ecg, z []float64, chunk int) []event.Event {
	t.Helper()
	st := dev.NewStreamer(StreamConfig{})
	st.SetHealthFloor(0.45)
	// A governor tight enough to flip inside the 26 s trace: short
	// dwell, fast smoothing (the default 20 s dwell is a serving-scale
	// setting).
	pmu := DefaultPMU()
	pmu.MinDwellS = 4
	pmu.RateBeta = 0.4
	st.ArmGovernor(pmu)
	buf := event.NewBuffer(1 << 14)
	st.Emit(buf, 1)
	pushChunks(st, ecg, z, every(chunk))
	return buf.Drain(nil)
}

func TestStreamerEventSequenceChunkInvariant(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := dropoutTrace(t, dev)

	ref := eventRun(t, dev, ecg, z, 125)
	var nBeat, nHealth, nMode int
	for _, e := range ref {
		switch e.Kind {
		case event.KindBeat:
			nBeat++
		case event.KindHealth:
			nHealth++
		case event.KindMode:
			nMode++
		}
	}
	if nBeat == 0 || nHealth == 0 || nMode == 0 {
		t.Fatalf("trace must exercise all streamer kinds: %d beats, %d health, %d mode", nBeat, nHealth, nMode)
	}
	// The dead tail must have produced a below-floor transition and a
	// continuous->eco governor flip, in that order within their beat.
	for _, chunk := range []int{1, 33, 250, 1000} {
		got := eventRun(t, dev, ecg, z, chunk)
		if len(got) != len(ref) {
			t.Fatalf("chunk %d: %d events, reference has %d", chunk, len(got), len(ref))
		}
		for i := range got {
			if eventKey(got[i]) != eventKey(ref[i]) || got[i].Params != ref[i].Params {
				t.Fatalf("chunk %d event %d deviates\ngot: %+v\nref: %+v", chunk, i, got[i], ref[i])
			}
		}
	}
}

// Per-attempt ordering law: KindBeat, then KindHealth, then KindMode —
// never interleaved otherwise within one beat index. Every event is
// stamped with the armed session, beat indices never decrease, and a
// beat's stamp (its closing R) is strictly after its opening-R anchor.
func TestStreamerEventOrderWithinBeat(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := dropoutTrace(t, dev)
	evs := eventRun(t, dev, ecg, z, 125)
	rank := map[event.Kind]int{event.KindBeat: 0, event.KindHealth: 1, event.KindMode: 2}
	for i, e := range evs {
		if e.Session != 1 {
			t.Fatalf("event %d stamped session %d, want 1", i, e.Session)
		}
		if e.Kind == event.KindBeat && e.TimeS <= e.Params.TimeS {
			t.Fatalf("beat event %d: stamp %.3f s not after beat anchor %.3f s", i, e.TimeS, e.Params.TimeS)
		}
		if i == 0 {
			continue
		}
		a := evs[i-1]
		if e.Beat < a.Beat {
			t.Fatalf("event %d: beat index went backwards (%d after %d)", i, e.Beat, a.Beat)
		}
		if a.Beat == e.Beat && rank[a.Kind] >= rank[e.Kind] {
			t.Fatalf("events %d,%d violate the per-beat order law: %v then %v at beat %d",
				i-1, i, a.Kind, e.Kind, a.Beat)
		}
	}
}

// Reset must clear the per-session event state (sink and stamp) and
// rewind the armed governor, so a pooled streamer replays its input to
// an identical event stream.
func TestStreamerEventStateAcrossReset(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := physio.SubjectByID(1)
	acq, err := dev.Acquire(&sub, 8)
	if err != nil {
		t.Fatal(err)
	}
	st := dev.NewStreamer(StreamConfig{})
	st.SetHealthFloor(0.45)
	st.ArmGovernor(DefaultPMU())
	buf := event.NewBuffer(1024)
	st.Emit(buf, 5)
	st.Push(acq.ECG, acq.Z)
	st.Flush()
	first := buf.Drain(nil)

	st.Reset()
	// After Reset the sink is disarmed: events go to event.Discard.
	st.Push(acq.ECG, acq.Z)
	st.Flush()
	if n := buf.Len(); n != 0 {
		t.Fatalf("Reset streamer still delivered %d events to the old sink", n)
	}

	// Re-armed, the recycled streamer reproduces the event stream.
	st.Reset()
	st.Emit(buf, 5)
	st.Push(acq.ECG, acq.Z)
	st.Flush()
	second := buf.Drain(nil)
	if len(first) != len(second) {
		t.Fatalf("recycled streamer emitted %d events, first run %d", len(second), len(first))
	}
	for i := range first {
		if eventKey(first[i]) != eventKey(second[i]) || first[i].Params != second[i].Params {
			t.Fatalf("event %d differs across Reset\nfirst:  %+v\nsecond: %+v", i, first[i], second[i])
		}
	}
}
