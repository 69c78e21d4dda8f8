package core

import (
	"runtime"
	"testing"

	"repro/internal/event"
	"repro/internal/physio"
)

// Allocation regression tests for the steady-state processing paths.
// The filter bank is designed once per Device, all full-length DSP
// intermediates live in the pooled scratch arena, the per-beat
// characteristic-point detector draws its intermediates from the same
// arena and writes its results into one block (icg.DetectBeatInto),
// the gate streams are pooled, and hemo.SeriesWith/SummarizeGated
// allocate exact-size or shared-scratch buffers — so a warmed-up
// Process only allocates what the Output retains. The seed
// implementation allocated ~2200 objects and ~2.6 MB per 30 s window;
// PR 1 brought that to ~1000, the incremental-engine PR to ~400, and
// the quality-gate PR to ~340 (with gating enabled). The budgets lock
// the reductions in with headroom for noise.
func TestProcessSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	sub, _ := physio.SubjectByID(1)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	// Warm the arena pool and the filter caches.
	if _, err := d.Process(acq); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := d.Process(acq); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 350 {
		t.Errorf("steady-state Process allocates %.0f objects/run, budget 350 (seed: ~2200, PR 2: ~400)", allocs)
	}
}

// The incremental streaming engine conditions every sample exactly once
// and analyzes each beat exactly once, so a steady-state 1 s hop must
// allocate almost nothing. Events are its only output and are measured
// as the engine serves them: a Buffer sink armed with the health floor,
// drained into a reused slice each hop. The rolling filtfilt cache (PR 7)
// cut the per-beat refilter scratch to ~14 objects/hop measured; the
// budget rides just above that.
func TestStreamerSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	d, acq := allocFixture(t)
	st := d.NewStreamer(DefaultStreamConfig())
	buf := event.NewBuffer(256)
	st.Emit(buf, 1)
	st.SetHealthFloor(0.2)
	dst := make([]event.Event, 0, 256)
	allocs := hopAllocs(st, acq, func() { dst = buf.Drain(dst[:0]) })
	if allocs > 20 {
		t.Errorf("steady-state Push allocates %.0f objects/hop, budget 20", allocs)
	}
}

// Typed event delivery must add ZERO allocations per beat on the
// streaming hot path: an Event is a flat value built on the stack and
// copied into the Buffer sink's preallocated ring, so a streamer armed
// with a Buffer sink and the health floor allocates no more than one
// delivering to event.Discard. Both streamers replay the identical hop
// schedule, so the comparison is exact, not statistical.
func TestStreamerEventDeliveryAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	d, acq := allocFixture(t)
	discardAllocs := hopAllocs(d.NewStreamer(DefaultStreamConfig()), acq, func() {})

	st := d.NewStreamer(DefaultStreamConfig())
	buf := event.NewBuffer(256)
	st.Emit(buf, 1)
	st.SetHealthFloor(0.2)
	dst := make([]event.Event, 0, 256)
	evAllocs := hopAllocs(st, acq, func() { dst = buf.Drain(dst[:0]) })
	if evAllocs > discardAllocs {
		t.Errorf("Buffer-armed Push allocates %.0f objects/hop, Discard sink %.0f — event delivery must be free",
			evAllocs, discardAllocs)
	}
}

// allocFixture returns a device and a 30 s acquisition of subject 1.
func allocFixture(t *testing.T) (*Device, *Acquisition) {
	t.Helper()
	sub, _ := physio.SubjectByID(1)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 30)
	if err != nil {
		t.Fatal(err)
	}
	return d, acq
}

// hopAllocs pushes acq through st in 1 s hops, wrapping at the end, and
// returns the objects allocated per hop after a 10-hop warm-up that fills
// the delay lines and settles the detectors. after runs once per hop.
func hopAllocs(st *Streamer, acq *Acquisition, after func()) float64 {
	hop := 250
	pos := 0
	push := func() {
		end := pos + hop
		if end > len(acq.ECG) {
			pos = 0
			end = hop
		}
		st.Push(acq.ECG[pos:end], acq.Z[pos:end])
		after()
		pos = end
	}
	for i := 0; i < 10; i++ {
		push()
	}
	return testing.AllocsPerRun(10, push)
}

// Ending a session must not allocate in proportion to the pipeline's
// lookahead: the ECG chain's drain (the baseline cascade's four stage
// tails piped through the later stages, then the zero-phase FIR's)
// ping-pongs between arena buffers, as Push does. A warmed-up
// streamer's Flush of 10 s of subject 1 allocated 78 objects (6.6 KB
// of them the drain's) before; 3 are left, the analysis of the beat
// the drain completes (icg.DetectBeatWith's result block), and the
// budget rides just above that.
func TestStreamerFlushAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation inflates allocation counts")
	}
	d, acq := allocFixture(t)
	st := d.NewStreamer(DefaultStreamConfig())
	const runs = 5
	var ms runtime.MemStats
	var allocs uint64
	for i := 0; i <= runs; i++ {
		st.Reset()
		for pos := 0; pos < 2500; pos += 250 {
			st.Push(acq.ECG[pos:pos+250], acq.Z[pos:pos+250])
		}
		runtime.ReadMemStats(&ms)
		before := ms.Mallocs
		st.Flush()
		runtime.ReadMemStats(&ms)
		if i > 0 { // the first run warms the arena pool
			allocs += ms.Mallocs - before
		}
	}
	if perFlush := float64(allocs) / runs; perFlush > 5 {
		t.Errorf("Flush allocates %.1f objects, budget 5 (78 before the drain used the arena)", perFlush)
	}
}
