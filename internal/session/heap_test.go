package session

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// heapBudgetKB is the ratchet on the live heap one open session holds
// (streamer, session bookkeeping, its share of the engine): measured at
// 14.8-16.0 KB over eight runs (2-vCPU Xeon, Go 1.24) with the raw-Z
// ring holding exactly its readers' horizon packed a byte a sample,
// the baseline ring and the ECG band-pass's carry holding 16-bit ADC
// codes, the baseline's four sliding extrema one window-length float32
// block buffer each on ADC-grid samples, the QRS conditioned and
// baseline rings fitted to their horizons plus their streams' minimum
// sub-chunks, the QRS band-passed ring to its own horizon plus that
// sub-chunk, no ICG ring and 56 B backlog slots, plus 10% to the whole
// KB. Like the allocation budgets it only moves down — lower it when a
// change durably shrinks the session; never raise it to let a change
// pass. The streamer alone is ratcheted by
// core.TestStreamerHeapPerStream.
const heapBudgetKB = 18

// TestEngineHeapPerSession pins the per-session live heap: 1000
// subscribed sessions each fed 10 s of 50-sample PushOwned chunks, with
// every chunk processed and every session still open, must add at most
// heapBudgetKB of live heap per session.
func TestEngineHeapPerSession(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heap budget runs 1000 sessions without -short or -race")
	}
	const n, chunk, seconds = 1000, 50, 10
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, seconds)
	eng := NewEngine(dev, DefaultConfig())
	defer eng.Close()
	discard := event.Func(func(event.Event) {})

	before := liveHeap()
	sessions := make([]*Session, n)
	for i := range sessions {
		if sessions[i], err = eng.Subscribe(uint64(i), discard); err != nil {
			t.Fatal(err)
		}
	}
	for pos := 0; pos < len(in.base[0][0]); pos += chunk {
		for i, s := range sessions {
			b := in.base[i%len(in.base)]
			end := min(pos+chunk, len(b[0]))
			ecg := append([]float64(nil), b[0][pos:end]...)
			z := append([]float64(nil), b[1][pos:end]...)
			if err := s.PushOwned(ecg, z); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, s := range sessions {
		if err := s.barrier(); err != nil {
			t.Fatal(err)
		}
	}
	perKB := float64(liveHeap()-before) / 1024 / n
	// The inputs were live when before was read: they must be at the
	// closing read too, or the sessions are short-changed by their size.
	runtime.KeepAlive(in)
	runtime.KeepAlive(sessions)
	t.Logf("live heap per open session: %.1f KB (budget %d KB)", perKB, heapBudgetKB)
	if perKB > heapBudgetKB {
		t.Errorf("live heap per session %.1f KB exceeds the %d KB budget", perKB, heapBudgetKB)
	}
}

// idleHeapBudgetKB is the ratchet on the live heap of a session that
// is subscribed but has not pushed: it holds no streamer, only its
// registration. Measured at 0.427-0.436 KB (2-vCPU Xeon, Go 1.24),
// plus 10%; lower only, like heapBudgetKB.
const idleHeapBudgetKB = 0.48

// TestEngineHeapPerIdleSession pins that opening a session is O(1) in
// memory: 1000 subscribed sessions with no chunk must add at most
// idleHeapBudgetKB of live heap per session — not a streamer each.
func TestEngineHeapPerIdleSession(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heap budget runs 1000 sessions without -short or -race")
	}
	const n = 1000
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(dev, DefaultConfig())
	defer eng.Close()
	discard := event.Func(func(event.Event) {})

	before := liveHeap()
	sessions := make([]*Session, n)
	for i := range sessions {
		if sessions[i], err = eng.Subscribe(uint64(i), discard); err != nil {
			t.Fatal(err)
		}
	}
	perKB := float64(liveHeap()-before) / 1024 / n
	runtime.KeepAlive(sessions)
	t.Logf("live heap per idle session: %.3f KB (budget %.2f KB)", perKB, idleHeapBudgetKB)
	if perKB > idleHeapBudgetKB {
		t.Errorf("live heap per idle session %.2f KB exceeds the %.2f KB budget", perKB, idleHeapBudgetKB)
	}
}

// liveHeap collects garbage and returns the live heap it marked. The
// second collection frees what sync.Pools held over from the first (the
// pools of earlier tests' engines included), so only reachable memory
// is counted.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}

// A streamer whose session widened its raw-sample storage to float64
// (a dead contact's dithered samples) must not go back to the pool:
// Reset keeps the width, so the next session would hold the wide
// rings. After a dead-contact session closes, a session on ADC-grid
// samples on the same engine holds a narrow streamer.
func TestEnginePoolsOnlyNarrowStreamers(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 4)
	cfg := DefaultConfig()
	cfg.Workers = 1
	eng := NewEngine(dev, cfg)
	defer eng.Close()
	discard := event.Func(func(event.Event) {})

	dead, err := eng.Subscribe(1, discard)
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := in.deadChannels(dead.Seed(), dead.ID)
	if err := dead.Push(ecg, z); err != nil {
		t.Fatal(err)
	}
	if err := dead.barrier(); err != nil {
		t.Fatal(err)
	}
	wide := dead.st
	if wide.Narrow() {
		t.Fatal("dead-contact samples left the streamer narrow")
	}
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}
	<-dead.Done()

	live, err := eng.Subscribe(2, discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := live.Push(in.base[0][0], in.base[0][1]); err != nil {
		t.Fatal(err)
	}
	if err := live.barrier(); err != nil {
		t.Fatal(err)
	}
	if live.st == wide || !live.st.Narrow() {
		t.Fatalf("live session got the widened streamer back from the pool (same %v, narrow %v)", live.st == wide, live.st.Narrow())
	}
}
