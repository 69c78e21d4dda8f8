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
// 35.6-39.0 KB (2-vCPU Xeon, Go 1.24) with the raw-Z ring, the baseline
// ring and the baseline deques narrow (float32) on ADC-grid samples,
// the QRS and baseline rings fitted to their horizons and no ICG ring,
// plus 10%. Like the allocation budgets it only moves down — lower it
// when a change durably shrinks the session; never raise it to let a
// change pass. core.TestStreamerHeapPerStream ratchets the streamer
// alone.
const heapBudgetKB = 43

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
