package session

import (
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/physio"
)

// Lifecycle events: a client close ends the stream with exactly one
// KindSessionClosed (ReasonClient) whose tallies match AcceptStats; a
// health eviction inserts KindEviction immediately before it
// (ReasonDeadContact), and no event follows KindSessionClosed.
func TestSessionLifecycleEvents(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)

	t.Run("client-close", func(t *testing.T) {
		eng := NewEngine(dev, DefaultConfig())
		defer eng.Close()
		buf := event.NewBuffer(4096)
		s, err := eng.Subscribe(3, buf)
		if err != nil {
			t.Fatal(err)
		}
		ecg, z := in.channels(s.Seed(), s.ID)
		for pos := 0; pos < len(ecg); pos += 125 {
			end := min(pos+125, len(ecg))
			if err := s.Push(ecg[pos:end], z[pos:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		evs := buf.Drain(nil)
		if len(evs) == 0 {
			t.Fatal("no events")
		}
		last := evs[len(evs)-1]
		if last.Kind != event.KindSessionClosed || last.Reason != int(ReasonClient) {
			t.Fatalf("last event %v reason %d, want session-closed/client", last.Kind, last.Reason)
		}
		acc, em := s.AcceptStats()
		if last.Accepted != acc || last.Emitted != em {
			t.Fatalf("closed event tallies %d/%d, AcceptStats %d/%d", last.Accepted, last.Emitted, acc, em)
		}
		for _, e := range evs[:len(evs)-1] {
			if e.Kind == event.KindSessionClosed || e.Kind == event.KindEviction {
				t.Fatalf("premature lifecycle event %v", e.Kind)
			}
		}
	})

	t.Run("eviction", func(t *testing.T) {
		cfg := DefaultConfig()
		cfg.Health = HealthConfig{EvictBelowRate: 0.45, EvictAfterS: 1.5, GraceS: 1, NoBeatS: 3}
		eng := NewEngine(dev, cfg)
		defer eng.Close()
		buf := event.NewBuffer(4096)
		s, err := eng.Subscribe(4, buf)
		if err != nil {
			t.Fatal(err)
		}
		ecg, z := physio.DeadContact(s.Seed(), len(in.base[0][0]))
		evicted := false
		for pos := 0; pos < len(ecg); pos += 125 {
			end := min(pos+125, len(ecg))
			if err := s.Push(ecg[pos:end], z[pos:end]); err == ErrSessionEvicted {
				evicted = true
				break
			} else if err != nil {
				t.Fatal(err)
			}
		}
		if !evicted {
			if err := s.Close(); err != ErrSessionEvicted {
				t.Fatalf("dead-contact session not evicted (close: %v)", err)
			}
		}
		<-s.Done()
		evs := buf.Drain(nil)
		if len(evs) < 2 {
			t.Fatalf("%d events, want at least eviction+closed", len(evs))
		}
		last, prev := evs[len(evs)-1], evs[len(evs)-2]
		if prev.Kind != event.KindEviction || prev.Reason != int(ReasonDeadContact) {
			t.Fatalf("penultimate event %v reason %d, want eviction/dead-contact", prev.Kind, prev.Reason)
		}
		if last.Kind != event.KindSessionClosed || last.Reason != int(ReasonDeadContact) {
			t.Fatalf("last event %v reason %d, want session-closed/dead-contact", last.Kind, last.Reason)
		}
		if prev.Beat != last.Beat || prev.TimeS != last.TimeS {
			t.Fatalf("eviction and closed stamps disagree: %+v vs %+v", prev, last)
		}
	})
}

// KindMode events flow through the engine when Config.PMU arms the
// per-session governor, and the per-session event order is preserved.
func TestSessionModeEvents(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	pmu := core.DefaultPMU()
	pmu.MinDwellS = 2
	pmu.RateBeta = 0.5
	cfg := DefaultConfig()
	cfg.PMU = &pmu
	eng := NewEngine(dev, cfg)
	defer eng.Close()

	buf := event.NewBuffer(4096)
	s, err := eng.Subscribe(6, buf)
	if err != nil {
		t.Fatal(err)
	}
	// Live prefix then an impedance dropout: beats keep coming, the gate
	// rejects them, the governor must drop to eco.
	sub, _ := physio.SubjectByID(2)
	acq, err := dev.Acquire(&sub, 16)
	if err != nil {
		t.Fatal(err)
	}
	z := append([]float64(nil), acq.Z...)
	lo := int(8 * dev.Config().FS)
	for i := lo; i < len(z); i++ {
		z[i] = z[lo-1]
	}
	for pos := 0; pos < len(acq.ECG); pos += 125 {
		end := min(pos+125, len(acq.ECG))
		if err := s.Push(acq.ECG[pos:end], z[pos:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	sawEco := false
	for _, e := range buf.Drain(nil) {
		if e.Kind == event.KindMode && core.PowerMode(e.Mode) == core.ModeEco {
			sawEco = true
			if core.PowerMode(e.PrevMode) != core.ModeContinuous {
				t.Fatalf("eco entered from %v", core.PowerMode(e.PrevMode))
			}
		}
	}
	if !sawEco {
		t.Fatal("no ModeEco event on a collapsing accept rate")
	}
}

// Subscribers must receive events for concurrent sessions without
// interleaving violations: every event carries its session's stamp,
// per-session beat indices never decrease, a beat's stamp (its closing
// R) comes after its anchor (the opening R), and every session ends
// with KindSessionClosed.
func TestSubscribeManySessions(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Seed = 42
	eng := NewEngine(dev, cfg)
	defer eng.Close()

	const n = 16
	var mu sync.Mutex
	lastBeat := make(map[uint64]int)
	closed := make(map[uint64]bool)
	sink := func(id uint64) event.Sink {
		return event.Func(func(e event.Event) {
			mu.Lock()
			defer mu.Unlock()
			if e.Session != id {
				t.Errorf("session %d: event stamped session %d", id, e.Session)
			}
			if closed[id] {
				t.Errorf("session %d: event %v after session-closed", id, e.Kind)
			}
			if e.Beat < lastBeat[id] {
				t.Errorf("session %d: beat index %d after %d", id, e.Beat, lastBeat[id])
			}
			lastBeat[id] = e.Beat
			switch e.Kind {
			case event.KindBeat:
				if e.TimeS <= e.Params.TimeS {
					t.Errorf("session %d: beat stamp %.3f s not after its anchor %.3f s", id, e.TimeS, e.Params.TimeS)
				}
			case event.KindSessionClosed:
				closed[id] = true
			}
		})
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		s, err := eng.Subscribe(uint64(i), sink(uint64(i)))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(s *Session) {
			defer wg.Done()
			ecg, z := in.channels(s.Seed(), s.ID)
			for pos := 0; pos < len(ecg); pos += 125 {
				end := min(pos+125, len(ecg))
				if err := s.Push(ecg[pos:end], z[pos:end]); err != nil {
					t.Error(err)
					return
				}
			}
			if err := s.Close(); err != nil {
				t.Error(err)
			}
		}(s)
	}
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(closed) != n {
		t.Fatalf("%d sessions closed, want %d", len(closed), n)
	}
}

func TestSubscribeNilSinkRejected(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(dev, DefaultConfig())
	defer eng.Close()
	if _, err := eng.Subscribe(1, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}
