package session

import (
	"testing"

	"repro/internal/core"
	"repro/internal/event"
)

// testHealth is the eviction policy used by the single-session tests:
// tight windows so an 8 s recording is enough to trigger.
var testHealth = HealthConfig{EvictBelowRate: 0.45, EvictAfterS: 1.5, GraceS: 1, NoBeatS: 3}

func TestHealthConfigDefaults(t *testing.T) {
	if (HealthConfig{}).Enabled() {
		t.Fatal("zero HealthConfig must be disabled")
	}
	if !(HealthConfig{EvictBelowRate: 0.2}).Enabled() {
		t.Fatal("rate-floor config must be enabled")
	}
	if !(HealthConfig{NoBeatS: 60}).Enabled() {
		t.Fatal("drought-only config must be enabled")
	}
	h := HealthConfig{EvictBelowRate: 0.2}.withDefaults()
	if h.EvictAfterS != 30 || h.GraceS != 10 || h.NoBeatS != 40 {
		t.Fatalf("defaults not resolved: %+v", h)
	}
	h = HealthConfig{EvictBelowRate: 0.2, NoBeatS: -1}.withDefaults()
	if h.NoBeatS >= 0 {
		t.Fatalf("negative NoBeatS must stay disabled: %+v", h)
	}
}

// A dead-contact session must be evicted: pushes start failing with
// ErrSessionEvicted, and the subscriber's stream ends with exactly one
// KindEviction and one KindSessionClosed carrying ReasonDeadContact and
// the triggering health reading.
func TestEvictionDeadContact(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Seed = 42
	cfg.Health = testHealth
	eng := NewEngine(dev, cfg)
	defer eng.Close()

	buf := event.NewBuffer(4096)
	s, err := eng.Subscribe(66, buf)
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := in.deadChannels(s.Seed(), s.ID)
	var pushErr error
	for pos := 0; pos < len(ecg); pos += 50 {
		end := pos + 50
		if end > len(ecg) {
			end = len(ecg)
		}
		if pushErr = s.Push(ecg[pos:end], z[pos:end]); pushErr != nil {
			break
		}
	}
	if pushErr == nil {
		// All pushes landed before the worker caught up; the eviction
		// still happens while draining the backlog (Close may then
		// return nil — its flush was enqueued before the cut).
		if err := s.Close(); err != nil && err != ErrSessionEvicted {
			t.Fatal(err)
		}
	} else if pushErr != ErrSessionEvicted {
		t.Fatalf("dead-contact push failed oddly: %v", pushErr)
	}
	<-s.Done()
	if got := s.Reason(); got != ReasonDeadContact {
		t.Fatalf("Reason() = %v, want ReasonDeadContact", got)
	}
	if err := s.Push([]float64{1}, []float64{1}); err != ErrSessionEvicted {
		t.Fatalf("push after eviction: %v", err)
	}
	if err := s.PushOwned([]float64{1}, []float64{1}); err != ErrSessionEvicted {
		t.Fatalf("PushOwned after eviction: %v", err)
	}
	if eng.Len() != 0 {
		t.Fatalf("evicted session still registered: %d", eng.Len())
	}

	var evictions, closes []event.Event
	for _, e := range buf.Drain(nil) {
		switch e.Kind {
		case event.KindEviction:
			evictions = append(evictions, e)
		case event.KindSessionClosed:
			closes = append(closes, e)
		}
	}
	if len(evictions) != 1 || len(closes) != 1 {
		t.Fatalf("%d eviction and %d close events, want 1 each", len(evictions), len(closes))
	}
	ev := evictions[0]
	if ev.Session != 66 || ev.Reason != int(ReasonDeadContact) || closes[0].Reason != int(ReasonDeadContact) {
		t.Fatalf("bad lifecycle events: %+v, %+v", ev, closes[0])
	}
	if ev.TimeS <= 0 {
		t.Fatalf("eviction event carries no signal clock: %+v", ev)
	}
	if ev.Beat > 0 && ev.AcceptEWMA >= testHealth.EvictBelowRate {
		t.Fatalf("evicted with healthy EWMA: %+v", ev)
	}
}

// A live session must sail through the same eviction policy untouched
// and close with ReasonClient.
func TestHealthySessionSurvives(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Seed = 42
	cfg.Health = testHealth
	eng := NewEngine(dev, cfg)
	defer eng.Close()

	buf := event.NewBuffer(4096)
	s, err := eng.Subscribe(5, buf)
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := in.channels(s.Seed(), s.ID)
	for pos := 0; pos < len(ecg); pos += 50 {
		end := pos + 50
		if end > len(ecg) {
			end = len(ecg)
		}
		if err := s.Push(ecg[pos:end], z[pos:end]); err != nil {
			t.Fatalf("live session rejected at %d: %v", pos, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Reason(); got != ReasonClient {
		t.Fatalf("Reason() = %v, want ReasonClient", got)
	}
	beats := 0
	var reasons []int
	for _, e := range buf.Drain(nil) {
		switch e.Kind {
		case event.KindBeat:
			beats++
		case event.KindEviction, event.KindSessionClosed:
			reasons = append(reasons, e.Reason)
		}
	}
	if beats == 0 {
		t.Fatal("no beats from live session")
	}
	if len(reasons) != 1 || reasons[0] != int(ReasonClient) {
		t.Fatalf("lifecycle reasons %v, want [client]", reasons)
	}
}

// An evicted session's streamer goes back to the pool reset: a clean
// session opened right after must reproduce the exact hash a fresh
// engine produces.
func TestEvictedStreamerRecycledClean(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)

	runClean := func(eng *Engine, id uint64) uint64 {
		h := newEvHasher()
		s, err := eng.Subscribe(id, h)
		if err != nil {
			t.Fatal(err)
		}
		ecg, z := in.channels(s.Seed(), s.ID)
		for pos := 0; pos < len(ecg); pos += 250 {
			end := pos + 250
			if end > len(ecg) {
				end = len(ecg)
			}
			if err := s.Push(ecg[pos:end], z[pos:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return h.h.Sum64()
	}

	cfg := DefaultConfig()
	cfg.Workers = 1 // one worker: the recycled streamer is reused for sure
	cfg.Seed = 42
	cfg.Health = testHealth
	eng := NewEngine(dev, cfg)
	defer eng.Close()

	// Fresh-engine reference for session 3.
	want := runClean(eng, 3)

	// Evict a dead session, then replay session 3 through the pool.
	s, err := eng.Subscribe(99, event.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := in.deadChannels(s.Seed(), s.ID)
	evicted := false
	for pos := 0; pos < len(ecg); pos += 50 {
		end := pos + 50
		if end > len(ecg) {
			end = len(ecg)
		}
		if err := s.Push(ecg[pos:end], z[pos:end]); err == ErrSessionEvicted {
			evicted = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !evicted {
		if err := s.Close(); err != nil && err != ErrSessionEvicted {
			t.Fatal(err)
		}
	}
	<-s.Done()
	if got := s.Reason(); got != ReasonDeadContact {
		t.Fatalf("dead session not evicted: Reason() = %v", got)
	}
	if got := runClean(eng, 3); got != want {
		t.Fatalf("streamer recycled from eviction changes output: %x vs %x", got, want)
	}
}

// The zero-beats contract of Session.AcceptRate: exactly 1 before any
// emitted beat, accepted/emitted after.
func TestSessionAcceptRateZeroBeats(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(dev, DefaultConfig())
	defer eng.Close()
	s, err := eng.Subscribe(1, event.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if acc, em := s.AcceptStats(); acc != 0 || em != 0 {
		t.Fatalf("fresh session stats %d/%d, want 0/0", acc, em)
	}
	if r := s.AcceptRate(); r != 1 {
		t.Fatalf("fresh session AcceptRate %g, want exactly 1 (zero-beats contract)", r)
	}
	// A few samples that complete no beat must keep the contract.
	small := make([]float64, 25)
	if err := s.Push(small, small); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if r := s.AcceptRate(); r != 1 {
		t.Fatalf("beatless session AcceptRate %g, want exactly 1", r)
	}
	in := makeInputs(t, dev, 8)
	s2, err := eng.Subscribe(2, event.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := in.channels(s2.Seed(), s2.ID)
	for pos := 0; pos < len(ecg); pos += 250 {
		end := pos + 250
		if end > len(ecg) {
			end = len(ecg)
		}
		if err := s2.Push(ecg[pos:end], z[pos:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	acc, em := s2.AcceptStats()
	if em == 0 {
		t.Fatal("no beats emitted")
	}
	if r, want := s2.AcceptRate(), float64(acc)/float64(em); r != want {
		t.Fatalf("AcceptRate %g, want %g", r, want)
	}
}
