package session

import (
	"bytes"
	"fmt"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wal"
)

// Opening a session only registers it: the streamer is taken from the
// pool on the session's worker at its first chunk (Session.streamer).
// These tests pin what a caller can observe of a session before that —
// its latency, and the lifecycle of a session that never pushed —
// against the eager construction the engine used to do in open.

// eagerClose is the oracle for a session that closes before its first
// chunk: the streamer open used to build and arm at subscribe time
// (restored from snap when non-nil, as Reopen does), flushed and read
// the way finish reads it. It returns the session's KindSessionClosed
// event and the payload of its final WAL snapshot.
func eagerClose(e *Engine, id uint64, snap *core.StreamSnapshot, accepted, emitted int) (event.Event, []byte) {
	st := e.streamers.New().(*core.Streamer)
	if snap != nil {
		st.Restore(*snap)
	}
	st.Flush()
	hs := st.Health()
	beat, tS := st.Clock()
	closed := event.Event{
		Kind:       event.KindSessionClosed,
		Session:    id,
		Beat:       beat,
		TimeS:      tS,
		AcceptEWMA: hs.AcceptEWMA,
		Reason:     int(ReasonClient),
		Accepted:   accepted,
		Emitted:    emitted,
	}
	return closed, appendSessionSnapshot(nil, st.Snapshot(), accepted, emitted)
}

// walEngine is a WAL-armed engine on an in-memory log.
func walEngine(t *testing.T, dev *core.Device) (*Engine, *wal.Log) {
	t.Helper()
	log, err := wal.Open("w", wal.Config{FS: wal.NewMemFS(), SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { log.Close() })
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.WAL = log
	return NewEngine(dev, cfg), log
}

// checkUnpushedClose compares a finished session's last event and
// final WAL snapshot with the eager oracle: the event field for field,
// the snapshot byte for byte.
func checkUnpushedClose(t *testing.T, log *wal.Log, rec *evRec, want event.Event, wantSnap []byte) {
	t.Helper()
	evs := rec.events()
	if len(evs) == 0 {
		t.Fatal("no events")
	}
	if got := evs[len(evs)-1]; got != want {
		t.Fatalf("closed event\n got %+v\nwant %+v", got, want)
	}
	_, snap, ok := log.Snapshot(want.Session)
	if !ok {
		t.Fatal("no final WAL snapshot")
	}
	if !bytes.Equal(snap, wantSnap) {
		t.Fatalf("final WAL snapshot differs from the eager oracle:\n got %x\nwant %x", snap, wantSnap)
	}
}

// A session that never pushed closes exactly like one that built its
// streamer at Subscribe: subscribed then closed, closed idle by
// Engine.Close, and re-admitted by Reopen then closed before its first
// chunk.
func TestUnpushedSessionMatchesEagerOracle(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// A session that never pushed reports the zero-beats state.
	fresh := event.Event{Kind: event.KindSessionClosed, Session: 7, AcceptEWMA: 1}

	t.Run("subscribe-close", func(t *testing.T) {
		eng, log := walEngine(t, dev)
		defer eng.Close()
		rec := &evRec{}
		s, err := eng.Subscribe(7, rec)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.barrier(); err != nil {
			t.Fatal(err)
		}
		if s.st != nil {
			t.Fatal("a session holds a streamer before its first chunk")
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		want, snap := eagerClose(eng, 7, nil, 0, 0)
		if want != fresh {
			t.Fatalf("oracle close event %+v, want %+v", want, fresh)
		}
		checkUnpushedClose(t, log, rec, want, snap)
		if n := len(rec.events()); n != 1 {
			t.Fatalf("%d events, want only KindSessionClosed", n)
		}
	})

	t.Run("engine-close-idle", func(t *testing.T) {
		eng, log := walEngine(t, dev)
		rec := &evRec{}
		if _, err := eng.Subscribe(7, rec); err != nil {
			t.Fatal(err)
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		want, snap := eagerClose(eng, 7, nil, 0, 0)
		if want != fresh {
			t.Fatalf("oracle close event %+v, want %+v", want, fresh)
		}
		checkUnpushedClose(t, log, rec, want, snap)
	})

	t.Run("reopen-close", func(t *testing.T) {
		eng, log := walEngine(t, dev)
		defer eng.Close()
		in := makeInputs(t, dev, 8)
		s, err := eng.Subscribe(7, event.Discard)
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
		_, payload, ok := log.Snapshot(7)
		if !ok {
			t.Fatal("no snapshot to reopen from")
		}
		snap, acc, em, ok := decodeSessionSnapshot(payload)
		if !ok {
			t.Fatal("undecodable snapshot")
		}
		if em == 0 {
			t.Fatal("the first session emitted no beats")
		}

		rec := &evRec{}
		s2, err := eng.Reopen(7, rec, ReopenOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := s2.Close(); err != nil {
			t.Fatal(err)
		}
		want, wantSnap := eagerClose(eng, 7, &snap, acc, em)
		checkUnpushedClose(t, log, rec, want, wantSnap)
		if evs := rec.events(); len(evs) != 2 || evs[0].Kind != event.KindReadmit {
			t.Fatalf("reopened stream %v, want KindReadmit then KindSessionClosed", evs)
		}
	})
}

// Latency needs no streamer: from Subscribe on it reports what a
// freshly built streamer of the engine's configuration reports (2.5 s
// at the paper's defaults), before any chunk; 0 once the session
// finished.
func TestSessionLatencyBeforeFirstChunk(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	eng := NewEngine(dev, cfg)
	defer eng.Close()
	s, err := eng.Subscribe(1, event.Discard)
	if err != nil {
		t.Fatal(err)
	}
	want := dev.NewStreamer(cfg.Stream).Latency()
	if got := s.Latency(); got != want {
		t.Fatalf("Latency before the first chunk = %v, want %v", got, want)
	}
	if got := fmt.Sprintf("%.1f", s.Latency()); got != "2.5" {
		t.Fatalf("default Latency prints %s s, want 2.5 s", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if got := s.Latency(); got != 0 {
		t.Fatalf("Latency after Close = %v, want 0", got)
	}
}

// The worker takes the streamer at the first chunk while the session's
// owner reads it: Latency, Reason, AcceptStats and Engine.Stats must
// not race with that (run with -race).
func TestSessionFirstChunkRace(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 1)
	cfg := DefaultConfig()
	cfg.Workers = 2
	eng := NewEngine(dev, cfg)
	defer eng.Close()
	const n = 8
	for i := 0; i < n; i++ {
		s, err := eng.Subscribe(uint64(i), event.Discard)
		if err != nil {
			t.Fatal(err)
		}
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if s.Latency() != eng.latency {
					t.Error("Latency changed while the session was open")
					return
				}
				_ = s.Reason()
				_, _ = s.AcceptStats()
				_ = eng.Stats()
			}
		}()
		ecg, z := in.channels(s.Seed(), s.ID)
		if err := s.Push(ecg[:50], z[:50]); err != nil {
			t.Fatal(err)
		}
		if err := s.barrier(); err != nil {
			t.Fatal(err)
		}
		close(stop)
		wg.Wait()
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if s.Latency() != 0 {
			t.Fatal("Latency after Close is not 0")
		}
	}
}

// BenchmarkEngineSubscribe measures opening a session: registration
// only, no streamer. Sessions are closed in batches off the clock.
func BenchmarkEngineSubscribe(b *testing.B) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	eng := NewEngine(dev, DefaultConfig())
	defer eng.Close()
	const batch = 1024
	open := make([]*Session, 0, batch)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := eng.Subscribe(uint64(i), event.Discard)
		if err != nil {
			b.Fatal(err)
		}
		if open = append(open, s); len(open) == batch {
			b.StopTimer()
			for _, s := range open {
				if err := s.Close(); err != nil {
					b.Fatal(err)
				}
			}
			open = open[:0]
			b.StartTimer()
		}
	}
}
