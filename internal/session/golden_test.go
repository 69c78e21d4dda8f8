package session

import (
	"path/filepath"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/goldentest"
	"repro/internal/physio"
)

// The serving layer must reproduce the committed golden beat trace
// (internal/core/testdata, regenerated with `go test ./internal/core/
// -run TestGolden -update`) byte for byte: a real session.Engine with
// concurrent workers, health eviction armed, and radio-packet-sized
// chunks emits exactly the stream-block beats for the golden subject.
func TestGoldenEngineMatchesStreamTrace(t *testing.T) {
	const goldenSeconds = 12.0
	want, err := goldentest.ReadBlock(filepath.Join("..", "core", "testdata", "golden_subject1.txt"), "stream")
	if err != nil {
		t.Fatalf("golden stream block (go test ./internal/core/ -run TestGolden -update): %v", err)
	}

	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sub, _ := physio.SubjectByID(1)
	acq, err := dev.Acquire(&sub, goldenSeconds)
	if err != nil {
		t.Fatal(err)
	}
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Seed = 42
	// Health armed with the serving defaults: a golden (live) subject
	// must never trip eviction.
	cfg.Health = HealthConfig{EvictBelowRate: 0.2}
	eng := NewEngine(dev, cfg)
	defer eng.Close()

	feed := func(s *Session) {
		t.Helper()
		for pos := 0; pos < len(acq.ECG); pos += 50 {
			end := pos + 50
			if end > len(acq.ECG) {
				end = len(acq.ECG)
			}
			if err := s.Push(acq.ECG[pos:end], acq.Z[pos:end]); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
	}
	fs := dev.Config().FS
	// Every KindBeat of a subscribed session is byte-identical to the
	// committed stream block, and the stream ends with exactly one
	// KindSessionClosed. The second pass reopens the same ID (same
	// seed) on the streamer the first pass returned to the pool.
	for pass := 0; pass < 2; pass++ {
		buf := event.NewBuffer(4096)
		s, err := eng.Subscribe(1, buf)
		if err != nil {
			t.Fatal(err)
		}
		feed(s)
		evs := buf.Drain(nil)
		if len(evs) == 0 || evs[len(evs)-1].Kind != event.KindSessionClosed {
			t.Fatalf("pass %d: session did not end with session-closed", pass)
		}
		i := 0
		for _, e := range evs {
			if e.Kind != event.KindBeat {
				continue
			}
			if i >= len(want) {
				t.Fatalf("pass %d: more beat events than the %d golden lines", pass, len(want))
			}
			if line := goldentest.Line(fs, e.Params); line != want[i] {
				t.Fatalf("pass %d beat event %d: %q != golden %q", pass, i, line, want[i])
			}
			i++
		}
		if i != len(want) {
			t.Fatalf("pass %d: %d beat events, golden stream block has %d", pass, i, len(want))
		}
	}
}
