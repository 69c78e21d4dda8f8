package session

import (
	"bytes"
	"errors"
	"hash/fnv"
	"math"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/goldentest"
	"repro/internal/physio"
	"repro/internal/wal"
)

// byteRec records the canonical WAL encoding of every event it
// receives, so "the same stream" is literal byte equality.
type byteRec struct {
	mu  sync.Mutex
	buf []byte
}

func (r *byteRec) Emit(e event.Event) {
	r.mu.Lock()
	r.buf = wal.EncodeEvent(r.buf, &e)
	r.mu.Unlock()
}

func (r *byteRec) bytes() []byte {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]byte(nil), r.buf...)
}

// evRec retains the events themselves (read after the session's Done).
type evRec struct {
	mu  sync.Mutex
	evs []event.Event
}

func (r *evRec) Emit(e event.Event) {
	r.mu.Lock()
	r.evs = append(r.evs, e)
	r.mu.Unlock()
}

func (r *evRec) events() []event.Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]event.Event(nil), r.evs...)
}

func TestSessionSnapshotCodec(t *testing.T) {
	snap := core.StreamSnapshot{
		Beat:     421,
		TimeS:    137.25,
		LastMode: core.PowerMode(2),
		HasGate:  true,
		HasGov:   true,
	}
	snap.Gate.AcceptEWMA = 0.77
	snap.Gate.Accepted = 310
	snap.Gate.Total = 400
	snap.Gate.RunLo = -1.25
	snap.Gate.RunHi = 2.5
	snap.Gate.HaveExt = true
	snap.Gate.TemplateN = 17
	for i := range snap.Gate.Template {
		snap.Gate.Template[i] = float64(i) * 0.01
	}
	snap.Gov.EWMA = 0.61
	snap.Gov.Started = true
	snap.Gov.QMode = core.PowerMode(1)
	snap.Gov.QSince = 99.5
	snap.Gov.Flips = 3

	b := appendSessionSnapshot(nil, snap, 310, 400)
	if len(b) != snapLen {
		t.Fatalf("encoded %d bytes, want %d", len(b), snapLen)
	}
	got, acc, em, ok := decodeSessionSnapshot(b)
	if !ok || got != snap || acc != 310 || em != 400 {
		t.Fatalf("roundtrip mismatch: ok=%v acc=%d em=%d\n got %+v\nwant %+v", ok, acc, em, got, snap)
	}
	// Malformed payloads are rejected, never mis-decoded (the snapshot
	// blob rides inside a CRC-framed record, but the decoder must not
	// trust that).
	if _, _, _, ok := decodeSessionSnapshot(b[:len(b)-1]); ok {
		t.Fatal("decode accepted a truncated snapshot")
	}
	bad := append([]byte(nil), b...)
	bad[0] = snapVersion + 1
	if _, _, _, ok := decodeSessionSnapshot(bad); ok {
		t.Fatal("decode accepted an unknown version")
	}
	bad = append([]byte(nil), b...)
	bad[41] = 2 // HasGate boolean byte out of range
	if _, _, _, ok := decodeSessionSnapshot(bad); ok {
		t.Fatal("decode accepted a malformed boolean byte")
	}
}

func TestPushValidation(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	eng := NewEngine(dev, DefaultConfig())
	defer eng.Close()
	s, err := eng.Subscribe(1, event.Discard)
	if err != nil {
		t.Fatal(err)
	}
	// Length mismatch is a typed error, not a panic.
	if err := s.Push(make([]float64, 10), make([]float64, 9)); !errors.Is(err, ErrChannelMismatch) {
		t.Fatalf("Push mismatched lengths = %v, want ErrChannelMismatch", err)
	}
	if err := s.PushOwned(make([]float64, 3), make([]float64, 7)); !errors.Is(err, ErrChannelMismatch) {
		t.Fatalf("PushOwned mismatched lengths = %v, want ErrChannelMismatch", err)
	}
	// Non-finite samples are rejected under the default policy — the
	// chunk is not consumed and the session stays usable.
	ecg, z := in.channels(s.Seed(), s.ID)
	for _, poke := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		dirty := append([]float64(nil), ecg[:100]...)
		dirty[57] = poke
		if err := s.Push(dirty, z[:100]); !errors.Is(err, ErrNonFiniteSample) {
			t.Fatalf("Push ecg with %v = %v, want ErrNonFiniteSample", poke, err)
		}
		dirtyZ := append([]float64(nil), z[:100]...)
		dirtyZ[3] = poke
		if err := s.PushOwned(append([]float64(nil), ecg[:100]...), dirtyZ); !errors.Is(err, ErrNonFiniteSample) {
			t.Fatalf("PushOwned z with %v = %v, want ErrNonFiniteSample", poke, err)
		}
	}
	// The rejected chunks did not advance the session: a full clean feed
	// still produces its beats.
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
	if _, em := s.AcceptStats(); em == 0 {
		t.Fatal("no beats after rejected chunks — rejection consumed input")
	}
}

// The sanitize policy must be exactly sample-and-hold per channel:
// feeding a dirty stream under NonFiniteSanitize produces the identical
// event stream to feeding the hand-sanitized stream under the default
// policy — which also proves the gate's session extremes never see an
// infinity.
func TestSanitizePolicyEquivalence(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	cfg := DefaultConfig()
	cfg.Seed = 42
	seed := NewEngine(dev, Config{Seed: 42}).SessionSeed(1) // resolve the session seed once
	ecg, z := in.channels(seed, 1)

	pokes := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	dirtyE := append([]float64(nil), ecg...)
	dirtyZ := append([]float64(nil), z...)
	dirtyE[0] = math.NaN() // leading hole: held sample is 0
	dirtyZ[1] = math.Inf(1)
	for i := 0; i < 200; i++ {
		p := int(sm64u(uint64(i)) % uint64(len(ecg)))
		dirtyE[p] = pokes[i%3]
		dirtyZ[(p+7)%len(z)] = pokes[(i+1)%3]
	}
	cleanE := append([]float64(nil), dirtyE...)
	cleanZ := append([]float64(nil), dirtyZ...)
	hold := func(ch []float64) {
		last := 0.0
		for i, v := range ch {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				ch[i] = last
			} else {
				last = v
			}
		}
	}
	hold(cleanE)
	hold(cleanZ)

	run := func(policy NonFinitePolicy, ecg, z []float64) (uint64, int) {
		cfg := DefaultConfig()
		cfg.Workers = 2
		cfg.Seed = 42
		cfg.NonFinite = policy
		eng := NewEngine(dev, cfg)
		defer eng.Close()
		h := newEvHasher()
		s, err := eng.Subscribe(1, h)
		if err != nil {
			t.Fatal(err)
		}
		for pos := 0; pos < len(ecg); pos += 125 {
			end := pos + 125
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
		return h.h.Sum64(), h.beats
	}
	gotHash, gotBeats := run(NonFiniteSanitize, dirtyE, dirtyZ)
	wantHash, wantBeats := run(NonFiniteReject, cleanE, cleanZ)
	if gotBeats == 0 {
		t.Fatal("sanitized stream produced no beats")
	}
	if gotHash != wantHash || gotBeats != wantBeats {
		t.Fatalf("sanitize policy diverged from hand-held stream: hash %x/%x beats %d/%d",
			gotHash, wantHash, gotBeats, wantBeats)
	}
}

// sm64u is the test-local splitmix64 (mirrors Engine.SessionSeed).
func sm64u(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// A worker panic (a corrupted stage, modeled by the chunk hook) must
// close exactly the panicking session — lifecycle order preserved,
// typed errors to its pushers — while every other session's event
// stream stays byte-identical and the engine keeps serving.
func TestWorkerPanicIsolation(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	const n = 16
	const victim = 3

	run := func(poison bool) ([n]uint64, []event.Event) {
		cfg := DefaultConfig()
		cfg.Workers = 4
		cfg.Seed = 42
		eng := NewEngine(dev, cfg)
		defer eng.Close()
		if poison {
			eng.chunkHook = func(id uint64, chunk int) {
				if id == victim && chunk == 5 {
					panic("stage corrupted")
				}
			}
		}
		var hashes [n]uint64
		var victimEvents []event.Event
		for i := 0; i < n; i++ {
			h := newEvHasher()
			rec := &evRec{}
			var sink event.Sink = h
			if i == victim {
				sink = event.Tee{h, rec}
			}
			s, err := eng.Subscribe(uint64(i), sink)
			if err != nil {
				t.Fatal(err)
			}
			ecg, z := in.channels(s.Seed(), s.ID)
			failed := false
			for pos := 0; pos < len(ecg); pos += 125 {
				end := pos + 125
				if end > len(ecg) {
					end = len(ecg)
				}
				if err := s.Push(ecg[pos:end], z[pos:end]); err != nil {
					if errors.Is(err, ErrSessionFailed) && i == victim && poison {
						failed = true
						break
					}
					t.Fatal(err)
				}
			}
			err = s.Close()
			switch {
			case i == victim && poison:
				if !failed && !errors.Is(err, ErrSessionFailed) {
					t.Fatalf("victim Close = %v, want ErrSessionFailed", err)
				}
				<-s.Done()
				if got := s.Reason(); got != ReasonInternalError {
					t.Fatalf("victim Reason = %v, want ReasonInternalError", got)
				}
				// The failed session stays typed-closed for late pushers.
				if err := s.Push(ecg[:10], z[:10]); !errors.Is(err, ErrSessionFailed) {
					t.Fatalf("victim Push after failure = %v, want ErrSessionFailed", err)
				}
				victimEvents = rec.events()
			case err != nil:
				t.Fatal(err)
			}
			<-s.Done()
			hashes[i] = h.h.Sum64()
		}
		// The engine keeps serving after the panic.
		s, err := eng.Subscribe(uint64(n+1), event.Discard)
		if err != nil {
			t.Fatal(err)
		}
		ecg, z := in.channels(s.Seed(), s.ID)
		if err := s.Push(ecg[:500], z[:500]); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		return hashes, victimEvents
	}

	ref, _ := run(false)
	got, victimEvents := run(true)
	for i := 0; i < n; i++ {
		if i == victim {
			continue
		}
		if got[i] != ref[i] {
			t.Fatalf("session %d: event hash changed because session %d panicked", i, victim)
		}
	}
	// Lifecycle order: the victim's stream ends Eviction → SessionClosed,
	// both carrying ReasonInternalError.
	if len(victimEvents) < 2 {
		t.Fatalf("victim emitted %d events, want at least eviction+closed", len(victimEvents))
	}
	ev, cl := victimEvents[len(victimEvents)-2], victimEvents[len(victimEvents)-1]
	if ev.Kind != event.KindEviction || CloseReason(ev.Reason) != ReasonInternalError {
		t.Fatalf("penultimate victim event = %v reason %v, want eviction/internal-error", ev.Kind, ev.Reason)
	}
	if cl.Kind != event.KindSessionClosed || CloseReason(cl.Reason) != ReasonInternalError {
		t.Fatalf("final victim event = %v reason %v, want session-closed/internal-error", cl.Kind, cl.Reason)
	}
}

// SubscribeFrom must deliver the SAME byte stream to a late subscriber
// as a from-the-start subscriber saw: WAL backfill up to the splice
// point, live events after, no gap, no duplicate.
func TestSubscribeFromBackfillParity(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	fs := wal.NewMemFS()
	log, err := wal.Open("w", wal.Config{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Seed = 42
	cfg.WAL = log
	cfg.SnapshotEveryS = 2
	eng := NewEngine(dev, cfg)
	defer eng.Close()

	// No-WAL engines refuse the durable surfaces loudly.
	plain := NewEngine(dev, DefaultConfig())
	if err := plain.SubscribeFrom(1, event.Discard); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("SubscribeFrom without WAL = %v, want ErrNoWAL", err)
	}
	if _, err := plain.Reopen(1, event.Discard, ReopenOptions{}); !errors.Is(err, ErrNoWAL) {
		t.Fatalf("Reopen without WAL = %v, want ErrNoWAL", err)
	}
	plain.Close()
	if err := eng.SubscribeFrom(99, event.Discard); !errors.Is(err, ErrSessionClosed) {
		t.Fatalf("SubscribeFrom unknown id = %v, want ErrSessionClosed", err)
	}

	full := &byteRec{}
	s, err := eng.Subscribe(7, full)
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := in.channels(s.Seed(), s.ID)
	half := (len(ecg) / 2 / 125) * 125
	for pos := 0; pos < half; pos += 125 {
		if err := s.Push(ecg[pos:pos+125], z[pos:pos+125]); err != nil {
			t.Fatal(err)
		}
	}
	late := &byteRec{}
	if err := eng.SubscribeFrom(7, late); err != nil {
		t.Fatal(err)
	}
	for pos := half; pos < len(ecg); pos += 125 {
		end := pos + 125
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
	<-s.Done()
	if a, b := full.bytes(), late.bytes(); !bytes.Equal(a, b) {
		t.Fatalf("late subscriber stream (%d bytes) != from-start stream (%d bytes)", len(b), len(a))
	}
	if len(full.bytes()) == 0 {
		t.Fatal("no events recorded")
	}
}

// Quarantined re-admit: a dead-contact eviction arms a wall-clock
// cool-down; Reopen before it elapses fails typed, after it elapses the
// session rehydrates from its eviction-time snapshot (KindReadmit with
// Restored=true, warm template, continued clocks).
func TestReopenQuarantineReadmit(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	fs := wal.NewMemFS()
	log, err := wal.Open("w", wal.Config{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()

	var clockMu sync.Mutex
	now := time.Unix(1000, 0)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Seed = 42
	cfg.WAL = log
	cfg.SnapshotEveryS = 1
	cfg.QuarantineS = 60
	cfg.Clock = func() time.Time {
		clockMu.Lock()
		defer clockMu.Unlock()
		return now
	}
	cfg.Health = HealthConfig{EvictBelowRate: 0.45, EvictAfterS: 1.5, GraceS: 1, NoBeatS: 3}
	eng := NewEngine(dev, cfg)
	defer eng.Close()

	s, err := eng.Subscribe(5, event.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := in.deadChannels(s.Seed(), s.ID)
	evicted := false
	for pos := 0; pos < len(ecg); pos += 125 {
		end := pos + 125
		if end > len(ecg) {
			end = len(ecg)
		}
		if err := s.Push(ecg[pos:end], z[pos:end]); errors.Is(err, ErrSessionEvicted) {
			evicted = true
			break
		} else if err != nil {
			t.Fatal(err)
		}
	}
	if !evicted {
		if err := s.Close(); !errors.Is(err, ErrSessionEvicted) {
			t.Fatalf("dead-contact session was not evicted (Close = %v)", err)
		}
	}
	<-s.Done()
	if s.Reason() != ReasonDeadContact {
		t.Fatalf("Reason = %v, want ReasonDeadContact", s.Reason())
	}

	// Inside the cool-down every open path refuses.
	if _, err := eng.Subscribe(5, event.Discard); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Subscribe during quarantine = %v, want ErrQuarantined", err)
	}
	if _, err := eng.Reopen(5, event.Discard, ReopenOptions{}); !errors.Is(err, ErrQuarantined) {
		t.Fatalf("Reopen during quarantine = %v, want ErrQuarantined", err)
	}

	clockMu.Lock()
	now = now.Add(61 * time.Second)
	clockMu.Unlock()

	rec := &evRec{}
	s2, err := eng.Reopen(5, rec, ReopenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	first := rec.events()
	if len(first) != 1 || first[0].Kind != event.KindReadmit {
		t.Fatalf("re-admitted stream starts with %v, want exactly one KindReadmit", first)
	}
	re := first[0]
	if !re.Restored {
		t.Fatal("readmit Restored = false, want snapshot rehydration")
	}
	if re.Beat <= 0 || re.TimeS <= 0 {
		t.Fatalf("readmit clocks not restored: beat %d, t %.2f", re.Beat, re.TimeS)
	}
	// The dead-contact snapshot's gate state sat below the eviction
	// floor, so the re-admit re-locks cold: the readmit reports the
	// zero-beats EWMA, not the poisoned eviction-time reading.
	if re.AcceptEWMA != 1 {
		t.Fatalf("readmit AcceptEWMA %.3f, want the cold-re-lock zero-beats value 1", re.AcceptEWMA)
	}
	// Warm continuation on live input: the restored session produces
	// beats, stamped monotonically past the restored clocks.
	live, liveZ := in.channels(s2.Seed(), s2.ID)
	for pos := 0; pos < len(live); pos += 125 {
		end := pos + 125
		if end > len(live) {
			end = len(live)
		}
		if err := s2.Push(live[pos:end], liveZ[pos:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	<-s2.Done()
	evs := rec.events()
	beats := 0
	last := re.TimeS
	for _, e := range evs[1:] {
		if e.TimeS < last {
			t.Fatalf("event time went backwards after restore: %.3f after %.3f", e.TimeS, last)
		}
		last = e.TimeS
		if e.Kind == event.KindBeat {
			beats++
			if e.Beat <= re.Beat {
				t.Fatalf("beat clock did not continue: beat %d after readmit at %d", e.Beat, re.Beat)
			}
		}
	}
	if beats == 0 {
		t.Fatal("re-admitted session produced no beats")
	}
	if evs[len(evs)-1].Kind != event.KindSessionClosed {
		t.Fatal("re-admitted stream did not end with session-closed")
	}
	// The readmit round-tripped through the WAL like every other event.
	var kinds []event.Kind
	if err := log.ReplaySession(5, func(e event.Event) { kinds = append(kinds, e.Kind) }); err != nil {
		t.Fatal(err)
	}
	found := false
	for _, k := range kinds {
		if k == event.KindReadmit {
			found = true
		}
	}
	if !found {
		t.Fatal("KindReadmit missing from the WAL replay")
	}
}

// killRestoreRun drives the two-phase crash/restore fleet: phase 1
// pushes chunks [0, killChunk) into a WAL-armed engine and kills it
// (abort — no flush, no lifecycle, exactly SIGKILL's ledger), phase 2
// recovers the log from the same media, re-admits every session with
// backfill and pushes the remaining chunks. Returns the FNV hash of
// each session's full phase-2 canonical byte stream (backfill + readmit
// + live). When refBytes is non-nil, the recovered per-session WAL
// content is additionally checked to be a byte prefix of the
// uninterrupted reference stream.
func killRestoreRun(t *testing.T, dev *core.Device, in *testInputs, n, workers, chunk, killChunk int, health HealthConfig, refBytes [][]byte) []uint64 {
	t.Helper()
	fs := wal.NewMemFS()
	log, err := wal.Open("w", wal.Config{FS: fs, SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	mkCfg := func(w *wal.Log) Config {
		cfg := DefaultConfig()
		cfg.Workers = workers
		cfg.Seed = 42
		cfg.Health = health
		cfg.WAL = w
		cfg.SnapshotEveryS = 1
		return cfg
	}
	eng := NewEngine(dev, mkCfg(log))
	sessions := make([]*Session, n)
	for i := 0; i < n; i++ {
		s, err := eng.Subscribe(uint64(i), event.Discard)
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	feed := func(s *Session, from, to int) {
		var ecg, z []float64
		if s.ID%8 == 7 {
			ecg, z = in.deadChannels(s.Seed(), s.ID)
		} else {
			ecg, z = in.channels(s.Seed(), s.ID)
		}
		for c := from; c < to; c++ {
			pos := c * chunk
			if pos >= len(ecg) {
				break
			}
			end := pos + chunk
			if end > len(ecg) {
				end = len(ecg)
			}
			err := s.Push(ecg[pos:end], z[pos:end])
			if errors.Is(err, ErrSessionEvicted) {
				return
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}
	var wg sync.WaitGroup
	pushers := 16
	wg.Add(pushers)
	for p := 0; p < pushers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += pushers {
				feed(sessions[i], 0, killChunk)
			}
		}(p)
	}
	wg.Wait()
	// Pin the kill point exactly: every queued chunk processed, the log
	// synced, then the engine dies without flushing anything.
	for _, s := range sessions {
		s.barrier() // ErrSessionEvicted for dead sessions: already done
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	eng.abort()

	// Reboot: recover the log from the same media.
	rlog, err := wal.Open("w", wal.Config{FS: fs, SyncEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer rlog.Close()
	if refBytes != nil {
		for i := 0; i < n; i++ {
			var got []byte
			if err := rlog.ReplaySession(uint64(i), func(e event.Event) { got = wal.EncodeEvent(got, &e) }); err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(refBytes[i], got) {
				t.Fatalf("session %d: recovered WAL stream is not a prefix of the uninterrupted run", i)
			}
			// A dead-contact stream may legitimately have emitted nothing
			// before the kill; a live one must have beats on record.
			if len(got) == 0 && i%8 != 7 {
				t.Fatalf("session %d: nothing recovered", i)
			}
		}
	}

	eng2 := NewEngine(dev, mkCfg(rlog))
	recs := make([]*byteRec, n)
	for i := 0; i < n; i++ {
		recs[i] = &byteRec{}
		s, err := eng2.Reopen(uint64(i), recs[i], ReopenOptions{Backfill: true})
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	wg.Add(pushers)
	for p := 0; p < pushers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += pushers {
				s := sessions[i]
				feed(s, killChunk, 1<<30)
				if err := s.Close(); err != nil && !errors.Is(err, ErrSessionEvicted) {
					t.Error(err)
				}
				<-s.Done()
			}
		}(p)
	}
	wg.Wait()
	if err := eng2.Close(); err != nil {
		t.Fatal(err)
	}
	hashes := make([]uint64, n)
	for i, r := range recs {
		h := fnv.New64a()
		h.Write(r.bytes())
		hashes[i] = h.Sum64()
	}
	return hashes
}

// The durability headline: a 1024-session fleet killed mid-run and
// restored from its WAL produces (a) a recovered per-session event
// prefix byte-identical to the uninterrupted run, and (b) a combined
// backfill+readmit+continuation stream that is byte-identical across
// worker counts — determinism survives the crash.
func TestEngineKillRestoreDeterministic(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 1024
	if testing.Short() {
		n = 128
	}
	in := makeInputs(t, dev, 8)
	health := HealthConfig{EvictBelowRate: 0.45, EvictAfterS: 1.5, GraceS: 1, NoBeatS: 3}
	const chunk = 125
	samples := len(in.base[0][0])
	killChunk := (samples + chunk - 1) / chunk / 2

	// Uninterrupted reference: every session's full canonical stream.
	cfg := DefaultConfig()
	cfg.Workers = 4
	cfg.Seed = 42
	cfg.Health = health
	eng := NewEngine(dev, cfg)
	refRecs := make([]*byteRec, n)
	refSessions := make([]*Session, n)
	for i := 0; i < n; i++ {
		refRecs[i] = &byteRec{}
		s, err := eng.Subscribe(uint64(i), refRecs[i])
		if err != nil {
			t.Fatal(err)
		}
		refSessions[i] = s
	}
	var wg sync.WaitGroup
	pushers := 16
	wg.Add(pushers)
	for p := 0; p < pushers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += pushers {
				s := refSessions[i]
				var ecg, z []float64
				if s.ID%8 == 7 {
					ecg, z = in.deadChannels(s.Seed(), s.ID)
				} else {
					ecg, z = in.channels(s.Seed(), s.ID)
				}
				for pos := 0; pos < len(ecg); pos += chunk {
					end := pos + chunk
					if end > len(ecg) {
						end = len(ecg)
					}
					if err := s.Push(ecg[pos:end], z[pos:end]); err != nil {
						if errors.Is(err, ErrSessionEvicted) {
							break
						}
						t.Error(err)
						return
					}
				}
				if err := s.Close(); err != nil && !errors.Is(err, ErrSessionEvicted) {
					t.Error(err)
				}
				<-s.Done()
			}
		}(p)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	refBytes := make([][]byte, n)
	for i, r := range refRecs {
		refBytes[i] = r.bytes()
	}

	ref := killRestoreRun(t, dev, in, n, 1, chunk, killChunk, health, refBytes)
	got := killRestoreRun(t, dev, in, n, 5, chunk, killChunk, health, nil)
	for i := range ref {
		if got[i] != ref[i] {
			t.Fatalf("session %d: kill/restore stream hash %x with 5 workers, %x with 1 worker", i, got[i], ref[i])
		}
	}
}

// The golden trace, interrupted: killing the engine halfway through the
// golden subject must leave the WAL holding an exact byte prefix of the
// committed stream block, and the restored session must warm-continue —
// readmit stamped from the snapshot, monotonic clocks, new beats.
func TestGoldenKillRestore(t *testing.T) {
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
	fs := wal.NewMemFS()
	log, err := wal.Open("w", wal.Config{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	mkCfg := func(w *wal.Log) Config {
		cfg := DefaultConfig()
		cfg.Workers = 2
		cfg.Seed = 42
		cfg.WAL = w
		cfg.SnapshotEveryS = 2
		return cfg
	}
	eng := NewEngine(dev, mkCfg(log))
	s, err := eng.Subscribe(1, event.Discard)
	if err != nil {
		t.Fatal(err)
	}
	half := (len(acq.ECG) / 2 / 50) * 50 // kill at ~6 s
	for pos := 0; pos < half; pos += 50 {
		if err := s.Push(acq.ECG[pos:pos+50], acq.Z[pos:pos+50]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.barrier(); err != nil {
		t.Fatal(err)
	}
	if err := log.Sync(); err != nil {
		t.Fatal(err)
	}
	eng.abort()

	rlog, err := wal.Open("w", wal.Config{FS: fs, SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer rlog.Close()
	sampleRate := dev.Config().FS
	var lines []string
	if err := rlog.ReplaySession(1, func(e event.Event) {
		if e.Kind == event.KindBeat {
			lines = append(lines, goldentest.Line(sampleRate, e.Params))
		}
	}); err != nil {
		t.Fatal(err)
	}
	if len(lines) == 0 || len(lines) >= len(want) {
		t.Fatalf("recovered %d golden beats, want a proper prefix of %d", len(lines), len(want))
	}
	for i, line := range lines {
		if line != want[i] {
			t.Fatalf("recovered beat %d: %q != golden %q", i, line, want[i])
		}
	}

	eng2 := NewEngine(dev, mkCfg(rlog))
	defer eng2.Close()
	rec := &evRec{}
	s2, err := eng2.Reopen(1, rec, ReopenOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for pos := half; pos < len(acq.ECG); pos += 50 {
		end := pos + 50
		if end > len(acq.ECG) {
			end = len(acq.ECG)
		}
		if err := s2.Push(acq.ECG[pos:end], acq.Z[pos:end]); err != nil {
			t.Fatal(err)
		}
	}
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}
	<-s2.Done()
	evs := rec.events()
	if len(evs) == 0 || evs[0].Kind != event.KindReadmit || !evs[0].Restored {
		t.Fatal("restored session did not start with a restored KindReadmit")
	}
	last := evs[0].TimeS
	beats := 0
	for _, e := range evs[1:] {
		if e.TimeS < last {
			t.Fatalf("clock went backwards after restore: %.3f after %.3f", e.TimeS, last)
		}
		last = e.TimeS
		if e.Kind == event.KindBeat {
			beats++
		}
	}
	if beats == 0 {
		t.Fatal("restored golden session produced no beats")
	}
	if evs[len(evs)-1].Kind != event.KindSessionClosed {
		t.Fatal("restored stream did not end with session-closed")
	}
}

// TestReopenRacesEngineClose runs Reopen on one goroutine against
// Engine.Close on another. Reopen restores the session and decides its
// readmit before registering it, so the close either refuses the reopen
// (ErrEngineClosed, no event) or flushes the session after its readmit:
// never while Restore runs (the race detector watches that) and never
// with a KindReadmit after the KindSessionClosed.
func TestReopenRacesEngineClose(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	log, err := wal.Open("w", wal.Config{FS: wal.NewMemFS(), SyncEvery: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.WAL = log

	// A first session leaves the snapshot every Reopen restores.
	eng := NewEngine(dev, cfg)
	in := makeInputs(t, dev, 8)
	s, err := eng.Subscribe(7, event.Discard)
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := in.channels(s.Seed(), s.ID)
	if err := s.Push(ecg, z); err != nil {
		t.Fatal(err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}

	iters := 200
	if testing.Short() {
		iters = 50
	}
	var reopened, refused int
	for i := 0; i < iters; i++ {
		eng := NewEngine(dev, cfg)
		rec := &evRec{}
		done := make(chan error)
		go func() {
			_, err := eng.Reopen(7, rec, ReopenOptions{})
			done <- err
		}()
		if i%2 == 1 {
			runtime.Gosched()
		}
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		err := <-done
		evs := rec.events()
		if err != nil {
			if !errors.Is(err, ErrEngineClosed) || len(evs) != 0 {
				t.Fatalf("iteration %d: refused Reopen = %v with events %v, want ErrEngineClosed and none", i, err, evs)
			}
			refused++
			continue
		}
		reopened++
		if len(evs) != 2 || evs[0].Kind != event.KindReadmit || evs[1].Kind != event.KindSessionClosed {
			t.Fatalf("iteration %d: reopened stream %v, want KindReadmit then KindSessionClosed", i, evs)
		}
		if !evs[0].Restored {
			t.Fatalf("iteration %d: readmit not restored from the snapshot", i)
		}
	}
	t.Logf("%d reopens flushed by the close, %d refused", reopened, refused)
}
