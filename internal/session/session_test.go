package session

import (
	"hash"
	"hash/fnv"
	"math"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/physio"
)

// testInputs builds per-session input streams cheaply: a handful of
// physio acquisitions, each deterministically perturbed per session so
// every session carries distinct data.
type testInputs struct {
	base [][2][]float64 // {ecg, z} per base acquisition
}

func makeInputs(t testing.TB, dev *core.Device, seconds float64) *testInputs {
	t.Helper()
	in := &testInputs{}
	for sid := 1; sid <= 3; sid++ {
		sub, _ := physio.SubjectByID(sid)
		acq, err := dev.Acquire(&sub, seconds)
		if err != nil {
			t.Fatal(err)
		}
		in.base = append(in.base, [2][]float64{acq.ECG, acq.Z})
	}
	return in
}

// channels returns the (ecg, z) stream for a session: a base recording
// scaled by a session-specific factor derived from the seed.
func (in *testInputs) channels(seed int64, id uint64) (ecg, z []float64) {
	b := in.base[id%uint64(len(in.base))]
	scale := 1 + float64(seed%997)/997e3 // within ±0.1%
	ecg = make([]float64, len(b[0]))
	z = make([]float64, len(b[1]))
	for i := range b[0] {
		ecg[i] = b[0][i] * scale
		z[i] = b[1][i] * scale
	}
	return ecg, z
}

// deadChannels returns a dead-contact stream of the same length as the
// session's live recording would have been: the shared lifted-finger
// model (physio.DeadContact — flat impedance, noise-only ECG), so the
// eviction tests and the cmd/icgserve fleet driver stress the health
// policy with the same signal.
func (in *testInputs) deadChannels(seed int64, id uint64) (ecg, z []float64) {
	n := len(in.base[id%uint64(len(in.base))][0])
	return physio.DeadContact(seed, n)
}

// evHasher is the determinism test's subscriber: it folds EVERY field
// of every event — beats, health transitions, mode flips, evictions,
// the final close — into a running FNV hash, so two runs agree iff
// their full typed event sequences are byte-identical. It also counts
// the beats and notes an eviction. Events arrive one at a time on the
// session's worker (the Sink contract), so no locking is needed; read
// the hash only after the session finished.
type evHasher struct {
	h       hash.Hash64
	beats   int
	evicted bool
}

func newEvHasher() *evHasher { return &evHasher{h: fnv.New64a()} }

func (r *evHasher) word(v uint64) {
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	r.h.Write(buf[:])
}

func (r *evHasher) float(f float64) { r.word(math.Float64bits(f)) }

func (r *evHasher) Emit(e event.Event) {
	r.word(uint64(e.Kind))
	r.word(e.Session)
	r.word(uint64(e.Beat))
	r.float(e.TimeS)
	for _, f := range []float64{
		e.Params.TimeS, e.Params.RR, e.Params.HR, e.Params.PEP,
		e.Params.LVET, e.Params.STR, e.Params.Z0, e.Params.Z0Thoracic,
		e.Params.DZdtMax, e.Params.SVKub, e.Params.SVSram, e.Params.CO,
		e.Params.TFC, e.Params.Quality,
	} {
		r.float(f)
	}
	acc := uint64(0)
	if e.Params.Accepted {
		acc = 1
	}
	below := uint64(0)
	if e.Below {
		below = 1
	}
	r.word(acc)
	r.float(e.AcceptEWMA)
	r.word(below)
	r.float(e.Floor)
	r.word(uint64(e.Mode))
	r.word(uint64(e.PrevMode))
	r.word(uint64(e.Reason))
	r.word(uint64(e.Accepted))
	r.word(uint64(e.Emitted))
	restored := uint64(0)
	if e.Restored {
		restored = 1
	}
	r.word(restored)
	switch e.Kind {
	case event.KindBeat:
		r.beats++
	case event.KindEviction:
		r.evicted = true
	}
}

// fleetOpts tunes runFleet beyond the defaults.
type fleetOpts struct {
	health  HealthConfig
	deadMod uint64 // id%deadMod == deadMod-1 gets dead-contact input (0 = none)
}

// isDead reports whether session id carries dead-contact input.
func (o *fleetOpts) isDead(id uint64) bool {
	return o != nil && o.deadMod > 0 && id%o.deadMod == o.deadMod-1
}

// runFleet drives n concurrent sessions through an engine with the
// given worker count, every session subscribed to the typed event
// stream, and returns the per-session hashes of the FULL event
// sequence (beats, health transitions, mode flips, evictions, close),
// the per-session beat-event counts and the IDs of the sessions that
// received a KindEviction. Pushers tolerate health evictions: an
// evicted session stops pushing and hashes whatever the engine emitted
// before the cut — including the eviction events themselves, so the
// eviction point and ordering are pinned, not just the beats. After
// the engine closed, its Stats must agree with the events.
func runFleet(t testing.TB, dev *core.Device, in *testInputs, n, workers, chunk int, opts *fleetOpts) ([]uint64, []int, map[uint64]bool) {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Workers = workers
	cfg.Seed = 42
	if opts != nil {
		cfg.Health = opts.health
	}
	eng := NewEngine(dev, cfg)
	hashers := make([]*evHasher, n)

	var wg sync.WaitGroup
	// A modest number of pusher goroutines cycling over the sessions
	// keeps the engine saturated without 1000 OS-thread-blocking pushes.
	pushers := 16
	wg.Add(pushers)
	sessions := make([]*Session, n)
	for i := 0; i < n; i++ {
		hashers[i] = newEvHasher()
		s, err := eng.Subscribe(uint64(i), hashers[i])
		if err != nil {
			t.Fatal(err)
		}
		sessions[i] = s
	}
	if eng.Len() != n {
		t.Fatalf("engine has %d sessions, want %d", eng.Len(), n)
	}
	for p := 0; p < pushers; p++ {
		go func(p int) {
			defer wg.Done()
			for i := p; i < n; i += pushers {
				s := sessions[i]
				var ecg, z []float64
				if opts.isDead(s.ID) {
					ecg, z = in.deadChannels(s.Seed(), s.ID)
				} else {
					ecg, z = in.channels(s.Seed(), s.ID)
				}
				evicted := false
				for pos := 0; pos < len(ecg); pos += chunk {
					end := pos + chunk
					if end > len(ecg) {
						end = len(ecg)
					}
					if err := s.Push(ecg[pos:end], z[pos:end]); err != nil {
						if err == ErrSessionEvicted {
							evicted = true
							break
						}
						t.Error(err)
						return
					}
				}
				if !evicted {
					// The engine may still have evicted after the last
					// push; Close then reports it (or the flush already
					// won the race and Close succeeds normally).
					if err := s.Close(); err != nil && err != ErrSessionEvicted {
						t.Error(err)
						return
					}
				}
				// An evicted session's worker may still be emitting its
				// lifecycle events; the hash is read only after Done.
				<-s.Done()
			}
		}(p)
	}
	wg.Wait()
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	hashes := make([]uint64, n)
	beats := make([]int, n)
	evicted := make(map[uint64]bool)
	for i, r := range hashers {
		hashes[i] = r.h.Sum64()
		beats[i] = r.beats
		if r.evicted {
			evicted[uint64(i)] = true
		}
	}
	want := EngineStats{Open: 0, Opened: uint64(n), Finished: uint64(n), Evicted: uint64(len(evicted))}
	if st := eng.Stats(); st != want {
		t.Fatalf("engine stats %+v disagree with the events: want %+v", st, want)
	}
	return hashes, beats, evicted
}

// The headline scale/determinism test: >= 1000 concurrent sessions,
// byte-identical per-session TYPED EVENT sequences across worker
// counts — every beat, health transition, eviction and close event
// hashed in order — with every 8th session carrying dead-contact input
// and health eviction enabled, so the eviction decisions (and their
// position in the event stream) are pinned as a pure function of each
// session's own input order.
func TestEngineThousandSessionsDeterministic(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	n := 1024
	// 8 s inputs even under -short: eviction needs the EWMA to decay and
	// dwell below the floor AFTER the ~2.5 s delineation latency, which
	// a 6 s recording cannot fit.
	seconds := 8.0
	if testing.Short() {
		n = 128
	}
	in := makeInputs(t, dev, seconds)

	// Eviction thresholds scaled to the short inputs: a dead session
	// must be cut well before its stream ends. Dead-contact noise yields
	// sparse spurious beats that are all rejected, so the EWMA decays
	// below 0.45 by ~3.5 s of analyzable signal.
	health := HealthConfig{EvictBelowRate: 0.45, EvictAfterS: 1.5, GraceS: 1, NoBeatS: 3}

	run := func(workers int) ([]uint64, []int, map[uint64]bool) {
		return runFleet(t, dev, in, n, workers, 125, &fleetOpts{health: health, deadMod: 8})
	}

	ref, refBeats, refEvicted := run(1)
	nonEmpty := 0
	for _, b := range refBeats {
		if b > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < (n-n/8)*9/10 {
		t.Fatalf("only %d/%d sessions produced beats", nonEmpty, n)
	}
	if len(refEvicted) < n/8/2 {
		t.Fatalf("only %d/%d dead-contact sessions evicted", len(refEvicted), n/8)
	}
	for id := range refEvicted {
		if id%8 != 7 {
			t.Fatalf("live session %d evicted", id)
		}
	}
	for _, workers := range []int{3, 8} {
		got, _, gotEvicted := run(workers)
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("session %d: event-stream hash %x with %d workers, %x with 1 worker",
					i, got[i], workers, ref[i])
			}
		}
		if len(gotEvicted) != len(refEvicted) {
			t.Fatalf("%d evictions with %d workers, %d with 1", len(gotEvicted), workers, len(refEvicted))
		}
		for id := range refEvicted {
			if !gotEvicted[id] {
				t.Fatalf("session %d evicted with 1 worker but not with %d", id, workers)
			}
		}
	}
}

// Chunking must not affect a session's event stream either (the
// streamer is chunk-invariant, every event is stamped on the signal
// clock, and the engine preserves FIFO order).
func TestEngineChunkInvariance(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	a, _, _ := runFleet(t, dev, in, 32, 4, 50, nil)
	b, _, _ := runFleet(t, dev, in, 32, 4, 501, nil)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("session %d: chunk 50 hash %x != chunk 501 hash %x", i, a[i], b[i])
		}
	}
}

// Sessions opened after others closed must reuse pooled streamer state
// without any residue: a replayed input reproduces its hash exactly.
func TestEnginePooledStreamerReuse(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Seed = 42
	eng := NewEngine(dev, cfg)
	defer eng.Close()

	run := func(id uint64) uint64 {
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
	// Same ID reopened after close: same seed, same data, same hash —
	// through a recycled streamer.
	h1 := run(7)
	h2 := run(7)
	if h1 != h2 {
		t.Fatalf("recycled streamer changes output: %x vs %x", h1, h2)
	}
}

func TestEngineCallbacksInOrder(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 10)
	eng := NewEngine(dev, DefaultConfig())
	defer eng.Close()
	var mu sync.Mutex
	var times []float64
	s, err := eng.Subscribe(1, event.Func(func(e event.Event) {
		if e.Kind != event.KindBeat {
			return
		}
		mu.Lock()
		times = append(times, e.Params.TimeS)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	ecg, z := in.channels(s.Seed(), s.ID)
	for pos := 0; pos < len(ecg); pos += 100 {
		end := pos + 100
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
	if len(times) == 0 {
		t.Fatal("no beat events")
	}
	for i := 1; i < len(times); i++ {
		if times[i] <= times[i-1] {
			t.Fatalf("beat %d out of order: %.3f after %.3f", i, times[i], times[i-1])
		}
	}
}

func TestEngineLifecycleErrors(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(dev, DefaultConfig())
	if _, err := eng.Subscribe(1, event.Discard); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(1, event.Discard); err != ErrDuplicateID {
		t.Fatalf("duplicate open: %v", err)
	}
	if err := eng.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.Subscribe(2, event.Discard); err != ErrEngineClosed {
		t.Fatalf("open after close: %v", err)
	}
	if err := eng.Close(); err != ErrEngineClosed {
		t.Fatalf("double close: %v", err)
	}
}

func TestSessionPushAfterCloseFails(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	eng := NewEngine(dev, DefaultConfig())
	defer eng.Close()
	s, err := eng.Subscribe(9, event.Discard)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Push([]float64{1}, []float64{1}); err != ErrSessionClosed {
		t.Fatalf("push after close: %v", err)
	}
	if err := s.Close(); err != ErrSessionClosed {
		t.Fatalf("double close: %v", err)
	}
}

// Closing the engine while another goroutine opens and drives sessions
// must never panic (send on closed run queue) or leak an unflushed
// session.
func TestEngineCloseOpenRace(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	small := make([]float64, 25)
	for round := 0; round < 10; round++ {
		cfg := DefaultConfig()
		cfg.Workers = 2
		eng := NewEngine(dev, cfg)
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				s, err := eng.Subscribe(uint64(j), event.Discard)
				if err != nil {
					return // engine closed
				}
				if err := s.Push(small, small); err != nil {
					continue // engine closed the session first
				}
				s.Close()
			}
		}()
		if err := eng.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
	}
}

// PushOwned must produce byte-identical output to Push for the same
// data — the zero-copy path changes ownership, not semantics — and the
// session's accept stats must tally the gate decisions of the emitted
// beats.
func TestPushOwnedMatchesPush(t *testing.T) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	in := makeInputs(t, dev, 8)
	cfg := DefaultConfig()
	cfg.Workers = 2
	cfg.Seed = 42
	eng := NewEngine(dev, cfg)
	defer eng.Close()

	run := func(id uint64, owned bool) (uint64, int, int) {
		h := newEvHasher()
		s, err := eng.Subscribe(id, h)
		if err != nil {
			t.Fatal(err)
		}
		ecg, z := in.channels(s.Seed(), s.ID)
		for pos := 0; pos < len(ecg); pos += 40 { // radio-packet-sized chunks
			end := pos + 40
			if end > len(ecg) {
				end = len(ecg)
			}
			if owned {
				// Fresh copies: ownership transfers to the engine.
				oe := append([]float64(nil), ecg[pos:end]...)
				oz := append([]float64(nil), z[pos:end]...)
				err = s.PushOwned(oe, oz)
			} else {
				err = s.Push(ecg[pos:end], z[pos:end])
			}
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		acc, emitted := s.AcceptStats()
		return h.h.Sum64(), acc, emitted
	}
	hCopy, accC, emC := run(3, false)
	hOwn, accO, emO := run(3, true) // same ID after close: same seed and data
	if hCopy != hOwn {
		t.Fatalf("PushOwned hash %x != Push hash %x", hOwn, hCopy)
	}
	if emC == 0 {
		t.Fatal("no beats emitted")
	}
	if accC != accO || emC != emO {
		t.Fatalf("accept stats differ: %d/%d vs %d/%d", accC, emC, accO, emO)
	}
	if accC > emC {
		t.Fatalf("accepted %d > emitted %d", accC, emC)
	}
}

func TestPushOwnedAfterCloseFails(t *testing.T) {
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
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.PushOwned([]float64{1}, []float64{1}); err != ErrSessionClosed {
		t.Fatalf("PushOwned after close: %v", err)
	}
}
