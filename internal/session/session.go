// Package session is the multi-session serving layer on top of the
// incremental streaming engine: one Engine multiplexes thousands of
// concurrent device streams (one Session per subject or connection)
// over a bounded worker pool, with pooled per-stream filter state and
// deterministic per-session seeding.
//
// Output delivery is the typed event stream of internal/event: a
// subscriber (Engine.Subscribe) receives every beat, health transition,
// governor mode change, eviction and session close as event.Events, in
// per-session FIFO order, synchronously on the session's worker. It is
// the only output surface.
//
// Determinism contract: a session's emitted event stream is a pure
// function of its own input chunks in arrival order — independent of
// the worker count, of scheduling, and of what every other session
// does. The engine preserves per-session FIFO ordering (chunks are
// processed in Push order, one worker at a time per session) and the
// underlying core.Streamer is chunk-invariant, so replaying the same
// samples always reproduces byte-identical parameters, health
// transitions and eviction points. The tests pin this with 1000+
// concurrent sessions hashing their full event sequences across worker
// counts.
package session

import (
	"errors"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/wal"
)

// Config tunes the engine.
type Config struct {
	// Workers bounds the processing pool (default GOMAXPROCS).
	Workers int
	// Stream configures every session's streaming engine.
	Stream core.StreamConfig
	// MaxPending bounds each session's queued-chunk backlog; Push blocks
	// once the backlog is full (backpressure; default 64).
	MaxPending int
	// Seed is the engine's base seed; each session derives its own seed
	// deterministically from Seed and its ID.
	Seed int64
	// Health configures engine-level eviction of dead-contact sessions
	// (health.go); the zero value disables it.
	Health HealthConfig
	// PMU, when non-nil, arms every session's streamer with a
	// hysteresis governor (core.PMU.NewGovernor) stepped once per beat
	// on the gate's accept-rate EWMA; quality-driven mode changes reach
	// the session's subscriber as KindMode events. The governor state
	// rides the pooled streamers and rewinds between sessions.
	PMU *core.PMU
	// WAL, when non-nil, arms crash-safe durability: every event of
	// every session is appended to the log — write-ahead, on the
	// session's worker, before subscriber delivery, drop-counted on log
	// failure per the wal contract — and compact session snapshots
	// (gate template/EWMA, governor mode/dwell, session clocks) are
	// appended every SnapshotEveryS signal seconds plus at session
	// finish. The engine never closes the log; its owner does, after
	// Engine.Close. The log also powers SubscribeFrom backfill and
	// Reopen restore.
	WAL *wal.Log
	// SnapshotEveryS is the snapshot cadence in signal seconds
	// (default 10; meaningful only with WAL). Restore staleness is
	// bounded by it: a killed session rehydrates from its newest
	// snapshot, at most this much signal time behind its logged events.
	SnapshotEveryS float64
	// QuarantineS arms the re-admit cool-down: a dead-contact-evicted
	// session ID cannot be opened again (Subscribe or Reopen return
	// ErrQuarantined) until this many wall-clock seconds after
	// its eviction. 0 disables quarantine tracking entirely.
	QuarantineS float64
	// Clock injects the wall clock the quarantine uses (default
	// time.Now; tests inject a fake).
	Clock func() time.Time
	// NonFinite selects the Push/PushOwned policy for NaN/Inf samples
	// (validate.go); the default rejects them with ErrNonFiniteSample.
	NonFinite NonFinitePolicy
}

// DefaultConfig returns the serving defaults.
func DefaultConfig() Config {
	return Config{Workers: runtime.GOMAXPROCS(0), MaxPending: 64}
}

// Engine multiplexes concurrent device streams over a worker pool.
type Engine struct {
	dev *core.Device
	cfg Config
	// health is the resolved eviction policy; nil when disabled.
	health *HealthConfig

	mu       sync.Mutex
	sessions map[uint64]*Session
	closed   bool
	// Lifetime load tallies (under mu) behind Stats: the serving
	// layer's per-shard load metrics.
	opened, finished, evictedN uint64
	// quarantined maps a dead-contact-evicted session ID to its
	// eviction time while Config.QuarantineS is armed; the entry clears
	// on the first successful reopen after the cool-down.
	quarantined map[uint64]time.Time

	now       func() time.Time
	snapEvery float64

	runq chan *Session
	wg   sync.WaitGroup

	// chunkHook, when non-nil, runs before each data chunk is processed
	// (session ID, per-session chunk index). Test seam for the panic
	// isolation suite — a hook that panics models a corrupted stage.
	chunkHook func(id uint64, chunk int)

	// streamers pools Reset streaming state across session lifetimes:
	// a closed session's delay lines, rings and detector state are
	// recycled into the next session instead of being reallocated. A
	// session takes its streamer at its first chunk, on its worker
	// (Session.streamer), never on the goroutine that opens it.
	streamers sync.Pool
	// latency is every streamer's reporting latency in seconds
	// (core.Streamer.Latency): a function of the device and
	// Config.Stream alone, read once from the first pooled streamer.
	latency float64
	// chunks pools the copied input buffers.
	chunks sync.Pool
}

// Session is one device stream.
type Session struct {
	ID  uint64
	eng *Engine
	// st is nil until Session.streamer takes it from the pool, and nil
	// again once finish returned it; only the session's worker (or
	// Reopen, before the session is pushable) touches it.
	st   *core.Streamer
	seed int64

	mu        sync.Mutex
	cond      *sync.Cond
	pending   []chunk
	scheduled bool
	closing   bool
	done      chan struct{}

	// sink is the session's event subscriber (Subscribe or Reopen). It
	// is set before the first chunk can be processed and never mutated
	// afterwards, so the worker reads it without locking.
	sink event.Sink

	// Quality-gate accounting over the emitted beats (under mu):
	// accepted/emitted are readable via AcceptStats even after Close.
	accepted, emitted int

	// Health-eviction state, written under mu (the below-floor window
	// itself lives in the streamer, tracked per beat — health.go).
	evicted bool
	reason  CloseReason
	// failed marks a worker-panic close (ReasonInternalError): the
	// streamer was discarded, not pooled, and pushers see
	// ErrSessionFailed.
	failed bool

	// extras are late subscribers spliced in by SubscribeFrom; appended
	// and read only on the session's worker, so no lock is needed.
	extras []event.Sink
	// nextSnapS is the signal time of the next periodic WAL snapshot;
	// nChunks counts processed data chunks (the chunkHook index).
	nextSnapS float64
	nChunks   int
	snapBuf   []byte
	// lastE/lastZ carry the last finite sample of each channel for the
	// NonFiniteSanitize policy (under mu; carry follows Push call
	// order).
	lastE, lastZ float64
}

// chunk is one queued input: the samples of a data chunk (ecg, z) or a
// control payload (ctl), in 56 B. A session keeps its backlog array at
// its high-water length, MaxPending slots, so a slot holds one sample
// representation and ctl also tags the chunks that are not splices:
//
//   - nil: caller-owned slices (PushOwned), never returned to the pool;
//   - pooledCtl: one pooled combined buffer (Push), ecg its head and z
//     the rest, recycled through ecg once processed;
//   - flushCtl: the close (Session.Close);
//   - any other: the FIFO splice point of SubscribeFrom (or the test
//     barrier), processed in order with the data around it.
type chunk struct {
	ecg, z []float64
	ctl    *attachCtl
}

// The sentinel ctl values of pooled data chunks and of the flush; they
// are compared by address and never read.
var (
	pooledCtl = new(attachCtl)
	flushCtl  = new(attachCtl)
)

// attachCtl is the control payload of a SubscribeFrom splice: the
// worker replays the WAL tail into sink, attaches it to the live
// stream, then closes done. A nil sink is a pure processing barrier.
// err (set before done closes) reports a splice that could not happen
// because the session ended first.
type attachCtl struct {
	sink event.Sink
	done chan struct{}
	err  error
}

// Engine errors.
var (
	ErrEngineClosed  = errors.New("session: engine closed")
	ErrSessionClosed = errors.New("session: session closed")
	ErrDuplicateID   = errors.New("session: duplicate session id")
	// ErrSessionEvicted is returned by Push/PushOwned/Close after the
	// engine evicted the session for dead contact (HealthConfig); the
	// subscriber still receives every event emitted before the eviction,
	// then KindEviction and KindSessionClosed (Session.Done closes after
	// them).
	ErrSessionEvicted = errors.New("session: session evicted (dead contact)")
	// ErrSessionFailed is returned by Push/PushOwned/Close after a
	// worker panic closed the session (ReasonInternalError). The
	// process survives; only the panicking session dies.
	ErrSessionFailed = errors.New("session: session failed (internal error)")
	// ErrChannelMismatch is returned by Push/PushOwned for unequal
	// channel lengths — a typed error, not a panic: the lengths arrive
	// from the network boundary, not from programmer-controlled code.
	ErrChannelMismatch = errors.New("session: push requires equal-length ecg/z channels")
	// ErrNonFiniteSample is returned under the default NonFiniteReject
	// policy when a pushed chunk contains NaN or ±Inf; the chunk is not
	// consumed and the session remains usable.
	ErrNonFiniteSample = errors.New("session: non-finite sample rejected")
	// ErrQuarantined is returned when opening a session ID still inside
	// its post-eviction cool-down (Config.QuarantineS).
	ErrQuarantined = errors.New("session: session quarantined after eviction")
	// ErrNoWAL is returned by SubscribeFrom and Reopen when the engine
	// has no write-ahead log armed (Config.WAL).
	ErrNoWAL = errors.New("session: engine has no WAL armed")
)

// NewEngine starts an engine serving streams of the given device.
func NewEngine(dev *core.Device, cfg Config) *Engine {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 64
	}
	if cfg.SnapshotEveryS <= 0 {
		cfg.SnapshotEveryS = 10
	}
	e := &Engine{
		dev:       dev,
		cfg:       cfg,
		sessions:  make(map[uint64]*Session),
		now:       cfg.Clock,
		snapEvery: cfg.SnapshotEveryS,
		// The run queue only ever holds each session once (the scheduled
		// flag), so any comfortable buffer avoids enqueue stalls.
		runq: make(chan *Session, 1024),
	}
	if e.now == nil {
		e.now = time.Now //icg:allow nodeterm -- injected-clock default: only the quarantine cool-down is wall time (health windows run on analyzable signal time); tests inject a fake
	}
	if cfg.QuarantineS > 0 {
		e.quarantined = make(map[uint64]time.Time)
	}
	if cfg.Health.Enabled() {
		h := cfg.Health.withDefaults()
		e.health = &h
	}
	e.streamers.New = func() any {
		st := dev.NewStreamer(cfg.Stream)
		if e.health != nil {
			// Arm per-beat below-floor tracking; the floor is an
			// engine-lifetime constant and survives streamer Reset.
			st.SetHealthFloor(e.health.EvictBelowRate)
		}
		if cfg.PMU != nil {
			// Engine-lifetime policy like the floor: the governor rides
			// the pooled streamer, its state rewound by Reset.
			st.ArmGovernor(*cfg.PMU)
		}
		return st
	}
	st := e.streamers.Get().(*core.Streamer)
	e.latency = st.Latency()
	e.streamers.Put(st)
	e.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go e.worker()
	}
	return e
}

// SessionSeed returns the deterministic seed for a session ID
// (splitmix64 over the engine seed and the ID).
func (e *Engine) SessionSeed(id uint64) int64 {
	x := uint64(e.cfg.Seed) ^ (id + 0x9e3779b97f4a7c15)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int64(x >> 1)
}

// Subscribe creates a session delivering its full typed event stream —
// KindBeat per completed beat, KindHealth on accept-EWMA floor
// transitions, KindMode on governor flips (Config.PMU), and the final
// KindEviction/KindSessionClosed — to sink: in per-session FIFO order,
// one event at a time, synchronously on the session's worker. The sink
// must not block and must not call back into the engine or the session
// (the Sink contract); put a bounded event.Buffer or event.Chan in
// front of slow consumers. A KindSessionClosed event is always the
// session's last. This is the output surface of the serving layer.
func (e *Engine) Subscribe(id uint64, sink event.Sink) (*Session, error) {
	if sink == nil {
		return nil, errors.New("session: Subscribe requires a sink (event.Discard drops every event)")
	}
	return e.open(id, sink)
}

// open registers a session wired to the given sink. It holds no
// streamer yet: the session takes one from the pool on its worker at
// its first chunk (Session.streamer), so opening stays O(1) in time and
// memory on the caller's goroutine — the gateway's connection reader.
func (e *Engine) open(id uint64, sink event.Sink) (*Session, error) {
	s := e.newSession(id, sink)
	if err := e.register(s); err != nil {
		return nil, err
	}
	return s, nil
}

// newSession builds an unregistered session wired to sink.
func (e *Engine) newSession(id uint64, sink event.Sink) *Session {
	s := &Session{
		ID:        id,
		eng:       e,
		seed:      e.SessionSeed(id),
		done:      make(chan struct{}),
		sink:      sink,
		nextSnapS: e.snapEvery,
	}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// register publishes s in the engine's session set, unless the engine
// is closed, the ID is taken or it sits out its quarantine.
func (e *Engine) register(s *Session) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return ErrEngineClosed
	}
	if _, dup := e.sessions[s.ID]; dup {
		return ErrDuplicateID
	}
	if at, ok := e.quarantined[s.ID]; ok {
		if e.now().Sub(at).Seconds() < e.cfg.QuarantineS {
			return ErrQuarantined
		}
		delete(e.quarantined, s.ID)
	}
	e.sessions[s.ID] = s
	e.opened++
	return nil
}

// Len returns the number of open sessions.
func (e *Engine) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.sessions)
}

// EngineStats is an engine's lifetime load tally — the per-shard load
// metric of the serving layer (the network gateway reports one per
// Engine shard).
type EngineStats struct {
	Open     int    // sessions open right now
	Opened   uint64 // sessions ever opened (re-admits included)
	Finished uint64 // sessions fully finished (client closes, evictions, failures)
	Evicted  uint64 // finished by dead-contact eviction
}

// Stats returns the engine's lifetime load tally.
func (e *Engine) Stats() EngineStats {
	e.mu.Lock()
	defer e.mu.Unlock()
	return EngineStats{Open: len(e.sessions), Opened: e.opened, Finished: e.finished, Evicted: e.evictedN}
}

// Close flushes and closes every open session, waits for the queue to
// drain, and stops the workers. The engine cannot be reused.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return ErrEngineClosed
	}
	// Mark closed before flushing so a racing open cannot slip a new,
	// never-flushed session in behind the snapshot.
	e.closed = true
	open := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		open = append(open, s)
	}
	// Close in session-ID order, not map order: each close flushes the
	// session's final events into the shared WAL, so the shutdown
	// record's layout must not depend on map iteration randomization.
	sort.Slice(open, func(i, j int) bool { return open[i].ID < open[j].ID })
	e.mu.Unlock()
	for _, s := range open {
		if err := s.Close(); err != nil {
			// A concurrent user Close got there first; wait for its
			// flush (and any in-flight run-queue send) to finish before
			// the queue is torn down.
			<-s.done
		}
	}
	close(e.runq)
	e.wg.Wait()
	return nil
}

// worker drains sessions from the run queue; the scheduled flag
// guarantees a session is held by at most one worker at a time, so
// per-session processing is strictly serial and FIFO.
func (e *Engine) worker() {
	defer e.wg.Done()
	var batch []chunk
	for s := range e.runq {
		batch = s.run(batch[:0])
		for i := range batch {
			batch[i] = chunk{}
		}
	}
}

// getBuf checks a combined two-channel buffer out of the pool.
func (e *Engine) getBuf(n int) []float64 {
	if v := e.chunks.Get(); v != nil {
		if buf := v.([]float64); cap(buf) >= n {
			return buf[:n]
		}
	}
	return make([]float64, n)
}

// Seed returns the session's deterministic seed (drive simulated
// subjects, noise, or load shaping from this).
func (s *Session) Seed() int64 { return s.seed }

// Push copies the chunk (equal-length channels) into pooled buffers and
// queues it; it blocks only when the session's backlog is full. Beats
// reach the session's subscriber asynchronously.
//
// Push is a network-facing boundary, so malformed input is a typed
// error, never a panic: unequal lengths return ErrChannelMismatch, and
// NaN/Inf samples follow Config.NonFinite (reject with
// ErrNonFiniteSample by default, or sanitize — see NonFinitePolicy).
// A rejected chunk is not consumed and the session remains usable.
func (s *Session) Push(ecgSamples, zSamples []float64) error {
	if len(ecgSamples) != len(zSamples) {
		return ErrChannelMismatch
	}
	if s.eng.cfg.NonFinite == NonFiniteReject {
		if err := checkFinite(ecgSamples, zSamples); err != nil {
			return err
		}
	}
	n := len(ecgSamples)
	buf := s.eng.getBuf(2 * n)
	copy(buf[:n], ecgSamples)
	copy(buf[n:], zSamples)
	if s.eng.cfg.NonFinite == NonFiniteSanitize {
		s.sanitize(buf[:n], buf[n:])
	}
	if err := s.enqueue(chunk{ecg: buf[:n], z: buf[n:], ctl: pooledCtl}); err != nil {
		// Closed or evicted mid-push: recycle the copy instead of
		// dropping it — with eviction armed this is a routine path.
		s.eng.chunks.Put(buf[:0])
		return err
	}
	return nil
}

// PushOwned is Push transferring ownership of the slices instead of
// copying them — the zero-copy path for radio-packet-sized chunks,
// where the per-push copy dominates the enqueue cost.
//
// Ownership contract: by calling PushOwned the caller hands ecgSamples
// and zSamples (their backing arrays) to the engine until the session
// processes the chunk, which happens asynchronously on a worker — the
// caller must never modify, reuse or pool them afterwards. The engine
// only reads the slices and drops them when the chunk is done (they are
// garbage-collected, never recycled into the engine's buffer pool).
// Each call must pass freshly-owned slices; aliasing a previous
// PushOwned chunk is a data race.
// Like Push, PushOwned validates instead of panicking; under the
// sanitize policy the owned slices are rewritten in place (they are
// the engine's to mutate once handed over).
func (s *Session) PushOwned(ecgSamples, zSamples []float64) error {
	if len(ecgSamples) != len(zSamples) {
		return ErrChannelMismatch
	}
	switch s.eng.cfg.NonFinite {
	case NonFiniteReject:
		if err := checkFinite(ecgSamples, zSamples); err != nil {
			return err
		}
	case NonFiniteSanitize:
		s.sanitize(ecgSamples, zSamples)
	}
	return s.enqueue(chunk{ecg: ecgSamples, z: zSamples})
}

// Close flushes the stream, recycles the session's streaming state into
// the engine pool, and removes the session from the engine. It blocks
// until the final beats have been delivered. It returns
// ErrSessionEvicted when the engine evicted the session for dead
// contact — including when the eviction overtakes an already-enqueued
// flush (the evicted stream was never flushed, so its lookahead-tail
// beats were dropped; reporting success there would be a lie). The
// subscriber has received every event either way.
func (s *Session) Close() error {
	if err := s.enqueue(chunk{ctl: flushCtl}); err != nil {
		return err
	}
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed {
		return ErrSessionFailed
	}
	if s.evicted {
		return ErrSessionEvicted
	}
	return nil
}

// closedErr reports why the session no longer accepts input (callers
// hold mu).
func (s *Session) closedErr() error {
	if s.failed {
		return ErrSessionFailed
	}
	if s.evicted {
		return ErrSessionEvicted
	}
	return ErrSessionClosed
}

func (s *Session) enqueue(c chunk) error {
	s.mu.Lock()
	if s.closing {
		err := s.closedErr()
		s.mu.Unlock()
		return err
	}
	// Only data chunks wait for room: a flush or a splice never blocks.
	for len(s.pending) >= s.eng.cfg.MaxPending && (c.ctl == nil || c.ctl == pooledCtl) {
		s.cond.Wait()
		if s.closing {
			err := s.closedErr()
			s.mu.Unlock()
			return err
		}
	}
	if c.ctl == flushCtl {
		s.closing = true
	}
	s.pending = append(s.pending, c)
	sched := !s.scheduled
	s.scheduled = true
	s.mu.Unlock()
	if sched {
		s.eng.runq <- s
	}
	return nil
}

// run processes the session's backlog until it is empty, then either
// reschedules (more arrived meanwhile) or parks. Returns the batch
// slice for reuse.
func (s *Session) run(batch []chunk) []chunk {
	for {
		s.mu.Lock()
		if len(s.pending) == 0 {
			s.scheduled = false
			s.mu.Unlock()
			return batch
		}
		batch = append(batch[:0], s.pending...)
		// Drop the backlog's references: the pending array outlives
		// this batch, and processed chunks must not stay reachable
		// through it.
		clear(s.pending)
		s.pending = s.pending[:0]
		s.cond.Broadcast()
		s.mu.Unlock()

		for i, c := range batch {
			switch c.ctl {
			case nil, pooledCtl:
			case flushCtl:
				if err := s.guard(func() { s.streamer().Flush() }); err != nil {
					s.fail(batch[i+1:])
					return batch
				}
				s.finish(ReasonClient)
				return batch
			default:
				s.splice(c.ctl)
				continue
			}
			// The streamer has the session's forwarder armed as its
			// event sink, so Push/Flush return nil and every beat,
			// health transition and mode change flows through
			// Session.forward on this worker, in order. A panic inside
			// the stage pipeline (or a subscriber sink) is recovered
			// here and closes only this session (ReasonInternalError):
			// one corrupted stream must never take down the process or
			// the other sessions' determinism.
			if err := s.guard(func() { s.process(c) }); err != nil {
				// The chunk buffer is deliberately not recycled: the
				// panic may have left aliases into it.
				s.fail(batch[i+1:])
				return batch
			}
			if c.ctl == pooledCtl {
				s.eng.chunks.Put(c.ecg[:0])
			}
			// Health check after every consumed chunk: the signals are
			// pure functions of the input consumed so far, so the
			// eviction point is the same for any worker count.
			if h := s.eng.health; h != nil && s.healthCheck(h) {
				s.evict(batch[i+1:])
				return batch
			}
			// Periodic WAL snapshot, on the same per-chunk cadence as
			// the health check and for the same reason: the snapshot
			// points are pure functions of the input consumed so far,
			// identical for any worker count.
			if w := s.eng.cfg.WAL; w != nil {
				if _, tS := s.st.Clock(); tS >= s.nextSnapS {
					s.snapshot(w, s.st)
					s.nextSnapS = tS + s.eng.snapEvery
				}
			}
		}
	}
}

// process consumes one data chunk on the session's worker.
func (s *Session) process(c chunk) {
	st := s.streamer()
	if h := s.eng.chunkHook; h != nil {
		h(s.ID, s.nChunks)
	}
	s.nChunks++
	st.Push(c.ecg, c.z)
}

// recycle resets st and returns it to the engine's pool if its raw
// sample storage still holds ADC codes, packed or 16-bit (a ring that
// stepped down to 16-bit codes is no larger than a packed one may
// grow). A streamer whose session widened it to float64 (a dead
// contact's dithered samples) is dropped instead: Reset keeps the
// form, so the next session would carry the wide rings, about seven
// times the raw-Z ring's packed size.
func (e *Engine) recycle(st *core.Streamer) {
	if !st.Narrow() {
		return
	}
	st.Reset()
	e.streamers.Put(st)
}

// streamer returns the session's streamer, taking it from the engine's
// pool and arming the session's forwarder on it the first time. This is
// the one place a session acquires its streamer: on its worker, inside
// guard, before its first chunk or the flush of a session that never
// got one — or in Reopen, before the session is registered, to restore
// a snapshot.
func (s *Session) streamer() *core.Streamer {
	if s.st == nil {
		s.st = s.eng.streamers.Get().(*core.Streamer)
		s.st.Emit(forwarder{s}, s.ID)
	}
	return s.st
}

// guard runs f, converting a panic into an error (satellite of the
// durability work: worker panic isolation).
func (s *Session) guard(f func()) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("%w: %v", ErrSessionFailed, r)
		}
	}()
	f()
	return nil
}

// splice attaches a SubscribeFrom subscriber at an exact point of the
// per-session FIFO: every event of the retained WAL tail is replayed
// into the sink first, then the sink joins the live stream — no gap
// (events for this session are only ever produced on this worker,
// which is busy right here) and no duplicate (the replay reads the log
// strictly before the next live append). A nil sink is a pure barrier.
func (s *Session) splice(ctl *attachCtl) {
	if ctl.sink != nil {
		if w := s.eng.cfg.WAL; w != nil {
			ctl.err = w.ReplaySession(s.ID, func(ev event.Event) { ctl.sink.Emit(ev) })
		}
		s.extras = append(s.extras, ctl.sink)
	}
	close(ctl.done)
}

// fail closes the session after a worker panic: pending and unbatched
// chunks are discarded, pushers are woken with ErrSessionFailed, and
// the session finishes with ReasonInternalError. The streamer is
// poisoned mid-panic, so it is discarded rather than pooled.
func (s *Session) fail(rest []chunk) {
	s.mu.Lock()
	s.closing = true
	s.failed = true
	s.discard(s.pending, ErrSessionFailed)
	s.pending = s.pending[:0]
	s.cond.Broadcast()
	s.mu.Unlock()
	s.discard(rest, ErrSessionFailed)
	s.finishWith(ReasonInternalError, true)
}

// discard drops queued chunks, recycling pooled buffers and releasing
// any control chunks' waiters with err.
func (s *Session) discard(chunks []chunk, err error) {
	for _, c := range chunks {
		switch c.ctl {
		case nil, flushCtl:
		case pooledCtl:
			s.eng.chunks.Put(c.ecg[:0])
		default:
			c.ctl.err = err
			close(c.ctl.done)
		}
	}
}

// snapshot appends the session's compact durable state to the log.
func (s *Session) snapshot(w *wal.Log, st *core.Streamer) {
	s.mu.Lock()
	acc, em := s.accepted, s.emitted
	s.mu.Unlock()
	snap := st.Snapshot()
	s.snapBuf = appendSessionSnapshot(s.snapBuf[:0], snap, acc, em)
	w.AppendSnapshot(s.ID, snap.TimeS, s.snapBuf)
}

// forwarder is the event.Sink the session arms on its pooled streamer;
// it routes every streamer event through Session.forward on the
// session's worker.
type forwarder struct{ s *Session }

// Emit implements event.Sink.
func (f forwarder) Emit(e event.Event) { f.s.forward(e) }

// forward is the single delivery point of the session: it keeps the
// quality-gate tally (every KindBeat carries its gate decision in
// Params.Accepted), appends the event to the WAL, then hands it to the
// subscriber sink and to any late subscribers. It runs on the session's
// worker — one event at a time, in per-session FIFO order — and also
// carries the lifecycle events finish emits from that same worker.
func (s *Session) forward(e event.Event) {
	if e.Kind == event.KindBeat {
		s.mu.Lock()
		s.emitted++
		if e.Params.Accepted {
			s.accepted++
		}
		s.mu.Unlock()
	}
	// Write-ahead: the event reaches the log before any subscriber —
	// what a consumer saw is always recoverable. Append is synchronous
	// on this worker, bounded and drop-counted on log failure (the wal
	// contract), exactly like a bounded sink.
	if w := s.eng.cfg.WAL; w != nil {
		w.AppendEvent(e)
	}
	s.sink.Emit(e)
	for _, x := range s.extras {
		x.Emit(e)
	}
}

// AcceptStats returns how many of the session's emitted beats passed
// the per-beat quality gate, out of all emitted so far. It stays
// readable after Close (final values), so fleet drivers can tally
// per-session accept rates as sessions finish.
//
// Zero-beats case: before any beat has been emitted both counts are 0;
// use AcceptRate when you need a ratio — it pins the 0/0 case to 1
// instead of leaving callers to divide into NaN.
func (s *Session) AcceptStats() (accepted, emitted int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.accepted, s.emitted
}

// AcceptRate returns the fraction of the session's emitted beats that
// passed the quality gate, or exactly 1 before any beat was emitted —
// the zero-beats contract shared with quality.GateStream.AcceptRate and
// core.Streamer.AcceptRate (a session with no beats has shown no
// evidence of bad contact). Note it counts emitted beats only; the
// engine-internal eviction signal additionally counts failed
// delineations (core.StreamHealth).
func (s *Session) AcceptRate() float64 {
	acc, em := s.AcceptStats()
	if em == 0 {
		return 1
	}
	return float64(acc) / float64(em)
}

// Done returns a channel closed when the session has fully finished —
// final beats delivered, streaming state recycled, close event emitted.
// Useful for observing asynchronous health evictions, which can finish
// a session between two pushes.
func (s *Session) Done() <-chan struct{} { return s.done }

// Reason reports why the session ended (meaningful once Close returned
// or a Push failed with ErrSessionEvicted): ReasonClient for ordinary
// closes, ReasonDeadContact for health evictions.
func (s *Session) Reason() CloseReason {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reason
}

// finish recycles the streamer, detaches the session and emits the
// lifecycle events — KindEviction for any non-client close, then the
// final KindSessionClosed. It runs on the session's worker, exactly
// once, after the session's last beat.
func (s *Session) finish(reason CloseReason) { s.finishWith(reason, false) }

// finishWith is finish with the panic-close variant: corrupt marks the
// streamer as poisoned mid-panic, so its state is read defensively,
// never snapshotted, and discarded instead of pooled; event delivery
// is guarded too (the panic source may be the subscriber sink itself).
func (s *Session) finishWith(reason CloseReason, corrupt bool) {
	st := s.st
	s.st = nil
	s.mu.Lock()
	s.reason = reason
	acc, em := s.accepted, s.emitted
	s.mu.Unlock()
	// Snapshot the health signals and session clocks before Reset
	// wipes them (defensively when the streamer is mid-panic).
	var hs core.StreamHealth
	var beat int
	var tS float64
	readState := func() {
		hs = st.Health()
		beat, tS = st.Clock()
	}
	if corrupt {
		func() {
			defer func() { recover() }()
			readState()
		}()
	} else {
		readState()
	}
	// Final durable snapshot before the lifecycle events, so a later
	// Reopen restores the state the session ended with (the quarantine
	// re-admit path rehydrates the eviction-time template).
	if w := s.eng.cfg.WAL; w != nil && !corrupt {
		s.snapshot(w, st)
	}
	lifecycle := event.Event{
		Session:    s.ID,
		Beat:       beat,
		TimeS:      tS,
		AcceptEWMA: hs.AcceptEWMA,
		Reason:     int(reason),
		Accepted:   acc,
		Emitted:    em,
	}
	deliver := func(ev event.Event) {
		if corrupt {
			defer func() { recover() }()
		}
		s.forward(ev)
	}
	if reason != ReasonClient {
		evict := lifecycle
		evict.Kind = event.KindEviction
		deliver(evict)
	}
	closed := lifecycle
	closed.Kind = event.KindSessionClosed
	deliver(closed)
	if !corrupt {
		s.eng.recycle(st)
	}
	e := s.eng
	e.mu.Lock()
	delete(e.sessions, s.ID)
	e.finished++
	if reason == ReasonDeadContact {
		e.evictedN++
		if e.quarantined != nil {
			e.quarantined[s.ID] = e.now()
		}
	}
	e.mu.Unlock()
	close(s.done)
}

// Latency reports the session's beat-reporting latency in seconds for
// a normally confirmed R (core.Streamer.Latency, not a worst case: a
// search-back beat can arrive later); 0 after the session finished. It
// is the engine's constant, so it needs no streamer: the value holds
// from Subscribe on, before the first chunk.
func (s *Session) Latency() float64 {
	select {
	case <-s.done:
		return 0
	default:
		return s.eng.latency
	}
}
