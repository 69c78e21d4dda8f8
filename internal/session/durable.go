package session

import (
	"errors"

	"repro/internal/event"
)

// Durability surface of the engine: the WAL-backed backfill subscriber
// (SubscribeFrom) and the quarantined re-admit path (Reopen). Both
// require Config.WAL; see the wal package for the recovery laws they
// build on.

// SubscribeFrom attaches an additional subscriber to a live session,
// first replaying the session's retained WAL tail into sink (FIFO,
// oldest first), then splicing the sink into the live stream with no
// gap and no duplicate: the replay and the attach happen atomically on
// the session's worker, between two chunks, where the session's events
// are produced. It blocks until the splice happened (the backlog ahead
// of it is processed first) and then returns; subsequent events reach
// sink exactly like the primary subscriber's, synchronously on the
// worker, under the same Sink contract. The replayed tail is bounded
// by the log's retention — with retention armed, the backfill starts
// at the oldest retained event, not at the session's birth.
func (e *Engine) SubscribeFrom(id uint64, sink event.Sink) error {
	if sink == nil {
		return errors.New("session: SubscribeFrom requires a sink")
	}
	if e.cfg.WAL == nil {
		return ErrNoWAL
	}
	e.mu.Lock()
	s := e.sessions[id]
	e.mu.Unlock()
	if s == nil {
		return ErrSessionClosed
	}
	ctl := &attachCtl{sink: sink, done: make(chan struct{})}
	if err := s.enqueue(chunk{ctl: ctl}); err != nil {
		return err
	}
	<-ctl.done
	return ctl.err
}

// ReopenOptions tunes Reopen.
type ReopenOptions struct {
	// Backfill replays the session's retained WAL tail (its pre-crash
	// or pre-eviction event history, ending in the old
	// KindSessionClosed for a finished session) into the sink before
	// the KindReadmit event, on the calling goroutine.
	Backfill bool
}

// Reopen re-admits a session ID through the durability layer: the
// session is rehydrated from its newest WAL snapshot — gate template
// and accept EWMA (the fast re-lock path), governor mode and dwell,
// and the session clocks, so new events continue the old stream's beat
// index and signal time monotonically — then registered like
// Subscribe. The first event delivered (and logged) is KindReadmit,
// stamped with the restored clocks and EWMA; Restored is false when
// the log held no usable snapshot (cold re-admit). An Engine.Close
// running at the same time either makes Reopen fail with
// ErrEngineClosed or closes the session after its KindReadmit.
//
// An ID evicted for dead contact must first sit out its quarantine
// (Config.QuarantineS; ErrQuarantined before the cool-down elapses).
// Health windows restart from the re-admit — a re-admitted session
// gets a fresh grace period before it can be evicted again — and a
// snapshot whose gate state sits below the armed eviction floor is
// restored WITHOUT that gate state: the below-floor EWMA and the
// noise-seeded template are exactly what evicted the session, and
// re-imposing them would reject even a genuinely recovered contact
// into a second eviction. Such a session re-locks cold (fresh template
// warmup, EWMA back at the zero-beats value 1) while its clocks and
// governor state still continue.
func (e *Engine) Reopen(id uint64, sink event.Sink, opts ReopenOptions) (*Session, error) {
	if sink == nil {
		return nil, errors.New("session: Reopen requires a sink")
	}
	w := e.cfg.WAL
	if w == nil {
		return nil, ErrNoWAL
	}
	// The session is built, restored and its readmit decided before it
	// is registered: until then nothing but this call can reach it.
	s := e.newSession(id, sink)
	readmit := event.Event{Kind: event.KindReadmit, Session: id, AcceptEWMA: 1}
	if tSnap, payload, ok := w.Snapshot(id); ok {
		if snap, acc, em, ok := decodeSessionSnapshot(payload); ok {
			if e.health != nil && snap.HasGate && snap.Gate.AcceptEWMA < e.health.EvictBelowRate {
				// Quarantine-poisoned gate state: re-lock cold (see above).
				snap.HasGate = false
			}
			// Restoring needs the streamer at once, so the session takes
			// it here, on this goroutine, instead of at its first chunk.
			s.streamer().Restore(snap)
			s.accepted, s.emitted = acc, em
			s.nextSnapS = tSnap + e.snapEvery
			readmit.Beat, readmit.TimeS = snap.Beat, snap.TimeS
			if snap.HasGate {
				readmit.AcceptEWMA = snap.Gate.AcceptEWMA
			}
			readmit.Restored = true
		}
	}
	// Registered as scheduled, the session is held by this call the way
	// a worker holds it: chunks and a racing Engine.Close's flush queue
	// up behind the backfill and the readmit, and a worker takes the
	// session only once release hands it over.
	s.scheduled = true
	if err := e.register(s); err != nil {
		if s.st != nil {
			s.st.Reset()
			e.streamers.Put(s.st)
		}
		return nil, err
	}
	defer s.release()
	if opts.Backfill {
		if err := w.ReplaySession(id, func(ev event.Event) { sink.Emit(ev) }); err != nil {
			return s, err
		}
	}
	// The re-admit marker goes through forward, so it is logged
	// (write-ahead) and delivered like every other event — and it is
	// appended after the backfill read the log, so a backfill never
	// sees its own readmit twice.
	s.forward(readmit)
	return s, nil
}

// release ends Reopen's hold on a session registered as scheduled: it
// hands the session to a worker if chunks queued up meanwhile, and
// parks it otherwise.
func (s *Session) release() {
	s.mu.Lock()
	if len(s.pending) == 0 {
		s.scheduled = false
		s.mu.Unlock()
		return
	}
	s.mu.Unlock()
	s.eng.runq <- s
}

// abort simulates a process kill for the crash/restore tests: workers
// stop after draining the queue, but no session is flushed or
// finished — no final events, no final snapshots, no lifecycle — which
// is exactly the state SIGKILL leaves in the WAL. The engine is
// unusable afterwards. Callers must ensure no Push/Close is in flight.
func (e *Engine) abort() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	e.mu.Unlock()
	close(e.runq)
	e.wg.Wait()
}

// barrier blocks until every chunk enqueued before it was processed —
// a sink-less control chunk (test helper for deterministic kill
// points).
func (s *Session) barrier() error {
	ctl := &attachCtl{done: make(chan struct{})}
	if err := s.enqueue(chunk{ctl: ctl}); err != nil {
		return err
	}
	<-ctl.done
	return ctl.err
}
