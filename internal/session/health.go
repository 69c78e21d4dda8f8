package session

// Session health management: the serving layer's answer to dead
// contact. A lifted finger produces minutes of signal that still costs
// full conditioning, detection and gating work per chunk while yielding
// nothing trustworthy; the quality gate's accept-rate EWMA (advanced
// per beat, so it is chunking-invariant per the gate parity law) is the
// online health signal, and the engine closes sessions whose EWMA stays
// below a floor for a configured stretch of signal time — or that stop
// producing beats entirely — returning their pooled streaming state and
// reporting a ReasonDeadContact close event.
//
// Determinism: every input to the eviction decision (the EWMA, the beat
// count, the sample clock) is a pure function of the session's own
// input chunks in arrival order, and the check runs after each
// processed chunk on the session's single worker. The eviction point is
// therefore identical for any worker count and any scheduling — the
// 1024-session determinism test runs with injected dead-contact
// sessions and eviction enabled, and stays byte-identical.

// HealthConfig tunes engine-level eviction of dead-contact sessions.
// The zero value disables eviction entirely (the engine behaves exactly
// as before health management existed).
type HealthConfig struct {
	// EvictBelowRate is the accept-rate-EWMA floor: a session whose
	// EWMA (core.StreamHealth.AcceptEWMA) stays below it continuously
	// for EvictAfterS of signal time is evicted. <= 0 disables
	// rate-based eviction.
	EvictBelowRate float64
	// EvictAfterS is how long the EWMA must stay below the floor before
	// eviction (default 30). All health windows are measured in
	// *analyzable* signal seconds: samples pushed minus the streamer's
	// structural reporting latency (core.Streamer.Latency), never wall
	// time.
	EvictAfterS float64
	// GraceS suppresses all health checks for the first GraceS
	// analyzable seconds of a session, so warmup (filter settling,
	// template seeding) cannot evict a live stream (default 10).
	GraceS float64
	// NoBeatS evicts a session that has produced no beat attempt at all
	// — not even a failed delineation — for NoBeatS analyzable seconds
	// (counted from the session start or the last beat). A flat,
	// contactless channel often yields no QRS detections, which the
	// rate EWMA alone would never see. 0 defaults to GraceS+EvictAfterS;
	// < 0 disables the rule.
	NoBeatS float64
}

// Enabled reports whether any eviction rule is active.
func (h HealthConfig) Enabled() bool {
	return h.EvictBelowRate > 0 || h.NoBeatS > 0
}

// withDefaults resolves the derived fields of an enabled config.
func (h HealthConfig) withDefaults() HealthConfig {
	if h.EvictAfterS <= 0 {
		h.EvictAfterS = 30
	}
	if h.GraceS <= 0 {
		h.GraceS = 10
	}
	if h.NoBeatS == 0 {
		h.NoBeatS = h.GraceS + h.EvictAfterS
	}
	return h
}

// CloseReason says why a session ended.
type CloseReason int

const (
	// ReasonClient: the session was closed by its owner (Session.Close,
	// including the engine-wide Close on shutdown).
	ReasonClient CloseReason = iota
	// ReasonDeadContact: the engine evicted the session because its
	// health signals said the contact was dead (HealthConfig).
	ReasonDeadContact
	// ReasonInternalError: a panic while processing the session's input
	// (a corrupted stage, a faulting subscriber sink) was recovered on
	// the worker and closed only this session — the process and every
	// other session continue untouched. The session's streaming state
	// is discarded, not pooled.
	ReasonInternalError
)

// String names the reason.
func (r CloseReason) String() string {
	switch r {
	case ReasonClient:
		return "client"
	case ReasonDeadContact:
		return "dead-contact"
	case ReasonInternalError:
		return "internal-error"
	default:
		return "reason-?"
	}
}

// healthCheck runs on the session's worker after each processed chunk
// and reports whether the session should be evicted now. All windows
// are measured on *analyzable* signal time — samples pushed minus the
// streamer's structural reporting latency (the delineator's settling
// context) — because an ordinarily confirmed beat is emitted Latency()
// seconds after its closing R entered the stream; comparing the raw
// feed clock against beat timestamps would count that lag as a drought.
// Latency is not a worst case: a beat recovered by search-back arrives
// up to the QRS detector's MaxLag after its closing R, so a drought that
// such a beat ends can look up to that much longer than it was. Both rules
// anchor to signal-clock events: the drought to the last beat (or the
// stream start), and the below-floor window to the exact beat at which
// the EWMA dropped under the floor — the streamer tracks that onset per
// beat (core.StreamHealth.RateBelowSinceS), the only points where the
// EWMA changes, so a recovery between two beats inside one chunk always
// resets the window and the decision depends only on the input consumed
// so far.
func (s *Session) healthCheck(h *HealthConfig) bool {
	hs := s.st.Health()
	analyzed := hs.SignalS - s.st.Latency()
	if analyzed < h.GraceS {
		return false
	}
	// Beat drought: nothing delineable at all for NoBeatS.
	if h.NoBeatS > 0 && analyzed-hs.LastBeatS >= h.NoBeatS {
		return true
	}
	// Accept-rate floor: EWMA continuously below the floor since
	// RateBelowSinceS, for at least EvictAfterS.
	return h.EvictBelowRate > 0 && hs.RateBelowSinceS >= 0 &&
		analyzed-hs.RateBelowSinceS >= h.EvictAfterS
}

// evict closes the session from inside its worker: remaining queued
// chunks are discarded (a dead session's backlog would produce nothing
// but cost), blocked pushers are woken with ErrSessionEvicted, and the
// pooled streaming state is recycled. rest is the unprocessed tail of
// the worker's current batch.
func (s *Session) evict(rest []chunk) {
	s.mu.Lock()
	s.closing = true
	s.evicted = true
	s.discard(s.pending, ErrSessionEvicted)
	s.pending = s.pending[:0]
	s.cond.Broadcast()
	s.mu.Unlock()
	s.discard(rest, ErrSessionEvicted)
	s.finish(ReasonDeadContact)
}
