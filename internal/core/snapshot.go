package core

import "repro/internal/quality"

// Compact session snapshot/restore — the durability layer's view of a
// Streamer. A snapshot deliberately captures only the state that makes
// a restarted session *warm* rather than bit-identical: the gate's
// ensemble template and acceptance EWMA (the PR-4 fast re-lock path),
// the governor's mode and dwell anchor, and the session clocks that
// keep the restored event stream monotonic. The sample-sized DSP state
// — filter delay lines, detector thresholds, the raw-history ring — is
// rebuilt from new samples after the restore, exactly like a fresh
// stream, so snapshots stay a few hundred bytes regardless of session
// length and the recovery laws are about the *event log* (a recovered
// prefix of the true stream) plus a warm continuation, never about
// replaying raw samples.

// StreamSnapshot is the compact durable state of a Streamer.
type StreamSnapshot struct {
	// Beat and TimeS are the session clocks at the snapshot — the
	// beat-attempt count and signal time (Clock), which become the
	// restored streamer's stamp bases.
	Beat  int
	TimeS float64
	// LastMode is the armed governor's last delivered mode (meaningful
	// with HasGov).
	LastMode PowerMode
	// Gate is the quality gate's durable state. Snapshot always sets
	// HasGate; a restorer clears it to re-lock the gate cold.
	HasGate bool
	Gate    quality.GateSnapshot
	// Gov is the armed governor's durable state (HasGov guards it).
	HasGov bool
	Gov    GovernorSnapshot
}

// Clock returns the session clocks: the beat-attempt count and the
// signal time (seconds) pushed so far, both including any restored
// base — the monotonic per-session axes every emitted event is stamped
// with. Health() is deliberately epoch-local (its windows measure the
// current process's feed, so a restored session gets a fresh health
// grace period); Clock is the cross-restart one.
func (s *Streamer) Clock() (beat int, timeS float64) {
	return s.beatBase + s.nBeats, s.timeBase + float64(s.nSamples)/s.fs
}

// Snapshot captures the streamer's durable state.
func (s *Streamer) Snapshot() StreamSnapshot {
	snap := StreamSnapshot{LastMode: s.lastMode, HasGate: true, Gate: s.gate.Snapshot()}
	snap.Beat, snap.TimeS = s.Clock()
	if s.gov != nil {
		snap.Gov, snap.HasGov = s.gov.Snapshot(), true
	}
	return snap
}

// Restore rehydrates a fresh (or Reset) streamer from a snapshot: the
// event stamps continue from the snapshot clocks, the gate scores new
// beats against the restored template immediately (warm re-lock), and
// the governor resumes its mode and dwell on the continued time axis.
// Call it before the first Push of the restored session; health
// windows restart (see Clock).
func (s *Streamer) Restore(snap StreamSnapshot) {
	s.beatBase = snap.Beat
	s.timeBase = snap.TimeS
	if snap.HasGate {
		s.gate.Restore(snap.Gate)
	}
	if s.gov != nil && snap.HasGov {
		s.gov.Restore(snap.Gov)
		s.lastMode = snap.LastMode
	}
}
