// Package event is the unified typed event-stream surface of the
// serving stack. Everything the system discovers asynchronously — a
// delineated beat, a contact-health transition, a PMU mode change, a
// session eviction, a session end — is delivered as one Event value
// through one Sink interface, instead of the historical four-way split
// (returned beat slices, per-beat callbacks, engine-global close hooks,
// and polled health accessors).
//
// Design rules, pinned by the tests in this package and the parity
// tests in core and session:
//
//   - Event is a compact tagged union: one flat struct, no pointers, no
//     interfaces, so a Sink can buffer events in a preallocated ring
//     with zero per-event allocations. The Kind tag says which payload
//     fields are meaningful; every event is stamped with the session ID,
//     the source's beat-attempt index and the signal time at which it
//     became true.
//   - Producers emit events at the point they become true, as pure
//     functions of the samples pushed so far — never of wall time or
//     chunking — so an event sequence is deterministic and byte-identical
//     for any chunking and any worker count (the parity and determinism
//     laws of the streaming layers, lifted to events).
//   - Sink.Emit is synchronous and must not block: producers call it on
//     their processing goroutine (the session's worker). Slow or remote
//     consumers sit behind a bounded, drop-counting sink (Buffer, Chan)
//     rather than stalling the hot path. A sink must copy the Event if
//     it retains it beyond the call (it is a value — assignment copies).
package event

import (
	"sync"
	"sync/atomic"

	"repro/internal/hemo"
)

// Kind tags the event union.
type Kind uint8

// Event kinds.
const (
	// KindBeat: a delineated beat completed; Params carries the full
	// hemodynamic parameter set, including the quality gate's verdict.
	KindBeat Kind = 1 + iota
	// KindHealth: the accept-rate EWMA crossed the armed health floor
	// (Below reports the direction; AcceptEWMA and Floor the values).
	// Emitted only at transitions — per beat, the only points where the
	// EWMA changes — never periodically.
	KindHealth
	// KindMode: the PMU governor changed operating mode (Mode/PrevMode
	// hold core.PowerMode values).
	KindMode
	// KindEviction: the serving engine evicted the session for dead
	// contact (Reason holds session.ReasonDeadContact); always followed
	// by the session's KindSessionClosed.
	KindEviction
	// KindSessionClosed: the session finished — client close and
	// eviction alike; the final event of every session's stream.
	KindSessionClosed
	// KindReadmit: an evicted session was re-admitted after its
	// quarantine cool-down (session.Engine.Reopen); the first event of
	// the re-admitted stream. Restored reports whether the session was
	// rehydrated from a durable snapshot (warm template fast re-lock)
	// or cold-started; Beat/TimeS carry the restored clocks, AcceptEWMA
	// the restored contact-health reading.
	KindReadmit
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindBeat:
		return "beat"
	case KindHealth:
		return "health"
	case KindMode:
		return "mode"
	case KindEviction:
		return "eviction"
	case KindSessionClosed:
		return "session-closed"
	case KindReadmit:
		return "readmit"
	default:
		return "kind-?"
	}
}

// Event is the compact tagged union delivered through every Sink. Only
// the stamp (Kind, Session, Beat, TimeS) is meaningful for all kinds;
// the payload fields are grouped by the kinds that set them and are
// zero otherwise. It is a plain value — copy freely, never shared.
//
// The icg:wal marker pins the WAL codec contract: Event (and every
// type it embeds) must stay flat — fixed-size, pointer-free — so the
// fixed-width codec in internal/wal can encode it without indirection.
// The eventflat analyzer enforces this structurally at lint time.
//
//icg:wal
type Event struct {
	Kind Kind
	// Session is the serving-layer session ID (0 for a bare
	// core.Streamer that was armed without one).
	Session uint64
	// Beat is the producer's beat-attempt count (scored and failed
	// delineations alike) as of this event — the per-session event
	// clock. Lifecycle events carry the final count.
	Beat int
	// TimeS is the signal time (seconds of samples pushed, never wall
	// time) at which the event became true; for beats, the closing R
	// peak of the beat (Params.TimeS anchors the opening R).
	TimeS float64

	// Params is the beat's hemodynamic parameter set (KindBeat).
	Params hemo.BeatParams

	// AcceptEWMA is the per-beat accept-rate EWMA at the event
	// (KindHealth; also stamped on KindEviction/KindSessionClosed as
	// the final contact-health reading).
	AcceptEWMA float64
	// Below reports the transition direction of a KindHealth event:
	// true when the EWMA dropped below the floor, false on recovery.
	Below bool
	// Floor is the armed health floor the EWMA crossed (KindHealth).
	Floor float64

	// Mode and PrevMode are core.PowerMode values (KindMode).
	Mode, PrevMode int

	// Reason is a session.CloseReason value (KindEviction,
	// KindSessionClosed).
	Reason int
	// Accepted and Emitted are the session's final gate tally
	// (KindEviction, KindSessionClosed).
	Accepted, Emitted int
	// Restored reports whether a re-admitted session was rehydrated
	// from a durable snapshot rather than cold-started (KindReadmit).
	Restored bool
}

// Sink receives events. Emit is synchronous, must not block, and must
// not call back into the producer (the streamer, session or engine that
// emitted the event); implementations that retain the event must copy
// it. The producer guarantees per-source FIFO order and single-threaded
// delivery: a given session's events arrive one at a time, in order, on
// that session's worker goroutine.
type Sink interface {
	Emit(e Event)
}

// Func adapts a function to the Sink interface.
type Func func(Event)

// Emit calls f.
func (f Func) Emit(e Event) { f(e) }

// Tee fans every event out to each sink in order.
type Tee []Sink

// Emit delivers e to every sink in order.
func (t Tee) Emit(e Event) {
	for _, s := range t {
		s.Emit(e)
	}
}

// Discard is the sink that drops everything.
var Discard Sink = Func(func(Event) {})

// Buffer is a bounded ring sink: the newest Cap events are retained,
// older ones are overwritten and counted in Dropped. Emit and Drain
// never allocate after construction, so it is the zero-allocation
// delivery path of the streaming hot loop; it is internally locked, so
// one goroutine may Emit while another Drains. Pool and recycle Buffers
// with Reset — the ring keeps its allocation.
type Buffer struct {
	mu      sync.Mutex
	ring    []Event
	start   int // index of the oldest buffered event
	n       int // buffered events
	dropped uint64
}

// NewBuffer returns a ring sink retaining up to capacity events
// (minimum 1).
func NewBuffer(capacity int) *Buffer {
	if capacity < 1 {
		capacity = 1
	}
	return &Buffer{ring: make([]Event, capacity)}
}

// Emit buffers e, overwriting the oldest event (and counting it
// dropped) when the ring is full.
func (b *Buffer) Emit(e Event) {
	b.mu.Lock()
	if b.n == len(b.ring) {
		b.ring[b.start] = e
		b.start++
		if b.start == len(b.ring) {
			b.start = 0
		}
		b.dropped++
	} else {
		i := b.start + b.n
		if i >= len(b.ring) {
			i -= len(b.ring)
		}
		b.ring[i] = e
		b.n++
	}
	b.mu.Unlock()
}

// Drain appends the buffered events to dst in arrival order and empties
// the ring; it allocates only if dst lacks capacity.
func (b *Buffer) Drain(dst []Event) []Event {
	b.mu.Lock()
	for i := 0; i < b.n; i++ {
		j := b.start + i
		if j >= len(b.ring) {
			j -= len(b.ring)
		}
		dst = append(dst, b.ring[j])
	}
	b.start, b.n = 0, 0
	b.mu.Unlock()
	return dst
}

// Len returns the number of buffered events.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.n
}

// Cap returns the ring capacity.
func (b *Buffer) Cap() int { return len(b.ring) }

// Dropped returns how many events were overwritten before being
// drained.
func (b *Buffer) Dropped() uint64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.dropped
}

// Reset empties the ring and clears the drop counter, keeping the
// allocation, so pooled Buffers carry no residue between sessions.
func (b *Buffer) Reset() {
	b.mu.Lock()
	b.start, b.n, b.dropped = 0, 0, 0
	b.mu.Unlock()
}

// Chan is the non-blocking bridge to a consumer goroutine: Emit sends
// to C when there is room and counts the event dropped otherwise, so a
// slow consumer can never stall the producer's worker. Close C yourself
// (or abandon it) when the producer is done; the producer never does.
type Chan struct {
	C       chan Event
	dropped atomic.Uint64
}

// NewChan returns a channel sink with the given buffer depth
// (minimum 1).
func NewChan(depth int) *Chan {
	if depth < 1 {
		depth = 1
	}
	return &Chan{C: make(chan Event, depth)}
}

// Emit sends e without blocking, counting it dropped when C is full.
func (c *Chan) Emit(e Event) {
	select {
	case c.C <- e:
	default:
		c.dropped.Add(1)
	}
}

// Dropped returns how many events were discarded because C was full.
func (c *Chan) Dropped() uint64 { return c.dropped.Load() }
