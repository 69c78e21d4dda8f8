package main

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/session"
)

// reference is what an uninterrupted in-process replay of exactly the
// chunks a run sent says each session's event stream must be.
type reference struct {
	hash    []uint64
	events  []int // every event of the session
	body    []int // beat, health and mode events
	evicted []bool
	// trig is, per session, the chunk whose core.Streamer.Push emitted
	// each beat, health and mode event; -1 marks the events the final
	// Flush emitted, which no chunk triggers.
	trig [][]int32
	// accepted and attempts are the quality gate's final tallies, from
	// each session's KindSessionClosed event.
	accepted, attempts int
	core               coreTiming
}

// coreTiming is the traced run's cost of core.Streamer, the DSP layer.
type coreTiming struct {
	pushNs    int64
	pairs     int
	beats     int
	beatChunk reservoir // Push of a chunk that emitted a beat (ns)
	plain     reservoir // Push of a chunk that did not (ns)
	flush     reservoir // Flush (ns)
}

func (c *coreTiming) merge(o *coreTiming) {
	c.pushNs += o.pushNs
	c.pairs += o.pairs
	c.beats += o.beats
	c.beatChunk.merge(&o.beatChunk)
	c.plain.merge(&o.plain)
	c.flush.merge(&o.flush)
}

// forEach runs f over the opened sessions on the run's worker count.
func forEach(p *plan, opened []bool, f func(g, i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, p.o.procs)
	next := make(chan int)
	for g := 0; g < p.o.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if err := f(g, i); err != nil && errs[g] == nil {
					errs[g] = err
				}
			}
		}()
	}
	for i := range p.sess {
		if opened[i] {
			next <- i
		}
	}
	close(next)
	wg.Wait()
	return errors.Join(errs...)
}

// computeReference replays what each session sent (sent[i] samples),
// outside the measured window, twice:
//
//   - through gateway.ReplayChunks into a session.Engine configured like
//     the server, as icgserve -verify does: the hash every subscriber's
//     copy must match;
//   - through core.Streamer.Push one chunk at a time, armed as the engine
//     arms it, to attribute each event to the chunk whose processing
//     emitted it. On traced runs those calls are the timed core layer.
func computeReference(p *plan, sent []int, opened []bool, traced bool) (*reference, error) {
	n := len(p.sess)
	ref := &reference{
		hash: make([]uint64, n), events: make([]int, n), body: make([]int, n),
		evicted: make([]bool, n), trig: make([][]int32, n),
	}
	eng := session.NewEngine(p.dev, p.scfg)
	hs := make([]hasher, n)
	closing := make([]event.Event, n)
	err := forEach(p, opened, func(_, i int) error {
		s := p.sess[i]
		sink := event.Func(func(e event.Event) {
			hs[i].add(&e)
			switch {
			case e.Kind == event.KindEviction:
				ref.evicted[i] = true
			case e.Kind == event.KindSessionClosed:
				closing[i] = e
			case !lifecycle(e.Kind):
				ref.body[i]++
			}
		})
		ss, err := eng.Subscribe(s.id, sink)
		if err != nil {
			return fmt.Errorf("reference open %d: %w", s.id, err)
		}
		ecg, z := s.input(sent[i])
		if err := gateway.ReplayChunks(ss, ecg, z, p.w.chunk); err != nil {
			return fmt.Errorf("reference replay %d: %w", s.id, err)
		}
		if err := ss.Close(); err != nil && !errors.Is(err, session.ErrSessionEvicted) {
			return fmt.Errorf("reference close %d: %w", s.id, err)
		}
		return nil
	})
	eng.Close()
	if err != nil {
		return nil, err
	}
	for i := range hs {
		ref.hash[i], ref.events[i] = hs[i].sum, hs[i].n
		ref.accepted += closing[i].Accepted
		ref.attempts += closing[i].Beat
	}

	timings := make([]coreTiming, p.o.procs)
	streamers := make([]*streamerReplay, p.o.procs)
	for g := range streamers {
		streamers[g] = newStreamerReplay(p)
	}
	err = forEach(p, opened, func(g, i int) error {
		var t *coreTiming
		if traced {
			t = &timings[g]
		}
		ref.trig[i] = streamers[g].attribute(p.sess[i], sent[i], !ref.evicted[i], t)
		if len(ref.trig[i]) != ref.body[i] {
			return fmt.Errorf("session %d: core.Streamer emitted %d events, the engine %d", p.sess[i].id, len(ref.trig[i]), ref.body[i])
		}
		return nil
	})
	for g := range timings {
		ref.core.merge(&timings[g])
	}
	return ref, err
}

// streamerReplay is one goroutine's core.Streamer, reset between
// sessions as the engine's pool does.
type streamerReplay struct {
	p     *plan
	st    *core.Streamer
	cur   int32
	trig  []int32
	beats int // beats the current Push emitted
}

func newStreamerReplay(p *plan) *streamerReplay {
	st := p.dev.NewStreamer(p.scfg.Stream)
	if h := p.scfg.Health; h.Enabled() {
		st.SetHealthFloor(h.EvictBelowRate)
	}
	return &streamerReplay{p: p, st: st}
}

// attribute pushes the session's sent chunks and returns the trigger
// chunk of every beat, health and mode event; flush is false for a
// session the reference evicted, which the engine never flushes. A
// non-nil t times every call.
func (r *streamerReplay) attribute(s *sessPlan, sent int, flush bool, t *coreTiming) []int32 {
	r.trig = nil
	r.st.Reset()
	r.st.Emit(event.Func(func(e event.Event) {
		if lifecycle(e.Kind) {
			return
		}
		r.trig = append(r.trig, r.cur)
		if e.Kind == event.KindBeat {
			r.beats++
		}
	}), s.id)
	chunk := r.p.w.chunk
	for k := 0; k*chunk < sent; k++ {
		lo := s.off + k*chunk
		hi := s.off + min((k+1)*chunk, sent)
		r.cur, r.beats = int32(k), 0
		start := time.Now()
		r.st.Push(s.rec.ecg[lo:hi], s.rec.z[lo:hi])
		if t == nil {
			continue
		}
		d := time.Since(start)
		t.pushNs += int64(d)
		t.pairs += hi - lo
		if r.beats > 0 {
			t.beats += r.beats
			t.beatChunk.add(float64(d))
		} else {
			t.plain.add(float64(d))
		}
	}
	if flush {
		r.cur = -1
		start := time.Now()
		r.st.Flush()
		if t != nil {
			t.flush.add(float64(time.Since(start)))
		}
	}
	return r.trig
}
