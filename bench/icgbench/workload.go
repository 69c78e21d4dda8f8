package main

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/physio"
	"repro/internal/session"
)

// workload is one traffic mix. The names are the contract later changes
// cite when they claim a gain on one workload and no change on the rest.
type workload struct {
	name, why string
	// openLoop sends every chunk on a real-time schedule, whatever the
	// server does; otherwise each sender pushes its next chunk as soon as
	// the previous Push returned.
	openLoop bool
	// sessions is the number of concurrent sessions (durable_churn: the
	// number of session slots, each reopened when its session ends).
	sessions int
	chunk    int // samples per Push
	// lifeS is a durable_churn session's planned lifetime in seconds; 0
	// means a session lasts the whole run.
	lifeS float64
	// maxSignalS bounds a closed-loop session's signal.
	maxSignalS float64
	deadFrac   float64 // share of sessions that feed physio.DeadContact
	// durable arms the WAL, dead-contact eviction, and a second
	// subscriber on the other connection for every session.
	durable bool
}

var workloads = []workload{
	{
		name: "fleet_realtime",
		why: "open loop at the production shape: 4000 devices each send a 200 ms chunk every 200 ms (1M pairs/s, about 30% of " +
			"capacity); server CPU and RAM per session at a sustainable load",
		openLoop: true, sessions: 4000, chunk: 50,
	},
	{
		name: "fleet_saturate",
		why: "closed loop, 2000 sessions of 50-sample chunks: the highest rate the server sustains with a bounded backlog; " +
			"DSP (core) dominates; egress queue 8192, not icgserve's 1024, which drops here",
		sessions: 2000, chunk: 50, maxSignalS: 120,
	},
	{
		name: "tiny_chunks",
		why: "closed loop, 1000 sessions of 5-sample radio packets: fleet_saturate's DSP per pair with 3.3x the frames, " +
			"so radio, codec and enqueue dominate; egress queue 8192, not icgserve's 1024",
		sessions: 1000, chunk: 5, maxSignalS: 120,
	},
	{
		name: "durable_churn",
		why: "1000 real-time session slots reopened every 20 s, 25% dead contact evicted, WAL with fsync, every event sent " +
			"to two subscribers: the layers the others bypass",
		openLoop: true, sessions: 1000, chunk: 50, lifeS: 20, deadFrac: 0.25, durable: true,
	},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Fixed shape of every run.
const (
	fs          = 250.0 // sample rate of the paper's device (core.DefaultConfig)
	maxStreams  = 4096  // gateway.Config.MaxStreams default: live streams per connection
	maxPending  = 64    // session.Config.MaxPending the server runs with
	offsetRange = 60    // seconds of distinct start offsets into each recording
	numSubjects = 5
)

// options are the per-invocation settings of a run.
type options struct {
	seed    int64
	seconds float64 // measured window; open-loop sessions stream this long
	conns   int     // TCP connections of the one generator process (main: nproc)
	procs   int     // GOMAXPROCS of the generator and of the server child (main: nproc)
	// sessions and lifeS override the workload's values when non-zero;
	// lifeS applies only to a workload whose sessions have a lifetime (the
	// smoke test runs every workload small).
	sessions int
	lifeS    float64
	workdir  string
	traced   bool
	// corruptRef flips one reference hash before verification (the test
	// that a mismatch fails the run).
	corruptRef bool
}

// apply resolves the overrides into the workload.
func (o options) apply(w workload) workload {
	if o.sessions > 0 {
		w.sessions = o.sessions
	}
	if o.lifeS > 0 && w.lifeS > 0 {
		w.lifeS = o.lifeS
	}
	return w
}

// check is the config guard: it refuses a run the machine or the
// gateway's per-connection stream cap cannot carry, before anything is
// started.
func (o options) check(w workload, nproc int) error {
	var errs []error
	if o.conns < 1 || o.conns > nproc {
		errs = append(errs, fmt.Errorf("%d connections: must be between 1 and nproc (%d)", o.conns, nproc))
	}
	if o.procs < 1 || o.procs > nproc {
		errs = append(errs, fmt.Errorf("GOMAXPROCS %d: must be between 1 and nproc (%d)", o.procs, nproc))
	}
	if o.conns >= 1 {
		if per := (w.sessions + o.conns - 1) / o.conns; per > maxStreams {
			errs = append(errs, fmt.Errorf("%d sessions over %d connections is %d per connection, above the gateway's %d streams per connection",
				w.sessions, o.conns, per, maxStreams))
		}
	}
	if w.sessions < 1 || w.chunk < 1 || o.seconds <= 0 {
		errs = append(errs, fmt.Errorf("sessions, chunk and seconds must be positive"))
	}
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("icgbench: workload %s refused: %w", w.name, err)
	}
	return nil
}

// sessionConfig is the engine configuration of the server child, and of
// every in-process engine the benchmark compares it with.
func (w workload) sessionConfig(procs int) session.Config {
	c := session.Config{Workers: procs, MaxPending: maxPending}
	if w.durable {
		c.Health = session.HealthConfig{EvictBelowRate: 0.4, EvictAfterS: 10}
	}
	return c
}

// chunkPeriod is the signal time of one chunk.
func (w workload) chunkPeriod() time.Duration {
	return time.Duration(float64(w.chunk) / fs * float64(time.Second))
}

// recording is one channel pair sessions take windows of.
type recording struct {
	ecg, z []float64
}

// sessPlan is one session: its input window and, in open loop, its
// schedule relative to the start of streaming.
type sessPlan struct {
	id      uint64
	slot    int
	conn    int
	rec     *recording
	off     int
	n       int // samples to send: exact in open loop, the most available in closed loop
	planned int // samples before truncation at the reference eviction point
	dead    bool
	initial bool // opened during set-up
	evicts  bool // the reference evicts the session at sample n
	openAt  time.Duration
	start   time.Duration // due time of chunk 0
}

func (s *sessPlan) chunks(chunk int) int { return (s.n + chunk - 1) / chunk }

// chunkAt returns chunk k of the session's input.
func (s *sessPlan) chunkAt(k, chunk int) (ecg, z []float64) {
	lo := s.off + k*chunk
	hi := min(lo+chunk, s.off+s.n)
	return s.rec.ecg[lo:hi], s.rec.z[lo:hi]
}

// input returns the session's whole input window.
func (s *sessPlan) input(samples int) (ecg, z []float64) {
	return s.rec.ecg[s.off : s.off+samples], s.rec.z[s.off : s.off+samples]
}

// plan is everything a run sends, fixed by the workload and the seed
// before the server starts.
type plan struct {
	w     workload
	o     options
	dev   *core.Device
	scfg  session.Config
	sess  []*sessPlan
	nInit int
}

// offsetPool hands out distinct start offsets into one recording.
type offsetPool struct {
	perm []int
	next int
}

func (p *offsetPool) take() int {
	v := p.perm[p.next%len(p.perm)]
	p.next++
	return v
}

// buildPlan makes a run's inputs and schedule from the seed: each
// session's subject (one of the five study subjects, acquired once), a
// distinct start offset into that subject's recording, the dead-contact
// set, and the schedule phases.
func buildPlan(w workload, o options) (*plan, error) {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		return nil, err
	}
	p := &plan{w: w, o: o, dev: dev, scfg: w.sessionConfig(o.procs)}
	rng := rand.New(rand.NewSource(o.seed))
	period := w.chunkPeriod()

	var planned int
	switch {
	case w.lifeS > 0:
		planned = int(w.lifeS * fs)
	case w.openLoop:
		planned = int(math.Round(o.seconds/period.Seconds())) * w.chunk
	default:
		planned = int(w.maxSignalS * fs)
	}
	recLen := planned + offsetRange*fs
	live := make([]*recording, numSubjects)
	livePools := make([]*offsetPool, numSubjects)
	for i := range live {
		sub, _ := physio.SubjectByID(i + 1)
		acq, err := dev.Acquire(&sub, float64(recLen)/fs)
		if err != nil {
			return nil, fmt.Errorf("acquire subject %d: %w", i+1, err)
		}
		live[i] = &recording{acq.ECG, acq.Z}
		livePools[i] = &offsetPool{perm: rng.Perm(offsetRange * fs)}
	}
	var dead []*recording
	var deadPools []*offsetPool
	if w.deadFrac > 0 {
		for i := 0; i < numSubjects; i++ {
			e, z := physio.DeadContact(o.seed*numSubjects+int64(i), recLen)
			dead = append(dead, &recording{e, z})
			deadPools = append(deadPools, &offsetPool{perm: rng.Perm(offsetRange * fs)})
		}
	}
	newSess := func(conn, n int) *sessPlan {
		s := &sessPlan{conn: conn, n: n, planned: n}
		if rng.Float64() < w.deadFrac {
			i := rng.Intn(len(dead))
			s.dead, s.rec, s.off = true, dead[i], deadPools[i].take()
		} else {
			i := rng.Intn(numSubjects)
			s.rec, s.off = live[i], livePools[i].take()
		}
		return s
	}

	if w.lifeS == 0 {
		for i := 0; i < w.sessions; i++ {
			s := newSess(i%o.conns, planned)
			s.slot, s.initial = i, true
			if w.openLoop {
				s.start = time.Duration(rng.Float64() * float64(period))
			}
			p.sess = append(p.sess, s)
		}
	} else if err := p.churnSchedule(rng, newSess, planned); err != nil {
		return nil, err
	}
	sort.Slice(p.sess, func(i, j int) bool {
		a, b := p.sess[i], p.sess[j]
		if a.openAt != b.openAt {
			return a.openAt < b.openAt
		}
		return a.slot < b.slot
	})
	for i, s := range p.sess {
		s.id = uint64(i + 1)
		if s.initial {
			p.nInit++
		}
	}
	return p, nil
}

// churnSchedule lays out durable_churn: every slot runs sessions back to
// back. A slot's first session is open from set-up with a random share of
// the lifetime left, so closes and opens are spread evenly from the start;
// each later session opens when its predecessor ends, as long as that is
// inside the measured window, and lives lifeS. A dead-contact session ends
// early, at the chunk where the reference engine evicts it.
func (p *plan) churnSchedule(rng *rand.Rand, newSess func(conn, n int) *sessPlan, life int) error {
	w, o := p.w, p.o
	// Every candidate a slot could need is drawn up front, in slot order,
	// so the choices do not depend on the eviction points found below.
	// No later session ends sooner than lifeS or the eviction grace.
	perSlot := 2 + int(math.Ceil(o.seconds/math.Min(w.lifeS, evictionGraceS)))
	slots := make([][]*sessPlan, w.sessions)
	phases := make([]time.Duration, w.sessions)
	for j := range slots {
		phases[j] = time.Duration(rng.Float64() * float64(w.chunkPeriod()))
		first := max(1, int(math.Round(rng.Float64()*float64(life)/float64(w.chunk)))) * w.chunk
		for c := 0; c < perSlot; c++ {
			n := life
			if c == 0 {
				n = first
			}
			s := newSess(j%o.conns, n)
			s.slot, s.initial = j, c == 0
			slots[j] = append(slots[j], s)
		}
	}
	pre := newEvictionProbe(p)
	defer pre.close()
	errs := make([]error, len(slots))
	var wg sync.WaitGroup
	next := make(chan int)
	for g := 0; g < o.procs; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range next {
				slots[j], errs[j] = p.laySlot(slots[j], phases[j], pre)
			}
		}()
	}
	for j := range slots {
		next <- j
	}
	close(next)
	wg.Wait()
	for _, ss := range slots {
		p.sess = append(p.sess, ss...)
	}
	return errors.Join(errs...)
}

// evictionGraceS is session.HealthConfig's default GraceS: no session is
// evicted before this much signal.
const evictionGraceS = 10

// laySlot schedules one slot's candidates back to back from phase and
// returns those that open inside the window.
func (p *plan) laySlot(cands []*sessPlan, phase time.Duration, pre *evictionProbe) ([]*sessPlan, error) {
	period := p.w.chunkPeriod()
	window := time.Duration(p.o.seconds * float64(time.Second))
	openAt, start := time.Duration(0), phase
	for c, s := range cands {
		if c > 0 && openAt >= window {
			return cands[:c], nil
		}
		if s.dead {
			n, evicts, err := pre.evictionPoint(s)
			if err != nil {
				return nil, err
			}
			s.n, s.evicts = n, evicts
		}
		s.openAt, s.start = openAt, start
		last := start + time.Duration(s.chunks(p.w.chunk)-1)*period
		openAt, start = last, last+period
	}
	if openAt < window {
		return nil, fmt.Errorf("churn slot %d needs more than %d sessions", cands[0].slot, len(cands))
	}
	return cands, nil
}

// evictionProbe finds where the server's health policy evicts a
// dead-contact session, by replaying its whole planned input through the
// exact wire framing into an engine configured like the server. The
// sender then stops at that sample: a chunk sent after an eviction gets a
// stream error, and the next one a protocol error that kills the whole
// connection.
type evictionProbe struct {
	eng   *session.Engine
	chunk int
	ids   atomic.Uint64
}

func newEvictionProbe(p *plan) *evictionProbe {
	return &evictionProbe{eng: session.NewEngine(p.dev, p.scfg), chunk: p.w.chunk}
}

func (e *evictionProbe) close() { e.eng.Close() }

// evictionPoint returns the samples the session sends and whether the
// reference evicts it there.
func (e *evictionProbe) evictionPoint(s *sessPlan) (int, bool, error) {
	var evictT float64
	evicted := false
	sink := event.Func(func(ev event.Event) {
		if ev.Kind == event.KindEviction {
			evicted, evictT = true, ev.TimeS
		}
	})
	ss, err := e.eng.Subscribe(e.ids.Add(1), sink)
	if err != nil {
		return 0, false, fmt.Errorf("eviction probe: %w", err)
	}
	ecg, z := s.input(s.n)
	perr := gateway.ReplayChunks(ss, ecg, z, e.chunk)
	cerr := ss.Close()
	<-ss.Done()
	if !evicted {
		if perr != nil || cerr != nil {
			return 0, false, fmt.Errorf("eviction probe: %v %v", perr, cerr)
		}
		return s.n, false, nil
	}
	n := int(math.Round(evictT * fs))
	if n < 1 || n > s.n {
		return 0, false, fmt.Errorf("eviction probe: eviction at sample %d outside [1, %d]", n, s.n)
	}
	return n, true, nil
}
