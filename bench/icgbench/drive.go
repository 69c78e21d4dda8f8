package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/session"
	"repro/internal/wal"
)

// transport is what the generator drives: the gateway over TCP, or an
// in-process session.Engine configured like the server (the traced
// session-layer run). Sessions are named by their index in the plan.
type transport interface {
	open(i int) error
	// subscribe joins session i's event stream from the other
	// connection (durable_churn's second subscriber).
	subscribe(i int) error
	push(i int, ecg, z []float64) error
	close(i int) error
}

// netTransport drives the gateway child through gateway.Client.
type netTransport struct {
	p       *plan
	clients []*gateway.Client
	streams []*gateway.ClientStream
	nextID  []uint16 // per connection, touched only by its handshake goroutine
}

func (t *netTransport) open(i int) error {
	s := t.p.sess[i]
	if t.nextID[s.conn] == 0xFFFE {
		return errors.New("stream ids exhausted on this connection")
	}
	t.nextID[s.conn]++
	cs, err := t.clients[s.conn].Open(t.nextID[s.conn], s.id, true)
	t.streams[i] = cs
	return err
}

func (t *netTransport) subscribe(i int) error {
	s := t.p.sess[i]
	return t.clients[(s.conn+1)%len(t.clients)].Subscribe(s.id)
}

func (t *netTransport) push(i int, ecg, z []float64) error { return t.streams[i].Push(ecg, z) }
func (t *netTransport) close(i int) error                  { return t.streams[i].Close() }

// engineTransport drives an in-process engine with the server's Config,
// handing each chunk over with PushOwned as the gateway's reader does.
type engineTransport struct {
	p     *plan
	eng   *session.Engine
	sess  []*session.Session
	sink  func(i int) event.Sink
	owned []reservoir // PushOwned call times (ns), per connection
}

func (t *engineTransport) open(i int) error {
	s, err := t.eng.Subscribe(t.p.sess[i].id, t.sink(i))
	t.sess[i] = s
	return err
}

func (t *engineTransport) subscribe(int) error { return nil }

func (t *engineTransport) push(i int, ecg, z []float64) error {
	n := len(ecg)
	buf := make([]float64, 2*n)
	copy(buf, ecg)
	copy(buf[n:], z)
	start := time.Now()
	err := t.sess[i].PushOwned(buf[:n:n], buf[n:])
	t.owned[t.p.sess[i].conn].add(float64(time.Since(start)))
	return err
}

func (t *engineTransport) close(i int) error { return t.sess[i].Close() }

// hasher folds one session's events, in their canonical WAL encoding
// (the bytes the gateway ships), into an FNV-1a chain, as icgserve
// -verify does.
type hasher struct {
	sum uint64
	n   int
	buf []byte
}

func (x *hasher) add(e *event.Event) {
	const prime = 1099511628211
	x.buf = wal.EncodeEvent(x.buf[:0], e)
	h := uint64(14695981039346656037)
	for i := 0; i < 8; i++ {
		h ^= uint64(byte(x.sum >> (8 * i)))
		h *= prime
	}
	for _, b := range x.buf {
		h ^= uint64(b)
		h *= prime
	}
	x.sum = h
	x.n++
}

// lifecycle reports whether an event is a session lifecycle event, which
// no chunk triggers and which latency therefore leaves out.
func lifecycle(k event.Kind) bool {
	return k == event.KindEviction || k == event.KindSessionClosed || k == event.KindReadmit
}

// evStream is one subscriber's copy of one session's event stream.
type evStream struct {
	h       hasher
	recv    []int64 // arrival of each beat, health and mode event (ns since the run base)
	closed  bool
	evicted bool
	events  []event.Event // kept on traced runs, for the WAL and codec timings
}

func (s *evStream) add(e *event.Event, at int64, keep bool) {
	s.h.add(e)
	switch {
	case e.Kind == event.KindSessionClosed:
		s.closed = true
	case e.Kind == event.KindEviction:
		s.evicted = true
	case !lifecycle(e.Kind):
		s.recv = append(s.recv, at)
	}
	if keep {
		s.events = append(s.events, *e)
	}
}

// sessRun is one session's state during a run. The pacer of its
// connection owns the push fields, the handshake goroutines the open and
// close fields, and the consumers the event streams; the ready channel
// and the end of the run order them.
type sessRun struct {
	ready             chan struct{}
	opened            bool
	openErr, subErr   error
	pushErr, closeErr error
	chunks, samples   int
	dues, rets        []int64 // closed loop: push start; engine transport: PushOwned return
	own, sub          evStream
	pushSpan          []int32 // traced, sampled sessions: span index of each push
}

// connStats is what one connection's goroutines measure.
type connStats struct {
	lag, push, open, close reservoir // ns
	pushNs                 int64
	pairs                  int
	lastAck                int64
}

const (
	reqOpen = iota
	reqSub
	reqClose
)

type hsReq struct{ kind, i int }

// run is one drive of a plan through a transport.
type run struct {
	p      *plan
	tr     transport
	base   time.Time
	runs   []sessRun
	conns  []*connStats
	hs     []chan hsReq
	hsDone sync.WaitGroup
	// finished receives one value per session, at its close or its failed
	// open; it holds one per session, so no handshake ever blocks on it.
	finished chan struct{}
	// closedCh receives one value per KindSessionClosed any subscriber
	// gets; it holds every close of the run (two per session at most), so
	// a consumer never blocks on it.
	closedCh     chan struct{}
	expectClosed atomic.Int64
	strays       atomic.Int64
	keepEvents   bool
	spans        *spanLog
	spanNames    [3]string // open, push, close
	streamStart  int64
	crossSub     bool
}

func newRun(p *plan, tr transport, traced bool) *run {
	r := &run{
		p: p, tr: tr, base: time.Now(),
		runs:       make([]sessRun, len(p.sess)),
		finished:   make(chan struct{}, len(p.sess)),
		closedCh:   make(chan struct{}, 2*len(p.sess)),
		keepEvents: traced,
	}
	r.spanNames = [3]string{"session.subscribe", "session.push_owned", "session.close"}
	// The in-process engine has a single subscriber per session.
	if _, ok := tr.(*netTransport); ok {
		r.crossSub = p.w.durable && p.o.conns > 1
		r.spanNames = [3]string{"gateway.open", "gateway.push", "gateway.close"}
	}
	if traced {
		r.spans = &spanLog{}
	}
	for i := range r.runs {
		r.runs[i].ready = make(chan struct{})
	}
	for c := 0; c < p.o.conns; c++ {
		r.conns = append(r.conns, &connStats{})
		// Each session sends at most three requests (open, the other
		// connection's subscribe, close), so no sender ever blocks.
		r.hs = append(r.hs, make(chan hsReq, 3*len(p.sess)))
	}
	return r
}

func (r *run) now() int64 { return int64(time.Since(r.base)) }

func (r *run) startHandshakes() {
	for c := range r.hs {
		r.hsDone.Add(1)
		go r.handshake(c)
	}
}

func (r *run) stopHandshakes() {
	for _, h := range r.hs {
		close(h)
	}
	r.hsDone.Wait()
}

// handshake runs one connection's blocking Open, Subscribe and Close
// calls, in request order.
func (r *run) handshake(c int) {
	defer r.hsDone.Done()
	cs := r.conns[c]
	for q := range r.hs[c] {
		st := &r.runs[q.i]
		switch q.kind {
		case reqOpen:
			t := r.now()
			err := r.tr.open(q.i)
			end := r.now()
			cs.open.add(float64(end - t))
			r.spans.add(r.spanNames[0], t, end, -1, r.p.sess[q.i].id, -1)
			if err != nil {
				st.openErr = err
				r.finished <- struct{}{}
				close(st.ready)
				continue
			}
			st.opened = true
			r.expectClosed.Add(1)
			if r.crossSub {
				r.expectClosed.Add(1)
				r.hs[(r.p.sess[q.i].conn+1)%len(r.hs)] <- hsReq{reqSub, q.i}
				continue
			}
			close(st.ready)
		case reqSub:
			if err := r.tr.subscribe(q.i); err != nil {
				st.subErr = err
				r.expectClosed.Add(-1)
			}
			close(st.ready)
		case reqClose:
			t := r.now()
			err := r.tr.close(q.i)
			end := r.now()
			cs.close.add(float64(end - t))
			r.spans.add(r.spanNames[2], t, end, -1, r.p.sess[q.i].id, -1)
			st.closeErr = err
			cs.lastAck = max(cs.lastAck, end)
			r.finished <- struct{}{}
		}
	}
}

// openInitial opens every initial session and waits until each is ready
// to stream.
func (r *run) openInitial() {
	for i, s := range r.p.sess {
		if s.initial {
			r.hs[s.conn] <- hsReq{reqOpen, i}
		}
	}
	for i, s := range r.p.sess {
		if s.initial {
			<-r.runs[i].ready
		}
	}
}

// tick is one scheduled action of an open-loop pacer: push chunk k of
// session i, or open it (k < 0).
type tick struct {
	due  int64 // ns after the start of streaming
	i, k int32
}

func (r *run) ticks(c int) []tick {
	period := int64(r.p.w.chunkPeriod())
	var ts []tick
	for i, s := range r.p.sess {
		if s.conn != c {
			continue
		}
		if !s.initial {
			ts = append(ts, tick{int64(s.openAt), int32(i), -1})
		}
		for k := 0; k < s.chunks(r.p.w.chunk); k++ {
			ts = append(ts, tick{int64(s.start) + int64(k)*period, int32(i), int32(k)})
		}
	}
	// Pushes before opens at the same instant: a slot's last chunk and
	// close go out before its next session opens.
	sort.Slice(ts, func(a, b int) bool {
		if ts[a].due != ts[b].due {
			return ts[a].due < ts[b].due
		}
		return ts[a].k >= 0 && ts[b].k < 0
	})
	return ts
}

// pushOne pushes chunk k of session i and records its timing.
func (r *run) pushOne(c, i, k int, due int64) {
	cs, st, s := r.conns[c], &r.runs[i], r.p.sess[i]
	ecg, z := s.chunkAt(k, r.p.w.chunk)
	t := r.now()
	cs.lag.add(float64(t - due))
	err := r.tr.push(i, ecg, z)
	end := r.now()
	if r.spans != nil {
		cs.push.add(float64(end - t))
		cs.pushNs += end - t
		if sampled(s.id) {
			st.pushSpan = append(st.pushSpan, r.spans.add(r.spanNames[1], t, end, -1, s.id, k))
		}
	}
	if err != nil {
		st.pushErr = err
		return
	}
	st.chunks++
	st.samples += len(ecg)
	cs.pairs += len(ecg)
	if !r.p.w.openLoop {
		st.dues = append(st.dues, t)
	}
	if _, ok := r.tr.(*engineTransport); ok {
		st.rets = append(st.rets, end)
	}
}

// paceOpen is an open-loop sender: every chunk goes out when it is due,
// however the server is doing, and is timed from its due time.
func (r *run) paceOpen(c int) {
	for _, tk := range r.ticks(c) {
		due := r.streamStart + tk.due
		if d := due - r.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		i, k := int(tk.i), int(tk.k)
		if k < 0 {
			r.hs[c] <- hsReq{reqOpen, i}
			continue
		}
		st := &r.runs[i]
		if k == 0 {
			<-st.ready
		}
		if !st.opened {
			continue
		}
		if st.pushErr == nil {
			r.pushOne(c, i, k, due)
		}
		if k == r.p.sess[i].chunks(r.p.w.chunk)-1 {
			r.hs[c] <- hsReq{reqClose, i}
		}
	}
}

// paceClosed is a closed-loop sender: it pushes each of its sessions'
// next chunk in turn, each as soon as the previous Push returned, until
// the window ends; then it closes them. A chunk is due when the sender is
// free to send it, so its lag is the sender's own bookkeeping.
func (r *run) paceClosed(c int, window int64) {
	var mine []int
	for i, s := range r.p.sess {
		if s.conn == c && r.runs[i].opened {
			mine = append(mine, i)
		}
	}
	end := r.streamStart + window
	free := r.now()
rounds:
	for sent := true; sent; {
		sent = false
		for _, i := range mine {
			st := &r.runs[i]
			if st.pushErr != nil || st.chunks >= r.p.sess[i].chunks(r.p.w.chunk) {
				continue
			}
			if free >= end {
				break rounds
			}
			r.pushOne(c, i, st.chunks, free)
			free = r.now()
			sent = true
		}
	}
	for _, i := range mine {
		r.hs[c] <- hsReq{reqClose, i}
	}
}

// stream runs the measured window: both senders, then every close.
func (r *run) stream() error {
	r.streamStart = r.now()
	window := int64(r.p.o.seconds * float64(time.Second))
	var wg sync.WaitGroup
	for c := range r.hs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if r.p.w.openLoop {
				r.paceOpen(c)
			} else {
				r.paceClosed(c, window)
			}
		}()
	}
	wg.Wait()
	deadline := time.After(60 * time.Second)
	for n := range r.runs {
		select {
		case <-r.finished:
		case <-deadline:
			return fmt.Errorf("%d of %d sessions unfinished 60 s after the senders finished", len(r.runs)-n, len(r.runs))
		}
	}
	return nil
}

// awaitCloses waits until every subscriber has seen every session's
// final event, so nothing is still in flight when the connections close.
func (r *run) awaitCloses(timeout time.Duration) error {
	want := r.expectClosed.Load()
	deadline := time.After(timeout)
	for got := int64(0); got < want; got++ {
		select {
		case <-r.closedCh:
		case <-deadline:
			return fmt.Errorf("%d of %d final session events never arrived", want-got, want)
		}
	}
	return nil
}

func (r *run) record(i int, own bool, e *event.Event, at int64) {
	st := &r.runs[i]
	if own {
		st.own.add(e, at, r.keepEvents)
	} else {
		st.sub.add(e, at, false)
	}
	if e.Kind == event.KindSessionClosed {
		r.closedCh <- struct{}{}
	}
}

// consume drains one connection's merged event stream.
func (r *run) consume(c int, cl *gateway.Client) {
	for e := range cl.Events() {
		at := r.now()
		i := int(e.Session) - 1
		if i < 0 || i >= len(r.runs) {
			r.strays.Add(1)
			continue
		}
		r.record(i, r.p.sess[i].conn == c, &e, at)
	}
}

// sampled picks the sessions whose every push and event is kept as a
// span in trace.json; the per-layer numbers use every call.
func sampled(id uint64) bool { return id%64 == 1 }

// netRun is one set-up of the server child: its connections, and the
// run driving it.
type netRun struct {
	ch        *child
	run       *run
	tr        *netTransport
	tconns    []*tracedConn
	rssListen int64
	setup     time.Duration
	consumers sync.WaitGroup
	walDir    string
}

// eventDepth sizes each client's event channel: a second of events of a
// whole connection, so the consumer never holds up the client's reader.
const eventDepth = 4096

// setupNet spawns the server child, dials the connections and opens every
// initial session; setup is the time that took.
func setupNet(p *plan, rep int) (*netRun, error) {
	o := p.o
	start := time.Now()
	n := &netRun{}
	if p.w.durable {
		n.walDir = filepath.Join(o.workdir, fmt.Sprintf("wal-%d-%d", os.Getpid(), rep))
		if err := os.RemoveAll(n.walDir); err != nil {
			return nil, err
		}
	}
	ch, err := spawnChild(p.w, o, n.walDir)
	if err != nil {
		return nil, err
	}
	n.ch = ch
	if n.rssListen, err = procStatus(ch.pid, "VmRSS"); err != nil {
		ch.kill()
		return nil, err
	}
	n.tr = &netTransport{p: p, streams: make([]*gateway.ClientStream, len(p.sess)), nextID: make([]uint16, o.conns)}
	n.run = newRun(p, n.tr, o.traced)
	for c := 0; c < o.conns; c++ {
		nc, err := net.Dial("tcp", ch.addr)
		if err != nil {
			n.run.startHandshakes() // teardown stops them
			n.teardown()
			return nil, err
		}
		if o.traced {
			tc := &tracedConn{Conn: nc}
			n.tconns = append(n.tconns, tc)
			nc = tc
		}
		cl := gateway.NewClient(nc, eventDepth)
		n.tr.clients = append(n.tr.clients, cl)
		n.consumers.Add(1)
		go func() {
			defer n.consumers.Done()
			n.run.consume(c, cl)
		}()
	}
	n.run.startHandshakes()
	n.run.openInitial()
	n.setup = time.Since(start)
	return n, nil
}

// teardown stops the set-up and removes its WAL.
func (n *netRun) teardown() error {
	return errors.Join(n.stop(), n.removeWAL())
}

// stop closes the connections and stops the child.
func (n *netRun) stop() error {
	for _, cl := range n.tr.clients {
		cl.Close()
	}
	n.consumers.Wait()
	n.run.stopHandshakes()
	return n.ch.stop()
}

func (n *netRun) removeWAL() error {
	if n.walDir == "" {
		return nil
	}
	return os.RemoveAll(n.walDir)
}

// serverWindow is what the benchmark reads from the child around the
// measured window.
type serverWindow struct {
	cpu        time.Duration
	genCPU     time.Duration
	gcCycles   int
	gcCPUms    float64
	ctx        int64
	peakRSS    int64 // VmHWM at the end of streaming (kB)
	rss        int64 // VmRSS after the collection halfway through the window (kB)
	heapLive   int64 // live heap that collection marked (bytes)
	pairs      int
	wall       time.Duration // first push to last CloseAck
	stats      childStats
	walRecover time.Duration
	walBytes   float64 // retained WAL bytes per logged event
}

// cpuPerPair is the child's CPU time per pair ingested, in µs.
func (w serverWindow) cpuPerPair() float64 { return float64(w.cpu) / 1e3 / float64(w.pairs) }

// midReading is what a collection in the child gives: the live heap it
// marked, the child's VmRSS after it, and the CPU time it took.
type midReading struct {
	heapLive, rss int64
	cpu           time.Duration
	err           error
}

// collectAt waits d, has the child collect its garbage, and reads its
// VmRSS.
func (n *netRun) collectAt(d time.Duration) midReading {
	time.Sleep(d)
	pid := n.ch.pid
	cpu0, err0 := procCPU(pid)
	live, err1 := n.ch.collect()
	rss, err2 := procStatus(pid, "VmRSS")
	cpu1, err3 := procCPU(pid)
	return midReading{live, rss, cpu1 - cpu0, errors.Join(err0, err1, err2, err3)}
}

// measure runs the window of a set-up net run and reads the child's
// counters around it. The child is stopped on return.
//
// Halfway through the window the child collects its garbage: the live
// heap that collection marks is the memory the sessions hold. VmRSS while
// streaming also holds the garbage of the collector's current cycle,
// whose size depends on where that cycle stands, and even VmRSS right
// after the collection holds what the server allocated while it ran;
// both differ from run to run. The collection's CPU time, and its cycle
// in the GC counts, are left out of the window's.
func (n *netRun) measure() (serverWindow, error) {
	var w serverWindow
	pid := n.ch.pid
	cpu0, err := procCPU(pid)
	if err != nil {
		n.teardown()
		return w, err
	}
	ctx0, _ := procCtxSwitches(pid)
	gc0, gcms0 := n.ch.gc.snapshot()
	gen0 := selfCPU()
	mid := make(chan midReading, 1)
	go func() { mid <- n.collectAt(time.Duration(n.run.p.o.seconds * float64(time.Second) / 2)) }()

	serr := n.run.stream()

	m := <-mid
	cpu1, err1 := procCPU(pid)
	ctx1, _ := procCtxSwitches(pid)
	gen1 := selfCPU()
	peak, err2 := procStatus(pid, "VmHWM")
	gc1, gcms1 := n.ch.gc.snapshot()
	werr := n.run.awaitCloses(30 * time.Second)
	serr = errors.Join(serr, n.stop())
	if n.walDir != "" && serr == nil {
		// The restart cost of the log the server just wrote.
		w.walRecover, w.walBytes, serr = walRecover(n.walDir)
	}
	if err := errors.Join(m.err, err1, err2, werr, serr, n.removeWAL()); err != nil {
		return w, err
	}
	w.cpu, w.genCPU = cpu1-cpu0-m.cpu, gen1-gen0
	w.gcCycles, w.gcCPUms = gc1-gc0, gcms1-gcms0
	w.ctx, w.peakRSS, w.rss, w.heapLive = ctx1-ctx0, peak, m.rss, m.heapLive
	for _, cs := range n.run.conns {
		w.pairs += cs.pairs
		w.wall = max(w.wall, time.Duration(cs.lastAck-n.run.streamStart))
	}
	w.stats = n.ch.stats
	return w, nil
}
