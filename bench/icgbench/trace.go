package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/hw/radio"
	"repro/internal/session"
	"repro/internal/wal"
)

// tracedConn wraps a generator connection on traced runs: it counts the
// bytes each way, times the writes that carry chunk frames (the time a
// Push is blocked by TCP backpressure), and keeps the first captureCap
// bytes of chunk frames for the radio scan timing.
type tracedConn struct {
	net.Conn
	wBytes, rBytes atomic.Int64
	chunkWriteNs   atomic.Int64
	chunkWrites    atomic.Int64
	capMu          sync.Mutex
	capture        []byte
}

const captureCap = 8 << 20

func (c *tracedConn) Write(b []byte) (int, error) {
	chunk := len(b) > 1 && b[1] == gateway.TypeChunk
	start := time.Now()
	n, err := c.Conn.Write(b)
	d := time.Since(start)
	c.wBytes.Add(int64(n))
	if chunk {
		c.chunkWriteNs.Add(int64(d))
		c.chunkWrites.Add(1)
		c.capMu.Lock()
		if len(c.capture)+len(b) <= captureCap {
			c.capture = append(c.capture, b...)
		}
		c.capMu.Unlock()
	}
	return n, err
}

func (c *tracedConn) Read(b []byte) (int, error) {
	n, err := c.Conn.Read(b)
	c.rBytes.Add(int64(n))
	return n, err
}

// span is one timed call, on the timeline of the run that made it.
type span struct {
	Name    string `json:"name"`
	StartUs int64  `json:"start_us"`
	EndUs   int64  `json:"end_us"`
	Parent  int32  `json:"parent"` // index of the causing span, -1 for none
	Session uint64 `json:"session"`
	Chunk   int32  `json:"chunk"` // -1 when the call is not about one chunk
}

// spanLog keeps a traced run's spans in memory until the run ends. It is
// bounded; the per-layer metrics use every call, the log only the
// sampled sessions.
type spanLog struct {
	mu      sync.Mutex
	spans   []span
	dropped int
}

const maxSpans = 200000

// add records a span and returns its index; a nil log records nothing.
func (l *spanLog) add(name string, start, end int64, parent int32, sess uint64, chunk int) int32 {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.spans) >= maxSpans {
		l.dropped++
		return -1
	}
	l.spans = append(l.spans, span{name, start / 1e3, end / 1e3, parent, sess, int32(chunk)})
	return int32(len(l.spans) - 1)
}

// layerRun holds what the traced run needs beyond the untraced metrics.
type layerRun struct {
	p       *plan
	net     *netRun
	sw      serverWindow
	ref     *reference
	untrace float64 // untraced server CPU per pair (us)
	eng     *run    // the in-process session-layer run
	engT    *engineTransport
}

// sessionLayer drives the same plan, on the same schedule, through an
// in-process engine with the server's Config: PushOwned, Subscribe and
// Close are timed where the gateway calls them, and each event's emit
// time is kept for the queue-plus-processing delay after its trigger
// chunk's PushOwned returned.
func sessionLayer(p *plan) (*run, *engineTransport, error) {
	et := &engineTransport{
		p: p, eng: session.NewEngine(p.dev, p.scfg),
		sess: make([]*session.Session, len(p.sess)), owned: make([]reservoir, p.o.conns),
	}
	r := newRun(p, et, false)
	r.spans = &spanLog{}
	et.sink = func(i int) event.Sink {
		return event.Func(func(e event.Event) { r.record(i, true, &e, r.now()) })
	}
	r.startHandshakes()
	r.openInitial()
	err := errors.Join(r.stream(), r.awaitCloses(30*time.Second))
	r.stopHandshakes()
	et.eng.Close()
	return r, et, err
}

// layers computes the per-layer metrics of a traced run into res.
func (l *layerRun) layers(res *result) error {
	p, r, sw, ref := l.p, l.net.run, l.sw, l.ref
	pairs := float64(sw.pairs)

	// radio: the frame scan over the captured ingress bytes.
	var scanNs time.Duration
	var frames, framePairs int
	var writeNs, writes, wBytes, rBytes int64
	for _, tc := range l.net.tconns {
		sc := radio.NewScannerLimit(bytes.NewReader(tc.capture), radio.MaxPayloadExt)
		start := time.Now()
		for {
			f, err := sc.Next()
			if errors.Is(err, io.EOF) {
				break
			}
			if err != nil {
				return fmt.Errorf("scan captured ingress: %w", err)
			}
			frames++
			if len(f.Payload) > 2 {
				framePairs += int(f.Payload[2])
			}
		}
		scanNs += time.Since(start)
		writeNs += tc.chunkWriteNs.Load()
		writes += tc.chunkWrites.Load()
		wBytes += tc.wBytes.Load()
		rBytes += tc.rBytes.Load()
	}
	if frames == 0 || framePairs == 0 {
		return errors.New("no chunk frames captured")
	}
	framesPerPair := float64(frames) / float64(framePairs)
	res.set("radio.scan_ns_per_frame", float64(scanNs)/float64(frames))
	res.set("radio.frames_per_kpair", 1000*framesPerPair)

	// gateway: the client side of the protocol, and the child's stats.
	var push, open, closeR, lag reservoir
	var pushNs int64
	for _, cs := range r.conns {
		push.merge(&cs.push)
		open.merge(&cs.open)
		closeR.merge(&cs.close)
		lag.merge(&cs.lag)
		pushNs += cs.pushNs
	}
	received := 0
	for i := range r.runs {
		received += r.runs[i].own.h.n + r.runs[i].sub.h.n
	}
	res.set("gateway.encode_ns_per_pair", float64(pushNs-writeNs)/pairs)
	res.set("gateway.write_wait_us_per_chunk", float64(writeNs)/float64(max(writes, 1))/1e3)
	res.setQ("gateway.push_us_p50", &push, 0.5, 1e-3)
	res.setQ("gateway.push_us_p99", &push, 0.99, 1e-3)
	res.setQ("gateway.open_ms_p50", &open, 0.5, 1e-6)
	res.setQ("gateway.open_ms_p99", &open, 0.99, 1e-6)
	res.setQ("gateway.close_ms_p50", &closeR, 0.5, 1e-6)
	res.set("gateway.wire_bytes_per_pair", float64(wBytes)/pairs)
	res.set("gateway.egress_bytes_per_event", float64(rBytes)/float64(max(received, 1)))
	res.set("gateway.events_dropped", float64(sw.stats.Gateway.EventsDropped))
	res.set("gateway.protocol_errs", float64(sw.stats.Gateway.ProtocolErrs))

	// session: the in-process engine run on the same schedule.
	er, et := l.eng, l.engT
	var owned, emit, sub, sclose reservoir
	for c := range et.owned {
		owned.merge(&et.owned[c])
		sub.merge(&er.conns[c].open)
		sclose.merge(&er.conns[c].close)
	}
	for i := range er.runs {
		st := &er.runs[i]
		for j, at := range st.own.recv {
			if j >= len(ref.trig[i]) || ref.trig[i][j] < 0 {
				break
			}
			if k := ref.trig[i][j]; int(k) < len(st.rets) {
				emit.add(float64(at - st.rets[k]))
			}
		}
	}
	evicted, shed, planned := 0, 0, 0
	for i, s := range p.sess {
		planned += s.planned
		if r.runs[i].own.evicted {
			evicted++
			shed += s.planned - r.runs[i].samples
		}
	}
	res.setQ("session.push_owned_us_p50", &owned, 0.5, 1e-3)
	res.setQ("session.push_owned_us_p99", &owned, 0.99, 1e-3)
	res.setQ("session.emit_delay_us_p50", &emit, 0.5, 1e-3)
	res.setQ("session.emit_delay_us_p99", &emit, 0.99, 1e-3)
	res.setQ("session.subscribe_us_p50", &sub, 0.5, 1e-3)
	res.setQ("session.close_us_p50", &sclose, 0.5, 1e-3)
	res.setQ("session.close_us_p99", &sclose, 0.99, 1e-3)
	res.set("session.evicted", float64(evicted))
	res.set("session.shed_pairs_frac", float64(shed)/float64(max(planned, 1)))

	// core: the attribution replay, timed.
	ct := &ref.core
	res.set("core.push_ns_per_pair", float64(ct.pushNs)/float64(ct.pairs))
	res.set("core.beats_per_kpair", 1000*float64(ct.beats)/float64(ct.pairs))
	res.setQ("core.push_us_beat_chunk_p50", &ct.beatChunk, 0.5, 1e-3)
	res.setQ("core.push_us_plain_chunk_p50", &ct.plain, 0.5, 1e-3)
	res.setQ("core.flush_us_p50", &ct.flush, 0.5, 1e-3)
	res.set("quality.accept_frac", float64(ref.accepted)/float64(max(ref.attempts, 1)))

	// wal and event codec, over the run's own events.
	var events [][]event.Event
	total := 0
	for i := range r.runs {
		if ev := r.runs[i].own.events; len(ev) > 0 {
			events = append(events, ev)
			total += len(ev)
		}
	}
	appendT, recoverT, perEvent, err := walReplay(p, events)
	if err != nil {
		return err
	}
	if sw.walRecover > 0 {
		recoverT, perEvent = sw.walRecover, sw.walBytes
	}
	res.setQ("wal.append_us_p50", appendT, 0.5, 1e-3)
	res.setQ("wal.append_us_p99", appendT, 0.99, 1e-3)
	res.set("wal.bytes_per_event", perEvent)
	res.set("wal.recover_ms", float64(recoverT)/1e6)
	encNs, decNs := codecTiming(events, total)
	res.set("event.encode_ns", encNs)
	res.set("event.decode_ns", decNs)

	// runtime of the child, read from outside it.
	cpuMs := float64(sw.cpu) / 1e6
	res.set("runtime.gc_cycles", float64(sw.gcCycles))
	res.set("runtime.gc_cpu_frac", sw.gcCPUms/cpuMs)
	res.set("runtime.ctx_switches_per_kpair", 1000*float64(sw.ctx)/pairs)
	res.setQ("gen.lag_p99_ms", &lag, 0.99, 1e-6)
	res.set("gen.cpu_us_per_pair", float64(sw.genCPU)/1e3/pairs)

	// ledger: the layers timed above, per pair, against the server's CPU.
	serverUs := sw.cpuPerPair()
	eventsOut := float64(sw.stats.Gateway.EventsOut)
	walUs := 0.0
	if p.w.durable {
		walUs = appendT.mean() / 1e3 * float64(total) / pairs
	}
	pushOwnedP50, _ := owned.q(0.5)
	rows := []struct {
		layer string
		us    float64
		how   string
	}{
		{"radio frame scan", framesPerPair * float64(scanNs) / float64(frames) / 1e3, "radio.Scanner.Next x frames/pair"},
		{"session enqueue", framesPerPair * pushOwnedP50 / 1e3, "Session.PushOwned p50 x frames/pair"},
		{"core DSP push", float64(ct.pushNs) / 1e3 / float64(ct.pairs), "core.Streamer.Push"},
		{"core flush", ct.flush.sum / 1e3 / float64(ct.pairs), "core.Streamer.Flush per session"},
		{"event encode", encNs / 1e3 * eventsOut / pairs, "wal.EncodeEvent x events out/pair"},
		{"wal append", walUs, "wal.Log.AppendEvent (durable_churn only)"},
	}
	sumUs := 0.0
	table := [][]string{{"layer", "us/pair", "share", "timed call"}}
	for _, row := range rows {
		sumUs += row.us
		table = append(table, []string{row.layer, fmt.Sprintf("%.4f", row.us), fmt.Sprintf("%.1f%%", 100*row.us/serverUs), row.how})
	}
	gap := 1 - sumUs/serverUs
	gcFrac := sw.gcCPUms / cpuMs
	table = append(table,
		[]string{"sum of timed layers", fmt.Sprintf("%.4f", sumUs), fmt.Sprintf("%.1f%%", 100*sumUs/serverUs), ""},
		[]string{"server CPU (traced)", fmt.Sprintf("%.4f", serverUs), "100%", "/proc utime+stime / pairs"},
		[]string{"server CPU (untraced)", fmt.Sprintf("%.4f", l.untrace), "", "same workload, tracing off"},
		[]string{"gap: GC", fmt.Sprintf("%.4f", gcFrac*serverUs), fmt.Sprintf("%.1f%%", 100*gcFrac), "gctrace CPU"},
		[]string{"gap: rest", fmt.Sprintf("%.4f", (gap-gcFrac)*serverUs), fmt.Sprintf("%.1f%%", 100*(gap-gcFrac)),
			"chunk decode, syscalls, scheduling: no public call to time"},
	)
	res.set("ledger.closure_gap_frac", gap)
	res.set("ledger.trace_overhead_frac", serverUs/l.untrace-1)
	res.ledger = fmt.Sprintf("  ledger (%s, %d pairs):\n", p.w.name, sw.pairs) + fmtTable(table)
	return nil
}

// walReplay appends the run's events from two goroutines into a fresh
// log with the server's WAL config, timing each append, then reopens it
// (the recovery scan a restart pays) and reports the retained bytes per
// event.
func walReplay(p *plan, events [][]event.Event) (*reservoir, time.Duration, float64, error) {
	dir := filepath.Join(p.o.workdir, fmt.Sprintf("wal-replay-%d", os.Getpid()))
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, 0, err
	}
	defer os.RemoveAll(dir)
	l, err := wal.Open(dir, wal.Config{})
	if err != nil {
		return nil, 0, 0, err
	}
	times := make([]reservoir, 2)
	var wg sync.WaitGroup
	for g := range times {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := g; s < len(events); s += len(times) {
				for _, e := range events[s] {
					start := time.Now()
					l.AppendEvent(e)
					times[g].add(float64(time.Since(start)))
				}
			}
		}()
	}
	wg.Wait()
	if err := errors.Join(l.Err(), l.Close()); err != nil {
		return nil, 0, 0, err
	}
	times[0].merge(&times[1])
	rec, perEvent, err := walRecover(dir)
	return &times[0], rec, perEvent, err
}

// walRecover times wal.Open on a closed log and returns its retained
// bytes per logged event.
func walRecover(dir string) (time.Duration, float64, error) {
	start := time.Now()
	l, err := wal.Open(dir, wal.Config{})
	if err != nil {
		return 0, 0, err
	}
	took := time.Since(start)
	st := l.Stats()
	if err := l.Close(); err != nil {
		return 0, 0, err
	}
	n := 0
	for _, s := range st.Sessions {
		n += s.Events
	}
	return took, float64(st.RetainedBytes) / float64(max(n, 1)), nil
}

// codecTiming returns the mean cost of wal.EncodeEvent, which the
// gateway runs once per subscriber for every event, and of
// wal.DecodeEvent, which the client runs, over the run's events.
func codecTiming(events [][]event.Event, total int) (enc, dec float64) {
	buf := make([]byte, 0, wal.EventSize)
	start := time.Now()
	for _, s := range events {
		for i := range s {
			buf = wal.EncodeEvent(buf[:0], &s[i])
		}
	}
	enc = float64(time.Since(start)) / float64(max(total, 1))
	encoded := make([]byte, 0, total*wal.EventSize)
	for _, s := range events {
		for i := range s {
			encoded = wal.EncodeEvent(encoded, &s[i])
		}
	}
	start = time.Now()
	for off := 0; off+wal.EventSize <= len(encoded); off += wal.EventSize {
		if _, ok := wal.DecodeEvent(encoded[off : off+wal.EventSize]); !ok {
			return enc, -1
		}
	}
	dec = float64(time.Since(start)) / float64(max(total, 1))
	return enc, dec
}

// writeTrace writes the traced run's spans: the network run's pushes,
// opens, closes and event arrivals, and the in-process session run's
// PushOwned calls and event emits, each linked to its trigger chunk.
func writeTrace(path string, netRun, engRun *run, ref *reference) error {
	link := func(r *run, name string) {
		for i := range r.runs {
			st := &r.runs[i]
			if len(st.pushSpan) == 0 {
				continue
			}
			id := r.p.sess[i].id
			for j, at := range st.own.recv {
				if j >= len(ref.trig[i]) {
					break
				}
				k := ref.trig[i][j]
				parent := int32(-1)
				if k >= 0 && int(k) < len(st.pushSpan) {
					parent = st.pushSpan[k]
				}
				r.spans.add(name, at, at, parent, id, int(k))
			}
		}
	}
	link(netRun, "event.recv")
	link(engRun, "session.emit")
	out := map[string]any{
		"gateway_run": map[string]any{"spans": netRun.spans.spans, "dropped": netRun.spans.dropped},
		"session_run": map[string]any{"spans": engRun.spans.spans, "dropped": engRun.spans.dropped},
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
