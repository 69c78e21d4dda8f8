// Command icgserve runs the network ingest gateway: a TCP server
// speaking the radio-framed chunk protocol (internal/gateway),
// multiplexing many device streams per connection into consistent-hashed
// session.Engine shards and fanning each session's typed event stream
// back out to its subscribers. It is also the repository's one
// synthetic-fleet driver.
//
// Four modes:
//
//	icgserve [-addr HOST:PORT] [-shards N] [-workers N] [-evict-below R] [-wal-dir DIR]
//	    serve until SIGINT/SIGTERM, then print the load summary
//
//	icgserve -drive HOST:PORT [-sessions N] [-dead N] [-conns N] [-chunk N]
//	         [-duration S] [-evict-below R]
//	    client fleet driver: N sessions multiplexed over -conns TCP
//	    connections, each streaming -duration seconds of simulated touch
//	    signal in -chunk-sample pushes, every session subscribed to its
//	    event stream; the last -dead sessions stream one shared
//	    dead-contact recording (a lifted finger). It then replays the
//	    exact same chunk-framed stream into an in-process engine under
//	    the same session configuration and demands byte-identical
//	    per-session event streams — the determinism law across the
//	    network hop. -evict-below must be the server's floor; worker
//	    counts need not match (per-session output does not depend on
//	    them).
//
//	icgserve -selfcheck [driver flags] [-shards N] [-workers N]
//	         [-wal-dir DIR [-kill-after N]]
//	    one process: serve on an ephemeral loopback port, drive, verify.
//	    With -wal-dir the server logs every event write-ahead;
//	    -kill-after N SIGKILLs the process once the driver has received
//	    N events (a power cut: no flush, no shutdown path); write-ahead
//	    means at least those N events are on the log.
//
//	icgserve -replay DIR [-prefix-of REF]
//	    replay a write-ahead log and print its summary; with -prefix-of,
//	    verify the recovery prefix law: every session's replayed stream
//	    must be a byte prefix of the same session's stream in REF, and
//	    the log must hold at least one event.
//
// -cpuprofile/-memprofile write pprof profiles of any mode.
//
// The driver's throughput figures (sessions, beats, samples/s, drops)
// are the BENCHMARKS.md gateway fleet numbers; backpressure engages in
// both directions — ingest blocks on each session's bounded backlog via
// TCP flow control, egress drops (counted) at each subscriber's bounded
// queue — so no load level can grow a queue without bound.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/gateway"
	"repro/internal/physio"
	"repro/internal/session"
	"repro/internal/wal"
)

// fleet is the driver's configuration.
type fleet struct {
	sessions, dead, conns, chunk int
	duration, evictBelow         float64
	// killAfter SIGKILLs the process once this many events have arrived
	// (0 = never).
	killAfter int
}

func main() { os.Exit(run()) }

func run() int {
	addr := flag.String("addr", "127.0.0.1:9750", "serve: listen address")
	drive := flag.String("drive", "", "drive a running gateway at this address instead of serving")
	selfcheck := flag.Bool("selfcheck", false, "serve on an ephemeral port, drive it, verify, exit")
	replayDir := flag.String("replay", "", "replay a WAL directory, print its summary, exit")
	prefixOf := flag.String("prefix-of", "", "with -replay: verify the log is a non-empty per-session event prefix of this reference WAL directory")
	shards := flag.Int("shards", 1, "session engine shards (serve/selfcheck)")
	workers := flag.Int("workers", 0, "engine workers per shard (0 = GOMAXPROCS)")
	walDir := flag.String("wal-dir", "", "serve/selfcheck: write-ahead event log directory")
	var f fleet
	flag.Float64Var(&f.evictBelow, "evict-below", 0, "accept-rate EWMA eviction floor, 0 = off (drive: the server's floor)")
	flag.IntVar(&f.sessions, "sessions", 8, "driver: concurrent sessions")
	flag.IntVar(&f.dead, "dead", 0, "driver: the last N sessions stream a dead-contact recording")
	flag.IntVar(&f.conns, "conns", 4, "driver: TCP connections the sessions multiplex over")
	flag.IntVar(&f.chunk, "chunk", 50, "driver: samples per push (50 = 200 ms AFE DMA)")
	flag.Float64Var(&f.duration, "duration", 8, "driver: seconds of signal per session")
	flag.IntVar(&f.killAfter, "kill-after", 0, "selfcheck: SIGKILL the process once the driver has received this many events")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		pf, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("icgserve: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			log.Fatalf("icgserve: -cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			pf.Close()
		}()
	}
	if *memProfile != "" {
		defer writeHeapProfile(*memProfile)
	}

	var err error
	switch {
	case *replayDir != "":
		err = replayMain(*replayDir, *prefixOf)
	case *selfcheck:
		_, err = runSelfcheck(*shards, *workers, *walDir, f)
	case *drive != "":
		if f.killAfter > 0 {
			log.Fatal("icgserve: -kill-after needs -selfcheck")
		}
		var res *driveResult
		if res, err = runDriver(*drive, f); err == nil {
			err = res.err()
		}
	default:
		err = runServe(*addr, *shards, *workers, f.evictBelow, *walDir)
	}
	if err != nil {
		log.Printf("icgserve: %v", err)
		return 1
	}
	return 0
}

func writeHeapProfile(path string) {
	pf, err := os.Create(path)
	if err != nil {
		log.Printf("icgserve: -memprofile: %v", err)
		return
	}
	defer pf.Close()
	runtime.GC() // settle live objects so the profile shows retention
	if err := pprof.WriteHeapProfile(pf); err != nil {
		log.Printf("icgserve: -memprofile: %v", err)
	}
}

func mustDevice() *core.Device {
	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		log.Fatalf("icgserve: %v", err)
	}
	return dev
}

// sessionConfig is the session configuration the gateway serves with,
// and the driver's in-process reference replays under: a session's
// events depend on its health floor, never on the worker count.
func sessionConfig(workers int, evictBelow float64) session.Config {
	cfg := session.Config{Workers: workers, MaxPending: 64}
	if evictBelow > 0 {
		cfg.Health = session.HealthConfig{EvictBelowRate: evictBelow, EvictAfterS: 20}
	}
	return cfg
}

// server is a gateway and the write-ahead log behind it (nil without
// -wal-dir).
type server struct {
	*gateway.Gateway
	wal *wal.Log
}

func newServer(shards, workers int, evictBelow float64, walDir string) (*server, error) {
	scfg := sessionConfig(workers, evictBelow)
	s := &server{}
	if walDir != "" {
		var err error
		if s.wal, err = wal.Open(walDir, wal.Config{}); err != nil {
			return nil, err
		}
		scfg.WAL = s.wal
	}
	s.Gateway = gateway.New(mustDevice(), gateway.Config{Shards: shards, Session: scfg})
	return s, nil
}

// shutdown prints the load summary, closes the gateway, then the log.
func (s *server) shutdown() error {
	printStats(s.Stats())
	err := s.Close()
	if s.wal != nil {
		err = errors.Join(err, s.wal.Close())
	}
	return err
}

// runServe listens until SIGINT/SIGTERM, then prints the load summary.
func runServe(addr string, shards, workers int, evictBelow float64, walDir string) error {
	s, err := newServer(shards, workers, evictBelow, walDir)
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Printf("gateway listening on %s (%d shards)\n", ln.Addr(), shards)
	done := make(chan os.Signal, 1)
	signal.Notify(done, syscall.SIGINT, syscall.SIGTERM)
	go func() {
		if err := s.Serve(ln); err != nil {
			log.Fatalf("icgserve: serve: %v", err)
		}
	}()
	<-done
	return s.shutdown()
}

// runSelfcheck serves on an ephemeral loopback port, drives the fleet
// through it and verifies the result.
func runSelfcheck(shards, workers int, walDir string, f fleet) (*driveResult, error) {
	s, err := newServer(shards, workers, f.evictBelow, walDir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	go s.Serve(ln)
	res, derr := runDriver(ln.Addr().String(), f)
	if err := s.shutdown(); err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	if derr != nil {
		return nil, derr
	}
	return res, res.err()
}

func printStats(st gateway.Stats) {
	fmt.Printf("gateway: %d conns served (%d open), %d chunk frames, %d sample pairs in\n",
		st.ConnsTotal, st.ConnsOpen, st.FramesIn, st.SamplesIn)
	fmt.Printf("gateway: %d events out, %d dropped at subscriber queues, %d protocol errors\n",
		st.EventsOut, st.EventsDropped, st.ProtocolErrs)
	for i, sh := range st.Shards {
		fmt.Printf("gateway shard %d: %d open, %d opened, %d finished, %d evicted\n",
			i, sh.Open, sh.Opened, sh.Finished, sh.Evicted)
	}
}

// fleetInputs synthesizes the recordings the whole fleet shares and
// returns session id's channels: a few base acquisitions, rotated over
// the live sessions (per-session variation comes from the chunk
// interleaving, not per-session copies, so a 10k-session fleet costs
// megabytes, not gigabytes, of input), and one dead-contact recording
// for the last f.dead sessions.
func fleetInputs(dev *core.Device, f fleet) func(id uint64) ([]float64, []float64) {
	var base [][2][]float64
	for sid := 1; sid <= 3; sid++ {
		sub, _ := physio.SubjectByID(sid)
		acq, err := dev.Acquire(&sub, f.duration)
		if err != nil {
			log.Fatalf("icgserve: acquire: %v", err)
		}
		base = append(base, [2][]float64{acq.ECG, acq.Z})
	}
	deadECG, deadZ := physio.DeadContact(1, int(dev.Config().FS*f.duration))
	return func(id uint64) ([]float64, []float64) {
		if id > uint64(f.sessions-f.dead) {
			return deadECG, deadZ
		}
		b := base[id%uint64(len(base))]
		return b[0], b[1]
	}
}

// streams collects each session's events in their canonical wal
// encoding — the exact bytes the gateway ships and the log holds.
type streams struct {
	mu      sync.Mutex
	m       map[uint64][]byte
	evicted map[uint64]bool
	events  int
	beats   int
}

func newStreams() *streams {
	return &streams{m: make(map[uint64][]byte), evicted: make(map[uint64]bool)}
}

// add appends e to its session's stream and returns the number of
// events added so far.
func (r *streams) add(e *event.Event) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	switch e.Kind {
	case event.KindBeat:
		r.beats++
	case event.KindEviction:
		r.evicted[e.Session] = true
	}
	r.m[e.Session] = wal.EncodeEvent(r.m[e.Session], e)
	r.events++
	return r.events
}

// dialRetry dials the gateway, retrying while the server comes up (the
// CI smoke starts icgserve and the driver back-to-back).
func dialRetry(addr string, depth int) (*gateway.Client, error) {
	var lastErr error
	for i := 0; i < 100; i++ {
		c, err := gateway.Dial(addr, depth)
		if err == nil {
			return c, nil
		}
		lastErr = err
		time.Sleep(100 * time.Millisecond)
	}
	return nil, lastErr
}

// driveResult is what a fleet run saw.
type driveResult struct {
	sessions int
	got      *streams // per-session received events
	// failed counts sessions with a push or close error and no
	// KindEviction; mismatched those whose received stream differs from
	// the in-process reference.
	failed, mismatched int
}

func (r *driveResult) err() error {
	if r.failed > 0 {
		return fmt.Errorf("drive: %d sessions FAILED", r.failed)
	}
	if r.mismatched > 0 {
		return fmt.Errorf("determinism proof FAILED for %d of %d sessions", r.mismatched, r.sessions)
	}
	return nil
}

// runDriver streams the fleet through a gateway at addr and verifies
// every session's received events against the in-process reference.
func runDriver(addr string, f fleet) (*driveResult, error) {
	f.conns = max(min(f.conns, f.sessions), 1)
	f.dead = min(f.dead, f.sessions)
	dev := mustDevice()
	input := fleetInputs(dev, f)

	res := &driveResult{sessions: f.sessions, got: newStreams()}
	clients := make([]*gateway.Client, f.conns)
	var consumers sync.WaitGroup
	for i := range clients {
		c, err := dialRetry(addr, 1024)
		if err != nil {
			return nil, fmt.Errorf("dial %s: %w", addr, err)
		}
		clients[i] = c
		consumers.Add(1)
		go func(c *gateway.Client) {
			defer consumers.Done()
			for e := range c.Events() {
				if res.got.add(&e) == f.killAfter {
					// SIGKILL, not a graceful shutdown: no flush, no final
					// snapshots, no lifecycle events — the WAL's recovery
					// laws are exactly what makes the survivors usable.
					syscall.Kill(os.Getpid(), syscall.SIGKILL)
				}
			}
		}(c)
	}

	// Open every stream first so the wall clock measures streaming, not
	// handshakes. Streams are distributed round-robin across the conns;
	// the per-connection stream id is the session's index on that conn.
	type lane struct {
		cs *gateway.ClientStream
		id uint64
	}
	lanes := make([]lane, 0, f.sessions)
	perConn := make([]uint16, f.conns)
	for i := 0; i < f.sessions; i++ {
		id := uint64(i + 1)
		ci := i % f.conns
		cs, err := clients[ci].Open(perConn[ci]+1, id, true)
		if err != nil {
			return nil, fmt.Errorf("open session %d: %w", id, err)
		}
		perConn[ci]++
		lanes = append(lanes, lane{cs, id})
	}

	start := time.Now()
	var push sync.WaitGroup
	var pushErrs sync.Map
	var samples int64
	var sampleMu sync.Mutex
	for _, l := range lanes {
		push.Add(1)
		go func(l lane) {
			defer push.Done()
			ecg, z := input(l.id)
			for pos := 0; pos < len(ecg); pos += f.chunk {
				end := min(pos+f.chunk, len(ecg))
				if err := l.cs.Push(ecg[pos:end], z[pos:end]); err != nil {
					pushErrs.Store(l.id, err)
					return
				}
			}
			if err := l.cs.Close(); err != nil {
				pushErrs.Store(l.id, err)
				return
			}
			sampleMu.Lock()
			samples += int64(len(ecg))
			sampleMu.Unlock()
		}(l)
	}
	push.Wait()
	elapsed := time.Since(start)
	for _, c := range clients {
		c.Close()
	}
	consumers.Wait()

	// Every event has arrived: an error on a session the server evicted
	// is the eviction, not a failure.
	pushErrs.Range(func(id, err any) bool {
		if !res.got.evicted[id.(uint64)] {
			log.Printf("icgserve: session %v: %v", id, err)
			res.failed++
		}
		return true
	})
	fmt.Printf("drive: %d sessions x %.0f s over %d conns in %.2f s wall (%.1fx realtime, %.0f sample pairs/s), %d events, %d beats, %d evicted of %d dead-contact\n",
		f.sessions, f.duration, f.conns, elapsed.Seconds(),
		float64(f.sessions)*f.duration/elapsed.Seconds(),
		float64(samples)/elapsed.Seconds(), res.got.events, res.got.beats,
		len(res.got.evicted), f.dead)
	if res.failed > 0 {
		return res, nil
	}

	want, err := reference(dev, sessionConfig(0, f.evictBelow), f, input)
	if err != nil {
		return nil, err
	}
	for i := 0; i < f.sessions; i++ {
		id := uint64(i + 1)
		if g := res.got.m[id]; len(g) == 0 || !bytes.Equal(g, want.m[id]) {
			log.Printf("icgserve: session %d: the gateway's %d event bytes differ from the in-process engine's %d", id, len(g), len(want.m[id]))
			res.mismatched++
		}
	}
	if res.mismatched == 0 {
		fmt.Printf("determinism proof: %d sessions byte-identical to the in-process engine\n", f.sessions)
	}
	return res, nil
}

// reference replays the fleet in-process: the same chunk-framed stream
// (identical frame boundaries, identical bits — the codec is lossless
// and its packing depends only on the sample bits) delivered by
// PushOwned to an engine under the server's session configuration.
func reference(dev *core.Device, scfg session.Config, f fleet, input func(uint64) ([]float64, []float64)) (*streams, error) {
	eng := session.NewEngine(dev, scfg)
	want := newStreams()
	var wg sync.WaitGroup
	errs := make([]error, f.sessions)
	for i := 0; i < f.sessions; i++ {
		id := uint64(i + 1)
		s, err := eng.Subscribe(id, event.Func(func(e event.Event) { want.add(&e) }))
		if err != nil {
			return nil, fmt.Errorf("reference open %d: %w", id, err)
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ecg, z := input(id)
			err := gateway.ReplayChunks(s, ecg, z, f.chunk)
			if err == nil {
				err = s.Close()
			}
			if !errors.Is(err, session.ErrSessionEvicted) {
				errs[i] = err
			}
		}(i)
	}
	wg.Wait()
	if err := errors.Join(append(errs, eng.Close())...); err != nil {
		return nil, fmt.Errorf("reference: %w", err)
	}
	return want, nil
}

// replayMain is the -replay mode: open an existing WAL directory,
// replay its retained events, print the recovery summary, and — with
// -prefix-of — verify the recovery prefix law against a reference
// directory: every session's replayed event stream here must be a byte
// prefix of the same session's stream there. That is the contract a
// killed run's log holds against an uninterrupted run over the same
// input; an empty log would hold it vacuously, so it fails the check.
func replayMain(dir, refDir string) error {
	perSession, stats, lag, err := replayDirBytes(dir)
	if err != nil {
		return err
	}
	fmt.Printf("wal %s: %d sessions, %d segments, %d bytes retained; recovered %d records (%d bytes truncated)\n",
		dir, len(stats.Sessions), stats.Segments, stats.RetainedBytes, stats.Recovered, stats.TruncatedBytes)
	events := countEvents(perSession)
	fmt.Printf("wal %s: replayed %d events in %.1f ms\n", dir, events, lag.Seconds()*1000)
	if refDir == "" {
		return nil
	}
	if events == 0 {
		return fmt.Errorf("prefix check: %s holds no events", dir)
	}
	refBytes, _, _, err := replayDirBytes(refDir)
	if err != nil {
		return err
	}
	for id, b := range perSession {
		if !bytes.HasPrefix(refBytes[id], b) {
			return fmt.Errorf("prefix law violated: session %d in %s is not an event prefix of %s", id, dir, refDir)
		}
	}
	fmt.Printf("prefix law holds: every session in %s is an event prefix of %s (%d of %d events)\n",
		dir, refDir, events, countEvents(refBytes))
	return nil
}

func countEvents(perSession map[uint64][]byte) int {
	n := 0
	for _, b := range perSession {
		n += len(b) / wal.EventSize
	}
	return n
}

// replayDirBytes opens a WAL directory and returns each session's
// replayed event stream in canonical encoding, with the log's stats
// and the wall time the replay took.
func replayDirBytes(dir string) (map[uint64][]byte, wal.Stats, time.Duration, error) {
	w, err := wal.Open(dir, wal.Config{})
	if err != nil {
		return nil, wal.Stats{}, 0, err
	}
	defer w.Close()
	perSession := make(map[uint64][]byte)
	start := time.Now()
	if err := w.ReplayAll(func(e event.Event) {
		perSession[e.Session] = wal.EncodeEvent(perSession[e.Session], &e)
	}); err != nil {
		return nil, wal.Stats{}, 0, err
	}
	return perSession, w.Stats(), time.Since(start), nil
}
