// Command icgstream demonstrates the wireless path of the system: the
// device processes a touch recording beat by beat through the serving
// engine's typed event stream and sends the resulting records (Z0,
// LVET, PEP, HR — exactly the parameter set of Section V) over a TCP
// connection standing in for the BLE link; the monitor side decodes and
// prints them.
//
// Every KindBeat event carries its per-beat quality-gate verdict; only
// accepted beats are spent on the radio (rejected beats would waste
// airtime on artifact numbers), and the run reports the gate's accept
// rate.
//
// With -sessions N > 1 it instead exercises the multi-session serving
// layer: N concurrent simulated device streams run through one
// session.Engine on a bounded worker pool, every session subscribed to
// its event stream, session 0's accepted beats stream over the radio
// link live, and the run ends with aggregate throughput figures plus
// the per-session accept-rate spread (from the KindSessionClosed
// tallies).
//
// -dead injects dead-contact streams (flat impedance, noise-only ECG —
// a lifted finger) into the fleet, and -evict-below arms the engine's
// session-health eviction (session.HealthConfig): dead sessions are cut
// once their accept-rate EWMA dwells below the floor — reported by
// their KindEviction events — shedding their remaining load, and the
// run reports how much work eviction saved.
//
// -wal-dir arms the crash-safe write-ahead event log (internal/wal):
// every session's typed events and periodic snapshots persist to the
// directory, evicted sessions are re-admitted through the durable
// restore path at the end of the fleet run (their KindReadmit events
// are on the log), and the summary reports per-session retained bytes,
// full-replay lag and re-admit counts. -replay DIR replays a log and
// prints its summary instead of running anything; with -prefix-of REF
// it additionally verifies the recovery prefix law — every session's
// replayed event stream must be a byte prefix of the same session's
// stream in REF — which is what the CI crash-restart step checks after
// a -kill-after run (the self-test flag SIGKILLs the process mid-run,
// exactly like a power cut).
//
// Usage:
//
//	icgstream [-subject 1] [-duration 30] [-loss 0.02] [-sessions 1] [-workers 0]
//	          [-dead 0] [-evict-below 0] [-evict-after 20]
//	          [-wal-dir DIR] [-kill-after 0] [-direct-fir]
//	          [-cpuprofile FILE] [-memprofile FILE]
//	icgstream -replay DIR [-prefix-of REF]
//
// -direct-fir pins every session's streaming ECG band-pass to the
// direct per-sample recurrence (the MCU deployment profile) instead of
// the block-carried overlap-save engine. The fleet summary reports
// per-hop ns and the realtime multiple, so running the same fleet with
// and without the flag compares the two end-to-end.
//
// -cpuprofile/-memprofile write standard pprof profiles of the run, so
// fleet-mode hot paths can be inspected with `go tool pprof` without a
// custom build.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"runtime"
	"runtime/pprof"
	"sync"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/hemo"
	"repro/internal/hw/radio"
	"repro/internal/physio"
	"repro/internal/session"
	"repro/internal/wal"
)

func main() {
	subjectID := flag.Int("subject", 1, "subject ID (1-5)")
	duration := flag.Float64("duration", 30, "recording duration (s)")
	loss := flag.Float64("loss", 0.02, "simulated radio loss probability")
	sessions := flag.Int("sessions", 1, "concurrent device streams (multi-session mode when > 1)")
	workers := flag.Int("workers", 0, "session engine workers (0 = GOMAXPROCS)")
	dead := flag.Int("dead", 0, "dead-contact streams injected into the fleet")
	evictBelow := flag.Float64("evict-below", 0, "accept-rate EWMA eviction floor (0 = eviction off)")
	evictAfter := flag.Float64("evict-after", 20, "signal seconds below the floor before eviction")
	walDir := flag.String("wal-dir", "", "write-ahead event log directory (arms crash-safe durability)")
	replayDir := flag.String("replay", "", "replay a WAL directory and print its summary, then exit")
	prefixOf := flag.String("prefix-of", "", "with -replay: verify the log is a per-session event prefix of this reference WAL directory")
	killAfter := flag.Float64("kill-after", 0, "self-test: SIGKILL the process after this many wall seconds (models a power cut; use with -wal-dir)")
	directFIR := flag.Bool("direct-fir", false, "pin the streaming ECG band-pass to the direct recurrence instead of overlap-save (MCU profile; A/B baseline)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file at exit")
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			log.Fatalf("icgstream: -cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatalf("icgstream: -cpuprofile: %v", err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *memProfile != "" {
		path := *memProfile
		defer func() {
			f, err := os.Create(path)
			if err != nil {
				log.Printf("icgstream: -memprofile: %v", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle live objects so the profile shows retention
			if err := pprof.WriteHeapProfile(f); err != nil {
				log.Printf("icgstream: -memprofile: %v", err)
			}
		}()
	}

	if *replayDir != "" {
		if err := replayMain(*replayDir, *prefixOf); err != nil {
			log.Fatalf("icgstream: %v", err)
		}
		return
	}

	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		log.Fatalf("icgstream: %v", err)
	}

	var wlog *wal.Log
	if *walDir != "" {
		wlog, err = wal.Open(*walDir, wal.Config{})
		if err != nil {
			log.Fatalf("icgstream: %v", err)
		}
	}
	if *killAfter > 0 {
		go func() {
			time.Sleep(time.Duration(*killAfter * float64(time.Second)))
			// SIGKILL, not a graceful shutdown: no flush, no final
			// snapshots, no lifecycle events — the WAL's recovery laws are
			// exactly what makes the survivors usable.
			syscall.Kill(os.Getpid(), syscall.SIGKILL)
		}()
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatalf("icgstream: %v", err)
	}
	defer ln.Close()
	fmt.Printf("monitor listening on %s\n", ln.Addr())

	var wg sync.WaitGroup
	wg.Add(1)
	// Monitor side.
	go func() {
		defer wg.Done()
		conn, err := ln.Accept()
		if err != nil {
			log.Printf("monitor: %v", err)
			return
		}
		defer conn.Close()
		sc := radio.NewScanner(conn)
		n := 0
		for {
			f, err := sc.Next()
			if errors.Is(err, radio.ErrBadCRC) || errors.Is(err, radio.ErrPayloadTooLarge) {
				continue // the scanner resynchronized past a corrupt frame
			}
			if err != nil {
				break // device closed the link
			}
			if f.Type != radio.TypeBeat {
				continue
			}
			beat, err := radio.UnmarshalBeat(f.Payload)
			if err != nil {
				log.Printf("monitor: bad beat: %v", err)
				continue
			}
			n++
			fmt.Printf("beat %2d  t=%6.2fs  Z0=%7.2f Ohm  PEP=%5.1f ms  LVET=%5.1f ms  HR=%5.1f bpm\n",
				n, float64(beat.TimestampMs)/1000, beat.Z0,
				beat.PEP*1000, beat.LVET*1000, beat.HR)
		}
		fmt.Printf("monitor received %d beats\n", n)
	}()

	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		log.Fatalf("icgstream: %v", err)
	}

	sub, ok := physio.SubjectByID(*subjectID)
	if !ok {
		log.Fatalf("icgstream: no subject %d", *subjectID)
	}
	link := radio.NewLink(radio.LinkConfig{
		LossProb: *loss, MaxRetries: 3, BitRate: 1e6, Overhead: 14,
	}, sub.Seed)

	if *sessions <= 1 {
		runSingle(dev, &sub, *duration, link, conn, wlog, *directFIR)
	} else {
		health := session.HealthConfig{EvictBelowRate: *evictBelow, EvictAfterS: *evictAfter}
		runFleet(dev, *sessions, *workers, *dead, *duration, health, link, conn, wlog, *directFIR)
	}
	if wlog != nil {
		walSummary(wlog)
		if err := wlog.Close(); err != nil {
			log.Fatalf("icgstream: wal close: %v", err)
		}
	}
	conn.Close()
	wg.Wait()
	fmt.Printf("link: sent=%d delivered=%d dropped=%d retries=%d airtime=%.1f ms (duty %.4f%%)\n",
		link.Sent, link.Delivered, link.Dropped, link.Retries,
		link.AirtimeS*1000, link.DutyCycle(*duration)*100)
}

// runSingle is the classic path, on the serving surface: one session
// subscribed to the typed event stream, each accepted KindBeat spent on
// the radio as it is emitted, the KindSessionClosed tally reported at
// the end. The TCP write can block, so it lives on a consumer
// goroutine behind an event.Chan — the non-blocking Sink contract: the
// session worker never waits on the radio.
func runSingle(dev *core.Device, sub *physio.Subject, duration float64, link *radio.Link, conn net.Conn, wlog *wal.Log, directFIR bool) {
	acq, err := dev.Acquire(sub, duration)
	if err != nil {
		log.Fatalf("icgstream: %v", err)
	}
	cfg := session.DefaultConfig()
	cfg.WAL = wlog
	cfg.Stream.DirectFIR = directFIR
	eng := session.NewEngine(dev, cfg)
	ch := event.NewChan(1024)
	done := make(chan struct{})
	go func() {
		defer close(done)
		seq := byte(0)
		sent := 0
		for e := range ch.C {
			switch e.Kind {
			case event.KindBeat:
				if e.Params.Accepted {
					transmit(link, conn, &seq, e.Params)
					sent++
				}
			case event.KindSessionClosed:
				fmt.Printf("quality gate: %d/%d beats accepted, %d transmitted\n",
					e.Accepted, e.Emitted, sent)
			}
		}
	}()
	s, err := eng.Subscribe(0, ch)
	if err != nil {
		log.Fatalf("icgstream: %v", err)
	}
	chunk := 50 // 200 ms, as the AFE DMA would deliver
	for pos := 0; pos < len(acq.ECG); pos += chunk {
		end := min(pos+chunk, len(acq.ECG))
		if err := s.Push(acq.ECG[pos:end], acq.Z[pos:end]); err != nil {
			log.Fatalf("icgstream: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		log.Fatalf("icgstream: %v", err)
	}
	if err := eng.Close(); err != nil {
		log.Fatalf("icgstream: %v", err)
	}
	close(ch.C) // all events delivered (engine closed); drain and report
	<-done
	if n := ch.Dropped(); n > 0 {
		fmt.Printf("radio consumer lagged: %d events dropped at the sink\n", n)
	}
}

// runFleet multiplexes n simulated streams through the session engine;
// the last dead of them carry dead-contact input. Session 0's beats go
// over the radio link as they are emitted; every other session counts
// toward the aggregate. With health eviction armed the engine cuts the
// dead streams and the run reports the load it shed.
func runFleet(dev *core.Device, n, workers, dead int, duration float64, health session.HealthConfig, link *radio.Link, conn net.Conn, wlog *wal.Log, directFIR bool) {
	if dead > n {
		dead = n
	}
	cfg := session.DefaultConfig()
	cfg.Workers = workers
	cfg.Seed = 1
	cfg.Health = health
	cfg.WAL = wlog
	cfg.Stream.DirectFIR = directFIR

	var countMu sync.Mutex
	rates := make([]float64, 0, n) // per-session accept rates at close
	var evictions int
	var evictedIDs []uint64
	var evictedAtS float64 // summed eviction signal times
	var shedSamples int64
	// Every session is offered exactly duration seconds of signal, so
	// an evicted session's shed load is what the engine never consumed
	// (offered minus the signal clock at the cut) — computed from the
	// KindEviction event, which is deterministic per input order, so
	// the reported shed does not depend on how far the pusher had run
	// ahead of the worker.
	fs := dev.Config().FS
	perSession := int64(fs * duration)
	eng := session.NewEngine(dev, cfg)

	// Session 0's accepted beats go over the TCP radio link; the write
	// can block, so it runs on a consumer goroutine behind a
	// non-blocking event.Chan (the Sink contract: a slow radio must
	// never stall a session worker — the link's own loss model already
	// prices dropped records).
	radioCh := event.NewChan(1024)
	radioDone := make(chan struct{})
	go func() {
		defer close(radioDone)
		seq := byte(0)
		for e := range radioCh.C {
			transmit(link, conn, &seq, e.Params)
		}
	}()
	var totalBeats, acceptedBeats, offeredSamples, totalHops int64

	// Every pusher synthesizes its input first and then waits on the
	// start barrier, so the wall clock (and the per-hop figure derived
	// from it) measures the serving engine, not the signal simulator.
	startCh := make(chan struct{})
	var ready, push sync.WaitGroup
	for id := 0; id < n; id++ {
		sid := uint64(id)
		// One subscription carries everything the fleet driver needs:
		// beats (tally + radio), evictions (shed accounting) and the
		// final close tally (accept-rate spread of the surviving fleet).
		s, err := eng.Subscribe(sid, event.Func(func(e event.Event) {
			switch e.Kind {
			case event.KindBeat:
				countMu.Lock()
				totalBeats++
				if e.Params.Accepted {
					acceptedBeats++
				}
				countMu.Unlock()
				if sid == 0 && e.Params.Accepted {
					radioCh.Emit(e)
				}
			case event.KindEviction:
				countMu.Lock()
				evictions++
				evictedIDs = append(evictedIDs, e.Session)
				evictedAtS += e.TimeS
				shedSamples += perSession - int64(e.TimeS*fs+0.5)
				countMu.Unlock()
			case event.KindSessionClosed:
				// Evicted sessions are excluded from the accept-rate
				// spread — it describes the surviving fleet.
				if e.Reason == int(session.ReasonClient) && e.Emitted > 0 {
					countMu.Lock()
					rates = append(rates, float64(e.Accepted)/float64(e.Emitted))
					countMu.Unlock()
				}
			}
		}))
		if err != nil {
			log.Fatalf("icgstream: open session %d: %v", id, err)
		}
		push.Add(1)
		ready.Add(1)
		go func(s *session.Session, isDead bool) {
			defer push.Done()
			var ecg, z []float64
			if isDead {
				// The shared lifted-finger model (physio.DeadContact) —
				// identical to what the eviction tests pin.
				ecg, z = physio.DeadContact(s.Seed(), int(dev.Config().FS*duration))
			} else {
				// Each session simulates its own subject, seeded from
				// the engine's deterministic per-session seed.
				sub, _ := physio.SubjectByID(1 + int(s.ID)%5)
				sub.Seed = s.Seed()
				acq, err := dev.Acquire(&sub, duration)
				if err != nil {
					log.Printf("icgstream: session %d acquire: %v", s.ID, err)
					ready.Done()
					return
				}
				ecg, z = acq.ECG, acq.Z
			}
			countMu.Lock()
			offeredSamples += int64(len(ecg))
			countMu.Unlock()
			ready.Done()
			<-startCh
			hops := int64(0)
			defer func() {
				countMu.Lock()
				totalHops += hops
				countMu.Unlock()
			}()
			chunk := 50 // 200 ms, as the AFE DMA would deliver
			for pos := 0; pos < len(ecg); pos += chunk {
				end := pos + chunk
				if end > len(ecg) {
					end = len(ecg)
				}
				if err := s.Push(ecg[pos:end], z[pos:end]); err != nil {
					if err != session.ErrSessionEvicted {
						log.Printf("icgstream: session %d push: %v", s.ID, err)
					}
					// Evicted: the close event accounts the shed load.
					return
				}
				hops++
			}
			// Close reports an eviction even when it overtook the flush;
			// either way the session's KindSessionClosed event above
			// carries the final tally, reason-tagged.
			if err := s.Close(); err != nil && err != session.ErrSessionEvicted {
				log.Printf("icgstream: session %d close: %v", s.ID, err)
			}
		}(s, id >= n-dead)
	}
	ready.Wait()
	start := time.Now()
	close(startCh)
	push.Wait()
	// With the WAL armed, evicted sessions come back through the durable
	// re-admit path: each Reopen rehydrates the session from its newest
	// snapshot (clocks and governor continue; a quarantine-poisoned gate
	// re-locks cold) and logs a KindReadmit event — the same path a
	// post-crash restore takes, exercised here end-to-end.
	readmits := 0
	if wlog != nil {
		countMu.Lock()
		ids := append([]uint64(nil), evictedIDs...)
		countMu.Unlock()
		for _, id := range ids {
			s, err := eng.Reopen(id, event.Discard, session.ReopenOptions{})
			if err != nil {
				log.Printf("icgstream: reopen session %d: %v", id, err)
				continue
			}
			readmits++
			if err := s.Close(); err != nil && err != session.ErrSessionEvicted {
				log.Printf("icgstream: session %d close after re-admit: %v", id, err)
			}
		}
	}
	if err := eng.Close(); err != nil {
		log.Fatalf("icgstream: engine close: %v", err)
	}
	close(radioCh.C) // all events delivered (engine closed)
	<-radioDone
	elapsed := time.Since(start)
	engine := "overlap-save FIR"
	if directFIR {
		engine = "direct FIR"
	}
	fmt.Printf("fleet: %d sessions x %.0f s processed in %.2f s wall (%.0fx realtime), %d beats (%.0f beats/s)\n",
		n, duration, elapsed.Seconds(),
		float64(n)*duration/elapsed.Seconds(),
		totalBeats, float64(totalBeats)/elapsed.Seconds())
	if totalHops > 0 {
		// Inputs are synthesized before the clock starts, so this is the
		// serving engine's cost per 200 ms hop — the A/B figure for
		// -direct-fir.
		fmt.Printf("fleet engine: %s, %d hops, %.0f ns/hop\n",
			engine, totalHops, float64(elapsed.Nanoseconds())/float64(totalHops))
	}
	if totalBeats > 0 {
		lo, hi := 1.0, 0.0
		sum := 0.0
		for _, r := range rates {
			if r < lo {
				lo = r
			}
			if r > hi {
				hi = r
			}
			sum += r
		}
		mean := 0.0
		if len(rates) > 0 {
			mean = sum / float64(len(rates))
		}
		fmt.Printf("fleet gate: %d/%d beats accepted (%.0f%%); per-session accept rate min %.0f%% mean %.0f%% max %.0f%%\n",
			acceptedBeats, totalBeats, 100*float64(acceptedBeats)/float64(totalBeats),
			lo*100, mean*100, hi*100)
	}
	if dead > 0 || health.Enabled() {
		meanCut := 0.0
		if evictions > 0 {
			meanCut = evictedAtS / float64(evictions)
		}
		fmt.Printf("fleet health: %d dead-contact streams injected, %d evicted (mean cut at %.1f s); shed %d of %d offered samples (%.0f%%)\n",
			dead, evictions, meanCut,
			shedSamples, offeredSamples, 100*float64(shedSamples)/float64(max(offeredSamples, 1)))
		if wlog != nil {
			fmt.Printf("fleet readmit: %d of %d evicted sessions re-admitted through the WAL restore path\n",
				readmits, evictions)
		}
	}
}

// walSummary reports what the run left on the log: per-session
// retained-byte spread, how long a full replay of the retained tail
// takes (the cost a restarting process pays before it is caught up),
// and the re-admit count the replay observed.
func walSummary(w *wal.Log) {
	if err := w.Sync(); err != nil {
		log.Printf("icgstream: wal sync: %v", err)
	}
	start := time.Now()
	events, readmits := 0, 0
	if err := w.ReplayAll(func(e event.Event) {
		events++
		if e.Kind == event.KindReadmit {
			readmits++
		}
	}); err != nil {
		log.Printf("icgstream: wal replay: %v", err)
		return
	}
	lag := time.Since(start)
	st := w.Stats()
	var minB, maxB, sumB int64
	minB = -1
	for _, s := range st.Sessions {
		if minB < 0 || s.Bytes < minB {
			minB = s.Bytes
		}
		if s.Bytes > maxB {
			maxB = s.Bytes
		}
		sumB += s.Bytes
	}
	if minB < 0 {
		minB = 0
	}
	meanB := sumB / int64(max(len(st.Sessions), 1))
	fmt.Printf("wal: %d sessions, %d segments, %d bytes retained (per-session bytes min %d mean %d max %d)\n",
		len(st.Sessions), st.Segments, st.RetainedBytes, minB, meanB, maxB)
	fmt.Printf("wal: replayed %d events in %.1f ms (%d re-admits); %d appends dropped\n",
		events, lag.Seconds()*1000, readmits, st.Dropped)
}

// replayMain is the -replay mode: open an existing WAL directory,
// replay its retained events, print the recovery summary, and — with
// -prefix-of — verify the recovery prefix law against a reference
// directory: every session's replayed event stream here must be a byte
// prefix of the same session's stream there. That is the contract a
// killed run's log holds against an uninterrupted run over the same
// input, and the CI crash-restart step fails the build if it breaks.
func replayMain(dir, refDir string) error {
	perSession, stats, lag, err := replayDirBytes(dir)
	if err != nil {
		return err
	}
	fmt.Printf("wal %s: %d sessions, %d segments, %d bytes retained; recovered %d records (%d bytes truncated)\n",
		dir, len(stats.Sessions), stats.Segments, stats.RetainedBytes, stats.Recovered, stats.TruncatedBytes)
	events := 0
	for _, b := range perSession {
		events += len(b) / wal.EventSize
	}
	fmt.Printf("wal %s: replayed %d events in %.1f ms\n", dir, events, lag.Seconds()*1000)
	if refDir == "" {
		return nil
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
	fmt.Printf("prefix law holds: every session in %s is an event prefix of %s\n", dir, refDir)
	return nil
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

func transmit(link *radio.Link, conn net.Conn, seq *byte, b hemo.BeatParams) {
	rec := radio.BeatRecord{
		TimestampMs: uint32(b.TimeS * 1000),
		Z0:          b.Z0, LVET: b.LVET, PEP: b.PEP, HR: b.HR,
	}
	f := &radio.Frame{Type: radio.TypeBeat, Seq: *seq, Payload: rec.Marshal()}
	*seq++
	if !link.Send(f) {
		return // lost after retries: the beat is dropped
	}
	if err := radio.WriteFrame(conn, f); err != nil {
		log.Fatalf("icgstream: %v", err)
	}
}
