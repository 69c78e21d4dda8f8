// Realtime: the firmware-style operating mode — samples arrive in small
// chunks (as the AFE DMA would deliver them), the incremental streaming
// engine emits each beat as soon as it is complete, the quality monitor
// grades the session, and the beats are scheduled onto BLE connection
// events. The chunks are pushed through the multi-session serving layer
// (session.Engine) the production path uses, here with a single session
// subscribed to the unified typed event stream — beats, health
// transitions, PMU mode changes and the session close all arrive
// through one sink, in order. The RAM budget printed at the end is why
// this mode is the one that fits the STM32L151's 48 KB.
package main

import (
	"fmt"
	"log"

	touchicg "repro"
	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/hw/mcu"
	"repro/internal/hw/radio"
	"repro/internal/quality"
	"repro/internal/session"
	"repro/internal/wal"
)

func main() {
	sub, _ := touchicg.SubjectByID(2)
	dev, err := touchicg.NewDevice(touchicg.DefaultConfig())
	if err != nil {
		log.Fatalf("realtime: %v", err)
	}
	acq, err := dev.Acquire(&sub, 30)
	if err != nil {
		log.Fatalf("realtime: %v", err)
	}

	// Health eviction armed with the serving defaults: a live recording
	// sails through, but the same engine would cut a dead-contact stream
	// (lifted finger) after ~30 s below the accept-rate floor. The PMU
	// policy arms a per-session governor, so quality-driven duty-cycle
	// decisions arrive on the same event stream as the beats.
	pmu := core.DefaultPMU()
	scfg := session.DefaultConfig()
	scfg.Health = session.HealthConfig{EvictBelowRate: 0.2}
	scfg.PMU = &pmu
	// Crash-safe durability: every event the session emits is appended
	// to a write-ahead log before delivery (here on an in-memory FS; a
	// real deployment passes a directory on disk — see cmd/icgserve
	// -wal-dir). The log is what lets a dashboard attach mid-session
	// with full history (SubscribeFrom below) and a crashed process
	// restore its sessions (Engine.Reopen).
	wlog, err := wal.Open("realtime-wal", wal.Config{FS: wal.NewMemFS()})
	if err != nil {
		log.Fatalf("realtime: %v", err)
	}
	scfg.WAL = wlog
	eng := session.NewEngine(dev, scfg)
	var beatTimes []float64
	count := 0
	sess, err := eng.Subscribe(1, event.Func(func(e event.Event) {
		switch e.Kind {
		case event.KindBeat:
			count++
			beatTimes = append(beatTimes, e.Params.TimeS)
			mark := ""
			if !e.Params.Accepted {
				mark = "  [gate: rejected]"
			}
			fmt.Printf("beat %2d @ %5.2fs  HR %5.1f  PEP %5.1f ms  LVET %5.1f ms  q %.2f%s\n",
				count, e.Params.TimeS, e.Params.HR, e.Params.PEP*1000,
				e.Params.LVET*1000, e.Params.Quality, mark)
		case event.KindHealth:
			dir := "recovered above"
			if e.Below {
				dir = "dropped below"
			}
			fmt.Printf("health @ %5.2fs  accept EWMA %.2f %s the %.2f eviction floor\n",
				e.TimeS, e.AcceptEWMA, dir, e.Floor)
		case event.KindMode:
			fmt.Printf("pmu    @ %5.2fs  %v -> %v (accept EWMA %.2f)\n",
				e.TimeS, core.PowerMode(e.PrevMode), core.PowerMode(e.Mode), e.AcceptEWMA)
		case event.KindSessionClosed:
			fmt.Printf("closed @ %5.2fs  %d/%d beats accepted (%v)\n",
				e.TimeS, e.Accepted, e.Emitted, session.CloseReason(e.Reason))
		}
	}))
	if err != nil {
		log.Fatalf("realtime: %v", err)
	}
	// Beat latency of the incremental engine for an ordinarily
	// confirmed R, straight from the stage lookaheads; a beat the QRS
	// detector recovers by search-back arrives later.
	fmt.Printf("streaming session, typical beat latency %.1f s after the closing R (search-back beats arrive later)\n\n", sess.Latency())

	// Feed 200 ms chunks, as a DMA double buffer would. Halfway through,
	// a dashboard attaches late: SubscribeFrom replays the session's
	// retained WAL tail and splices into the live stream with no gap and
	// no duplicate, so the late subscriber ends up with the same event
	// count as the one attached from the start.
	chunk := 50
	half := (len(acq.ECG) / (2 * chunk)) * chunk
	late := 0
	for pos := 0; pos < len(acq.ECG); pos += chunk {
		if pos == half {
			if err := eng.SubscribeFrom(1, event.Func(func(event.Event) { late++ })); err != nil {
				log.Fatalf("realtime: %v", err)
			}
		}
		end := pos + chunk
		if end > len(acq.ECG) {
			end = len(acq.ECG)
		}
		if err := sess.Push(acq.ECG[pos:end], acq.Z[pos:end]); err != nil {
			log.Fatalf("realtime: %v", err)
		}
	}
	// Close flushes the stream and delivers the final events (including
	// KindSessionClosed above) before returning.
	if err := sess.Close(); err != nil {
		log.Fatalf("realtime: %v", err)
	}
	// Per-session health verdict: the gate's accept rate over the
	// emitted beats (exactly 1 before any beat — the pinned zero-beats
	// contract) and why the session ended.
	fmt.Printf("\nsession: accept rate %.0f%%, closed (%v), survived the dead-contact eviction policy\n",
		sess.AcceptRate()*100, sess.Reason())
	if err := eng.Close(); err != nil {
		log.Fatalf("realtime: %v", err)
	}
	// The late dashboard saw the whole history: backfilled events plus
	// the live tail, no gap, no duplicate.
	st := wlog.Stats()
	fmt.Printf("wal: late subscriber saw %d events (backfill + live); log retains %d bytes across %d segment(s)\n",
		late, st.RetainedBytes, st.Segments)
	if err := wlog.Close(); err != nil {
		log.Fatalf("realtime: %v", err)
	}

	// Quality assessment over the whole session.
	batch, err := dev.Process(acq)
	if err != nil {
		log.Fatalf("realtime: %v", err)
	}
	rep := quality.Assess(batch.CondECG, batch.ICGTrack, batch.RPeaks, acq.FS)
	fmt.Printf("\nquality: ECG SQI %.2f, ICG SQI %.2f, usable=%v\n", rep.ECG, rep.ICG, rep.Usable())

	// BLE connection-event scheduling for the emitted beats.
	sched := radio.Schedule(beatTimes, radio.DefaultConn())
	fmt.Printf("radio: %d beats over %d connection events, mean notification wait %.0f ms\n",
		sched.Records, sched.EventsUsed, sched.MeanLatency*1000)

	// RAM story: why this mode exists.
	m := mcu.DefaultSTM32L151()
	batchRAM := core.BatchRAM(acq.FS, 30)
	streamRAM := core.StreamingRAM(acq.FS, core.DefaultStreamConfig())
	fmt.Printf("\nRAM: batch %.1f KB (fits 48 KB: %v), streaming %.1f KB (fits: %v)\n",
		float64(batchRAM.Total())/1024, m.FitsRAM(batchRAM.Total()),
		float64(streamRAM.Total())/1024, m.FitsRAM(streamRAM.Total()))
}
