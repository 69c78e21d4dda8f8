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
// Usage:
//
//	icgstream [-subject 1] [-duration 30] [-loss 0.02]
//
// Synthetic fleets, eviction, the write-ahead log and crash recovery are
// driven through the real network gateway by cmd/icgserve.
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"net"
	"sync"

	"repro/internal/core"
	"repro/internal/event"
	"repro/internal/hemo"
	"repro/internal/hw/radio"
	"repro/internal/physio"
	"repro/internal/session"
)

func main() {
	subjectID := flag.Int("subject", 1, "subject ID (1-5)")
	duration := flag.Float64("duration", 30, "recording duration (s)")
	loss := flag.Float64("loss", 0.02, "simulated radio loss probability")
	flag.Parse()

	dev, err := core.NewDevice(core.DefaultConfig())
	if err != nil {
		log.Fatalf("icgstream: %v", err)
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

	runSingle(dev, &sub, *duration, link, conn)
	conn.Close()
	wg.Wait()
	fmt.Printf("link: sent=%d delivered=%d dropped=%d retries=%d airtime=%.1f ms (duty %.4f%%)\n",
		link.Sent, link.Delivered, link.Dropped, link.Retries,
		link.AirtimeS*1000, link.DutyCycle(*duration)*100)
}

// runSingle runs the device on the serving surface: one session
// subscribed to the typed event stream, each accepted KindBeat spent on
// the radio as it is emitted, the KindSessionClosed tally reported at
// the end. The TCP write can block, so it lives on a consumer
// goroutine behind an event.Chan — the non-blocking Sink contract: the
// session worker never waits on the radio.
func runSingle(dev *core.Device, sub *physio.Subject, duration float64, link *radio.Link, conn net.Conn) {
	acq, err := dev.Acquire(sub, duration)
	if err != nil {
		log.Fatalf("icgstream: %v", err)
	}
	eng := session.NewEngine(dev, session.DefaultConfig())
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
