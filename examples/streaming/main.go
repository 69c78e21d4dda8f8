// Streaming: the end-to-end wireless path in-process — the device
// processes a touch recording and streams per-beat records through the
// lossy BLE link model over an in-memory pipe; the receiving side decodes
// and aggregates them, as a physician's gateway would.
package main

import (
	"errors"
	"fmt"
	"log"
	"net"
	"sync"

	touchicg "repro"
	"repro/internal/dsp"
	"repro/internal/hw/radio"
)

func main() {
	sub, _ := touchicg.SubjectByID(4)
	dev, err := touchicg.NewDevice(touchicg.DefaultConfig())
	if err != nil {
		log.Fatalf("streaming: %v", err)
	}
	_, out, err := dev.Run(&sub, 30)
	if err != nil {
		log.Fatalf("streaming: %v", err)
	}

	devSide, monSide := net.Pipe()
	var wg sync.WaitGroup
	wg.Add(1)

	// Monitor goroutine: decode frames, aggregate the session.
	go func() {
		defer wg.Done()
		var hrs, peps, lvets []float64
		sc := radio.NewScanner(monSide)
		for {
			f, err := sc.Next()
			if errors.Is(err, radio.ErrBadCRC) || errors.Is(err, radio.ErrPayloadTooLarge) {
				continue // the scanner resynchronized past a corrupt frame
			}
			if err != nil {
				break
			}
			beat, err := radio.UnmarshalBeat(f.Payload)
			if err != nil {
				continue
			}
			hrs = append(hrs, beat.HR)
			peps = append(peps, beat.PEP*1000)
			lvets = append(lvets, beat.LVET*1000)
		}
		fmt.Printf("monitor: %d beats received\n", len(hrs))
		fmt.Printf("monitor: HR %.1f bpm, PEP %.1f ms, LVET %.1f ms (session means)\n",
			dsp.Mean(hrs), dsp.Mean(peps), dsp.Mean(lvets))
	}()

	// Device side: frame and send every gate-accepted beat through the
	// lossy link (out.Beats carries every analyzable beat flagged by
	// the per-beat quality gate; rejected beats would waste airtime on
	// artifact numbers).
	link := radio.NewLink(radio.DefaultLink(), sub.Seed)
	seq := byte(0)
	sent := 0
	for _, b := range out.Beats {
		if !b.Accepted {
			continue
		}
		rec := radio.BeatRecord{
			TimestampMs: uint32(b.TimeS * 1000),
			Z0:          b.Z0, LVET: b.LVET, PEP: b.PEP, HR: b.HR,
		}
		f := &radio.Frame{Type: radio.TypeBeat, Seq: seq, Payload: rec.Marshal()}
		seq++
		if !link.Send(f) {
			continue
		}
		if err := radio.WriteFrame(devSide, f); err != nil {
			log.Fatalf("streaming: %v", err)
		}
		sent++
	}
	devSide.Close()
	wg.Wait()
	fmt.Printf("device: %d of %d beats delivered, radio duty %.4f%%\n",
		sent, len(out.Beats), link.DutyCycle(30)*100)
}
