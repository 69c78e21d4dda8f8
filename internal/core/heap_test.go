package core

import (
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/physio"
)

// streamerHeapBudgetKB is the ratchet on the live heap one Streamer
// holds between pushes: measured at 38.4 KB (2-vCPU Xeon, Go 1.24) with
// the raw-Z and baseline rings narrow (float32) on the study subjects'
// ADC-grid samples and no ICG ring (the delineator replays its ICG from
// the raw-Z ring), plus 10%. It only moves down — lower it when a
// change durably shrinks the streamer; never raise it to let a change
// pass.
const streamerHeapBudgetKB = 43

// TestStreamerHeapPerStream pins the live heap of an open streamer in
// the package that owns it (session.TestEngineHeapPerSession measures
// the same state plus the session around it): 1000 streamers each fed
// 10 s of 50-sample pushes, all still open, must add at most
// streamerHeapBudgetKB of live heap per streamer.
func TestStreamerHeapPerStream(t *testing.T) {
	if testing.Short() || raceEnabled {
		t.Skip("heap budget runs 1000 streamers without -short or -race")
	}
	const n, chunk, seconds = 1000, 50, 10
	d := device(t, nil)
	var in []*Acquisition
	for id := 1; id <= 5; id++ {
		sub, _ := physio.SubjectByID(id)
		acq, err := d.Acquire(&sub, seconds)
		if err != nil {
			t.Fatal(err)
		}
		in = append(in, acq)
	}

	before := liveHeap()
	streamers := make([]*Streamer, n)
	for i := range streamers {
		streamers[i] = d.NewStreamer(DefaultStreamConfig())
	}
	for pos := 0; pos < len(in[0].ECG); pos += chunk {
		for i, st := range streamers {
			acq := in[i%len(in)]
			end := min(pos+chunk, len(acq.ECG))
			st.Push(acq.ECG[pos:end], acq.Z[pos:end])
		}
	}
	perKB := float64(liveHeap()-before) / 1024 / n
	runtime.KeepAlive(streamers)
	t.Logf("live heap per open streamer: %.1f KB (budget %d KB)", perKB, streamerHeapBudgetKB)
	if perKB > streamerHeapBudgetKB {
		t.Errorf("live heap per streamer %.1f KB exceeds the %d KB budget", perKB, streamerHeapBudgetKB)
	}
}

// liveHeap collects garbage and returns the live heap it marked; the
// second collection frees what sync.Pools held over from the first.
func liveHeap() int64 {
	runtime.GC()
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return int64(s[0].Value.Uint64())
}
