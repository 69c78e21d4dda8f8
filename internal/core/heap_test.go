package core

import (
	"math"
	"runtime"
	"runtime/metrics"
	"testing"

	"repro/internal/physio"
)

// streamerHeapBudgetKB is the ratchet on the live heap one Streamer
// holds between pushes: measured at 11.99 KB (2-vCPU Xeon, Go 1.24)
// with the raw-Z ring holding exactly its readers' horizon packed a
// byte a sample (differences of 16-bit ADC codes, anchors and a few
// escapes), the baseline ring and the ECG band-pass's overlap-save
// carry holding 16-bit ADC codes, the baseline's four sliding extrema
// one window-length float32 block buffer each on the study subjects'
// ADC-grid samples, the QRS conditioned and baseline rings fitted to
// their horizons plus their streams' minimum sub-chunks, the QRS
// band-passed ring to its own horizon plus that sub-chunk, and no ICG
// ring (the delineator replays its ICG from the raw-Z ring), plus 10%
// to the whole KB. It only moves down — lower it when a change durably
// shrinks the streamer; never raise it to let a change pass.
const streamerHeapBudgetKB = 14

// TestStreamerHeapPerStream pins the live heap of an open streamer in
// the package that owns it (session.TestEngineHeapPerSession measures
// the same state plus the session around it): 1000 streamers each fed
// 10 s of 50-sample pushes, all still open, must add at most
// streamerHeapBudgetKB of live heap per streamer.
func TestStreamerHeapPerStream(t *testing.T) {
	perKB, _ := openStreamers(t)
	t.Logf("live heap per open streamer: %.2f KB (budget %d KB)", perKB, streamerHeapBudgetKB)
	if perKB > streamerHeapBudgetKB {
		t.Errorf("live heap per streamer %.2f KB exceeds the %d KB budget", perKB, streamerHeapBudgetKB)
	}
}

// TestStreamerHeldBytesLedger checks the per-component RAM ledger
// against the heap: on the streamers TestStreamerHeapPerStream
// measures, the mean of Streamer.HeldBytes must be within 5% of the
// live heap each one adds.
func TestStreamerHeldBytesLedger(t *testing.T) {
	perKB, streamers := openStreamers(t)
	held := 0
	for _, st := range streamers {
		held += st.HeldBytes()
	}
	heldKB := float64(held) / 1024 / float64(len(streamers))
	st := streamers[0]
	t.Logf("HeldBytes per streamer: %.2f KB, live heap %.2f KB (ratio %.3f); streamer 0: raw-Z ring %d B, ECG chain %d B, QRS detector %d B, delineator %d B, gate %d B",
		heldKB, perKB, heldKB/perKB, st.raw.HeldBytes(), st.ecgStream.HeldBytes(), st.pt.HeldBytes(),
		st.delin.HeldBytes(), st.gate.HeldBytes())
	if math.Abs(heldKB-perKB) > 0.05*perKB {
		t.Errorf("HeldBytes %.2f KB per streamer is not within 5%% of the live heap %.2f KB", heldKB, perKB)
	}
}

// openStreamers builds 1000 streamers, feeds each 10 s of a study
// subject in 50-sample pushes, and returns the live heap they add per
// streamer, in KB, with the streamers still open.
func openStreamers(t *testing.T) (float64, []*Streamer) {
	t.Helper()
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
	// The inputs were live when before was read: they must be at the
	// closing read too, or the streamers are short-changed by their size.
	runtime.KeepAlive(in)
	runtime.KeepAlive(streamers)
	return perKB, streamers
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
