package core

import (
	"math"
	"testing"

	"repro/internal/event"
	"repro/internal/hemo"
	"repro/internal/physio"
)

// beatSink collects the params of every KindBeat event it receives.
type beatSink []hemo.BeatParams

func (b *beatSink) Emit(e event.Event) {
	if e.Kind == event.KindBeat {
		*b = append(*b, e.Params)
	}
}

// every is the chunk schedule of fixed n-sample pushes.
func every(n int) func() int { return func() int { return n } }

// pushChunks pushes ecg and z through st in the sizes next returns (0
// is an empty push), then flushes.
func pushChunks(st *Streamer, ecg, z []float64, next func() int) {
	for pos := 0; pos < len(ecg); {
		end := min(pos+next(), len(ecg))
		st.Push(ecg[pos:end], z[pos:end])
		pos = end
	}
	st.Flush()
}

// streamBeats arms st with a beatSink, streams ecg and z through it in
// the sizes next returns, and returns every beat emitted, Flush's
// included.
func streamBeats(st *Streamer, ecg, z []float64, next func() int) []hemo.BeatParams {
	var beats beatSink
	st.Emit(&beats, 0)
	pushChunks(st, ecg, z, next)
	return beats
}

// The incremental engine must reproduce the batch pipeline beat for
// beat: same beat count and per-beat LVET/PEP/HR within tolerance, for
// every chunk size including 1-sample pushes. Outlier rejection is
// disabled in the batch run because it is a whole-series operation the
// per-beat stream cannot (and should not) apply.
func TestStreamingBatchParity(t *testing.T) {
	const (
		tolSTI = 0.008 // s: two samples at 250 Hz
		tolHR  = 1.0   // bpm
	)
	chunks := []int{1, 7, 50, 250, 1024}
	for sid := 1; sid <= 5; sid++ {
		sub, _ := physio.SubjectByID(sid)
		d := device(t, func(c *Config) { c.OutlierK = 1e9 })
		acq, err := d.Acquire(&sub, 30)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := d.Process(acq)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Beats) < 20 {
			t.Fatalf("subject %d: batch produced only %d beats", sid, len(batch.Beats))
		}
		for _, chunk := range chunks {
			st := d.NewStreamer(DefaultStreamConfig())
			got := streamBeats(st, acq.ECG, acq.Z, every(chunk))
			if len(got) != len(batch.Beats) {
				t.Fatalf("subject %d chunk %d: %d beats, batch %d",
					sid, chunk, len(got), len(batch.Beats))
			}
			for i, b := range got {
				want := batch.Beats[i]
				if math.Abs(b.TimeS-want.TimeS) > tolSTI {
					t.Errorf("subject %d chunk %d beat %d: TimeS %.3f vs %.3f",
						sid, chunk, i, b.TimeS, want.TimeS)
				}
				if math.Abs(b.LVET-want.LVET) > tolSTI {
					t.Errorf("subject %d chunk %d beat %d: LVET %.4f vs %.4f",
						sid, chunk, i, b.LVET, want.LVET)
				}
				if math.Abs(b.PEP-want.PEP) > tolSTI {
					t.Errorf("subject %d chunk %d beat %d: PEP %.4f vs %.4f",
						sid, chunk, i, b.PEP, want.PEP)
				}
				if math.Abs(b.HR-want.HR) > tolHR {
					t.Errorf("subject %d chunk %d beat %d: HR %.2f vs %.2f",
						sid, chunk, i, b.HR, want.HR)
				}
			}
		}
	}
}

// The emitted stream must be identical regardless of how the input is
// chunked — bit for bit, every field — because session replication and
// the multi-session engine rely on chunk-invariant output.
func TestStreamingChunkInvariance(t *testing.T) {
	sub, _ := physio.SubjectByID(2)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 20)
	if err != nil {
		t.Fatal(err)
	}
	ref := streamBeats(d.NewStreamer(DefaultStreamConfig()), acq.ECG, acq.Z, every(250))
	if len(ref) == 0 {
		t.Fatal("no beats")
	}
	for _, chunk := range []int{1, 3, 77, 999} {
		got := streamBeats(d.NewStreamer(DefaultStreamConfig()), acq.ECG, acq.Z, every(chunk))
		if len(got) != len(ref) {
			t.Fatalf("chunk %d: %d beats vs %d", chunk, len(got), len(ref))
		}
		for i := range ref {
			if got[i] != ref[i] {
				t.Fatalf("chunk %d beat %d differs: %+v vs %+v", chunk, i, got[i], ref[i])
			}
		}
	}
}

// A Reset streamer must reproduce a fresh streamer's output exactly —
// the session engine pools and reuses streamers across sessions.
func TestStreamerResetReuse(t *testing.T) {
	sub, _ := physio.SubjectByID(3)
	d := device(t, nil)
	acq, err := d.Acquire(&sub, 15)
	if err != nil {
		t.Fatal(err)
	}
	st := d.NewStreamer(DefaultStreamConfig())
	first := streamBeats(st, acq.ECG, acq.Z, every(125))
	st.Reset()
	second := streamBeats(st, acq.ECG, acq.Z, every(125))
	if len(first) != len(second) {
		t.Fatalf("Reset changes beat count: %d vs %d", len(first), len(second))
	}
	for i := range first {
		if first[i] != second[i] {
			t.Fatalf("beat %d differs after Reset", i)
		}
	}
}

// The causal-filter ablation conditions its stream sample for sample
// like the batch causal path, on the same clock, so every per-beat
// timing, amplitude and gate field must match the batch beat exactly:
// a one-sample slip between the ECG and ICG clocks would move PEP and
// LVET by 4 ms.
func TestStreamingBatchParityCausalFilters(t *testing.T) {
	d := device(t, func(c *Config) {
		c.CausalFilters = true
		c.OutlierK = 1e9
	})
	for sid := 1; sid <= 5; sid++ {
		sub, _ := physio.SubjectByID(sid)
		acq, err := d.Acquire(&sub, 30)
		if err != nil {
			t.Fatal(err)
		}
		batch, err := d.Process(acq)
		if err != nil {
			t.Fatal(err)
		}
		for _, chunk := range []int{1, 125} {
			got := streamBeats(d.NewStreamer(DefaultStreamConfig()), acq.ECG, acq.Z, every(chunk))
			if len(got) != len(batch.Beats) {
				t.Fatalf("subject %d chunk %d: %d beats, batch %d", sid, chunk, len(got), len(batch.Beats))
			}
			for i, b := range got {
				w := batch.Beats[i]
				if b.TimeS != w.TimeS || b.RR != w.RR || b.PEP != w.PEP || b.LVET != w.LVET ||
					b.DZdtMax != w.DZdtMax || b.Quality != w.Quality || b.Accepted != w.Accepted {
					t.Errorf("subject %d chunk %d beat %d: stream %+v, batch %+v", sid, chunk, i, b, w)
				}
			}
		}
	}
}
