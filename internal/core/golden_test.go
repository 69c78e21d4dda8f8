package core

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/goldentest"
	"repro/internal/hemo"
	"repro/internal/physio"
)

// Golden per-beat traces: a compact committed file pins the exact beat
// stream (R, LVET, PEP, SV, Quality, Accepted) both engines produce for
// two seeded study subjects, so any change to conditioning, detection,
// delineation, gating or hemodynamics shows up as a byte diff instead
// of drifting silently. Regenerate intentionally with
//
//	go test ./internal/core/ -run TestGolden -update
//
// The file holds one block per engine: batch and streaming traces agree
// on every interval and gate decision but legitimately differ in the
// Z0-derived columns (batch uses the whole-recording mean impedance,
// streaming the causal prefix mean — see Streamer). The session layer
// is asserted byte-identical to the streaming block, driven through a
// session.Engine-equivalent chunk schedule.
var updateGolden = flag.Bool("update", false, "rewrite the golden beat-trace files")

const goldenSeconds = 12.0

// The line format and block reader live in internal/goldentest, shared
// with the session package's golden test so the two cannot drift.
func goldenBlock(name string, fs float64, beats []hemo.BeatParams) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s %d\n", name, len(beats))
	for _, b := range beats {
		sb.WriteString(goldentest.Line(fs, b))
		sb.WriteByte('\n')
	}
	return sb.String()
}

// goldenRun produces the batch and streaming beat traces for a subject.
// The streaming trace is produced twice — once through a bare Streamer
// pushed in 125-sample chunks, once in 250-sample chunks — and the two
// must agree byte for byte before the file is even consulted (chunk
// invariance is a precondition of a meaningful golden).
func goldenRun(t *testing.T, dev *Device, subjectID int) (batch, stream []hemo.BeatParams) {
	t.Helper()
	sub, ok := physio.SubjectByID(subjectID)
	if !ok {
		t.Fatalf("no subject %d", subjectID)
	}
	acq, err := dev.Acquire(&sub, goldenSeconds)
	if err != nil {
		t.Fatal(err)
	}
	out, err := dev.Process(acq)
	if err != nil {
		t.Fatal(err)
	}
	batch = out.Beats

	stream = streamBeats(dev.NewStreamer(StreamConfig{}), acq.ECG, acq.Z, every(125))
	alt := streamBeats(dev.NewStreamer(StreamConfig{}), acq.ECG, acq.Z, every(250))
	if len(alt) != len(stream) {
		t.Fatalf("subject %d: chunk 250 emitted %d beats, chunk 125 %d", subjectID, len(alt), len(stream))
	}
	for i := range stream {
		if alt[i] != stream[i] {
			t.Fatalf("subject %d beat %d: chunk invariance broken before golden comparison", subjectID, i)
		}
	}
	return batch, stream
}

func goldenPath(subjectID int) string {
	return filepath.Join("testdata", fmt.Sprintf("golden_subject%d.txt", subjectID))
}

func TestGoldenBeatTraces(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, sid := range []int{1, 2} {
		batch, stream := goldenRun(t, dev, sid)
		if len(batch) == 0 || len(stream) == 0 {
			t.Fatalf("subject %d produced no beats", sid)
		}
		got := fmt.Sprintf("# golden beat trace: subject %d, %.0f s @ %g Hz\n# columns: R LVET PEP SVKub Quality Accepted (floats in Go %%x hex)\n",
			sid, goldenSeconds, dev.Config().FS) +
			goldenBlock("batch", dev.Config().FS, batch) +
			goldenBlock("stream", dev.Config().FS, stream)

		path := goldenPath(sid)
		if *updateGolden {
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
				t.Fatal(err)
			}
			t.Logf("wrote %s (%d batch + %d stream beats)", path, len(batch), len(stream))
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (regenerate with -update): %v", err)
		}
		if got != string(want) {
			t.Fatalf("subject %d: beat trace deviates from %s\n%s\n(regenerate intentionally with -update)",
				sid, path, diffGolden(string(want), got))
		}
	}
}

// TestGoldenPooledStreamerPath replays subject 1 through a RECYCLED
// streamer — run, Reset, run again, exactly the pooled reuse cycle the
// session engine performs — and requires byte identity with the
// committed stream block. (The serving layer proper is pinned against
// the same block by the session package's golden test, which drives a
// real session.Engine; it cannot live here without an import cycle.)
func TestGoldenPooledStreamerPath(t *testing.T) {
	dev, err := NewDevice(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	want, err := goldentest.ReadBlock(goldenPath(1), "stream")
	if err != nil {
		t.Fatalf("golden stream block (regenerate with -update): %v", err)
	}
	sub, _ := physio.SubjectByID(1)
	acq, err := dev.Acquire(&sub, goldenSeconds)
	if err != nil {
		t.Fatal(err)
	}
	// The session engine pushes through a pooled, Reset streamer in
	// arrival-order chunks; emulate one pooled reuse cycle (run once,
	// Reset, run again) and check the SECOND pass — the recycled-state
	// path — against the golden.
	st := dev.NewStreamer(StreamConfig{})
	streamBeats(st, acq.ECG, acq.Z, every(50))
	st.Reset()
	beats := streamBeats(st, acq.ECG, acq.Z, every(50))
	if len(beats) != len(want) {
		t.Fatalf("session-path emitted %d beats, golden stream block has %d", len(beats), len(want))
	}
	for i, b := range beats {
		if line := goldentest.Line(dev.Config().FS, b); line != want[i] {
			t.Fatalf("beat %d: session path %q != golden %q", i, line, want[i])
		}
	}
}

// diffGolden points at the first deviating line.
func diffGolden(want, got string) string {
	wl := strings.Split(want, "\n")
	gl := strings.Split(got, "\n")
	for i := 0; i < len(wl) && i < len(gl); i++ {
		if wl[i] != gl[i] {
			return fmt.Sprintf("first difference at line %d:\n  want: %s\n  got:  %s", i+1, wl[i], gl[i])
		}
	}
	return fmt.Sprintf("length differs: want %d lines, got %d", len(wl), len(gl))
}
