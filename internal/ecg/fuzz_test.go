package ecg

import (
	"math"
	"slices"
	"testing"

	"repro/internal/dsp"
)

// fuzzECG builds a conditioned ECG for FuzzPTStreamChunkInvariance:
// n samples (at least one) of a spike train with the given seed, then
// edited by prog, three bytes an edit (op, a, b), each at the position
// of the edit's own two bytes: a run of exact zeros, a constant run,
// one sample of any magnitude from 2⁻³² to 2³¹ (so the integration's
// running sum can cancel to a residual larger than the signal after
// it), or a stretch scaled down towards silence.
func fuzzECG(n int, seed int64, prog []byte) []float64 {
	x := synthECG(n, 250, seed)
	for ; len(prog) >= 3; prog = prog[3:] {
		op, a, b := prog[0], int(prog[1]), int(prog[2])
		at := (a<<8 | b) % len(x)
		run := x[at:min(at+4*a+1, len(x))]
		switch op % 4 {
		case 0:
			clear(run)
		case 1:
			for i := range run {
				run[i] = float64(int8(b)) / 16
			}
		case 2:
			x[at] = float64(int8(a)) * math.Ldexp(1, b%64-32)
		case 3:
			for i := range run {
				run[i] *= math.Ldexp(1, -(b % 48))
			}
		}
	}
	return x
}

// FuzzPTStreamChunkInvariance checks the detector's ring horizons and
// its chunk invariance on arbitrary conditioned input: pushed in
// 1-sample chunks, in chunks one short of, equal to and one past its
// sub-chunk, and whole, it must emit the R peaks and count the
// search-backs and T-wave vetoes, bit for bit, of the same detector
// built with both rings the size of its conditioned one (128 slots at
// the default configuration) and pushed whole. Streams may be shorter
// than the 2 s threshold initialization. A nonzero win sets the
// integration window to 5-513 ms: from 264 ms on, the derivative
// leaving it, not the slope window, sets the band-passed ring's horizon.
func FuzzPTStreamChunkInvariance(f *testing.F) {
	f.Add(uint16(2500), int64(1), uint8(0), []byte{})
	f.Add(uint16(300), int64(2), uint8(0), []byte{0, 20, 0})
	f.Add(uint16(480), int64(3), uint8(0), []byte{1, 40, 9, 2, 1, 60})
	f.Add(uint16(4000), int64(4), uint8(0), []byte{2, 120, 63, 0, 200, 17, 1, 90, 0})
	f.Add(uint16(6000), int64(5), uint8(0), []byte{2, 100, 60, 3, 7, 40, 0, 250, 3, 3, 30, 20})
	f.Add(uint16(1), int64(6), uint8(0), []byte{1, 0, 0})
	f.Add(uint16(3000), int64(7), uint8(250), []byte{0, 60, 5})
	// A spike whose cancellation residual then holds the integrated
	// signal on an exact plateau, over which a candidate waits 34
	// samples past its refractory period to be finalized.
	f.Add(uint16(2996), int64(7), uint8(186), []byte(":\x86\x88\x9a\x88\xd7\xd7\xd7\xd7\xd7\xd7y\a\x8d"))
	f.Fuzz(func(t *testing.T, n uint16, seed int64, win uint8, prog []byte) {
		x := fuzzECG(1+int(n)%7500, seed, prog) // up to 30 s
		cfg := DefaultPT(250)
		if win > 0 {
			cfg.WindowMs = 3 + 2*float64(win)
		}
		probe, err := NewPTStream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		rawN, _ := probe.History()
		run := func(ringN, chunk int) ([]int, *PTStream) {
			s, err := newPTStream(cfg, ringN)
			if err != nil {
				t.Fatal(err)
			}
			var a dsp.Arena
			var rs []int
			for pos := 0; pos < len(x); pos += chunk {
				a.Reset()
				rs = s.Push(&a, rs, x[pos:min(pos+chunk, len(x))])
			}
			return s.Flush(rs), s
		}
		want, ws := run(rawN, len(x))
		for _, chunk := range []int{1, probe.sub - 1, probe.sub, probe.sub + 1, len(x)} {
			if chunk < 1 {
				continue
			}
			got, gs := run(0, chunk)
			if !slices.Equal(got, want) {
				t.Fatalf("chunk %d: R peaks %v, %d-slot rings %v", chunk, got, rawN, want)
			}
			if gs.SearchBack != ws.SearchBack || gs.TWaveVeto != ws.TWaveVeto {
				t.Fatalf("chunk %d: search-back/veto %d/%d, %d-slot rings %d/%d",
					chunk, gs.SearchBack, gs.TWaveVeto, rawN, ws.SearchBack, ws.TWaveVeto)
			}
		}
	})
}
