// Package icg implements the paper's beat-to-beat ICG analysis (Sections
// IV-B and IV-C): the zero-phase 20 Hz Butterworth low-pass, beat
// segmentation between consecutive ECG R peaks, and the detection of the
// characteristic points — C (dZ/dt maximum), B (aortic valve opening) and
// X (aortic valve closure) — with both the paper's rules and the original
// Carvalho et al. variant as a baseline.
package icg

import "repro/internal/dsp"

// FilterConfig parameterizes the ICG conditioning chain: the paper's
// zero-phase 20 Hz Butterworth low-pass (Section IV-A.2) plus a gentle
// high-pass at the lower edge of the ICG band — the signal spans
// 0.8-20 Hz (Section II) while respiration sits at 0.04-2 Hz with most of
// its energy below 0.5 Hz, so the high-pass suppresses the respiratory
// component of -dZ/dt that would otherwise tilt the per-beat baseline.
type FilterConfig struct {
	FS       float64
	Order    int     // low-pass Butterworth order (default 4)
	Cutoff   float64 // low-pass cut-off (Hz); the paper uses 20 Hz
	HPOrder  int     // high-pass order (default 2)
	HPCutoff float64 // high-pass cut-off (Hz); DefaultFilter uses 0.5, 0 disables
}

// DefaultFilter returns the paper's configuration plus a 0.5 Hz
// second-order band-edge high-pass: it sits below the lowest beat
// fundamental (so the B-C-X morphology is preserved) yet suppresses the
// 0.2-0.35 Hz respiratory component of -dZ/dt by ~9x after the
// forward-backward pass. Ablation A3 quantifies the choice.
func DefaultFilter(fs float64) FilterConfig {
	return FilterConfig{FS: fs, Order: 4, Cutoff: 20, HPOrder: 2, HPCutoff: 0.5}
}

// Design builds the conditioning cascades once: the low-pass Butterworth
// and, when HPCutoff > 0, the band-edge high-pass (hp is nil otherwise).
// Caching the designed sections (core.Device does this at construction)
// removes the pole placement and bilinear transform from every window.
func (c FilterConfig) Design() (lp, hp dsp.SOS, err error) {
	order := c.Order
	if order <= 0 {
		order = 4
	}
	cutoff := c.Cutoff
	if cutoff <= 0 {
		cutoff = 20
	}
	lp, err = dsp.DesignButterLowPass(order, cutoff, c.FS)
	if err != nil {
		return nil, nil, err
	}
	if c.HPCutoff > 0 {
		hpOrder := c.HPOrder
		if hpOrder <= 0 {
			hpOrder = 2
		}
		hp, err = dsp.DesignButterHighPass(hpOrder, c.HPCutoff, c.FS)
		if err != nil {
			return nil, nil, err
		}
	}
	return lp, hp, nil
}

// Apply conditions x zero-phase.
func (c FilterConfig) Apply(x []float64) ([]float64, error) {
	return c.ApplyWith(nil, x)
}

// ApplyWith is Apply drawing its filtering scratch from an arena (nil
// falls back to the heap); the result is arena-owned when a is non-nil.
func (c FilterConfig) ApplyWith(a *dsp.Arena, x []float64) ([]float64, error) {
	lp, hp, err := c.Design()
	if err != nil {
		return nil, err
	}
	return ApplyDesigned(a, lp, hp, x), nil
}

// ApplyDesigned runs the zero-phase conditioning with pre-designed
// cascades (hp may be nil). One arena-aware path serves both modes:
// FiltFiltWith returns a sub-slice of its padded scratch with no
// trailing copy, so a nil arena is no longer more expensive than the
// heap path it used to fork to.
func ApplyDesigned(a *dsp.Arena, lp, hp dsp.SOS, x []float64) []float64 {
	y := lp.FiltFiltWith(a, x)
	if hp != nil {
		y = hp.FiltFiltWith(a, y)
	}
	return y
}
