package dsp

import "math"

// Least-squares line fitting. The paper's initial B-point estimate B0 is
// the intersection of the line fitted to the ICG samples between 40% and
// 80% of the C-point amplitude with the horizontal axis.

// Line is y = Slope*x + Intercept.
type Line struct {
	Slope     float64
	Intercept float64
}

// FitLine fits a least-squares line to the points (xs[i], ys[i]). It
// returns ok=false when fewer than two points are given or the xs are all
// identical (vertical line).
func FitLine(xs, ys []float64) (Line, bool) {
	n := len(xs)
	if n != len(ys) || n < 2 {
		return Line{}, false
	}
	var sx, sy, sxx, sxy float64
	for i := 0; i < n; i++ {
		sx += xs[i]
		sy += ys[i]
		sxx += xs[i] * xs[i]
		sxy += xs[i] * ys[i]
	}
	fn := float64(n)
	den := fn*sxx - sx*sx
	if math.Abs(den) < 1e-300 {
		return Line{}, false
	}
	slope := (fn*sxy - sx*sy) / den
	intercept := (sy - slope*sx) / fn
	return Line{Slope: slope, Intercept: intercept}, true
}

// FitLineIndices fits a line to (float64(idx[i]), y[idx[i]]).
func FitLineIndices(y []float64, idx []int) (Line, bool) {
	return FitLineIndicesWith(nil, y, idx)
}

// FitLineIndicesWith is FitLineIndices drawing the coordinate scratch
// from an arena (nil falls back to the heap). This runs on every beat
// of the delineator's B rule.
func FitLineIndicesWith(a *Arena, y []float64, idx []int) (Line, bool) {
	buf := a.F64(2 * len(idx))
	xs, ys := buf[:len(idx)], buf[len(idx):]
	for i, j := range idx {
		xs[i] = float64(j)
		ys[i] = y[j]
	}
	return FitLine(xs, ys)
}

// XAtY returns the x value at which the line reaches the given y. ok is
// false for horizontal lines.
func (l Line) XAtY(y float64) (float64, bool) {
	if l.Slope == 0 {
		return 0, false
	}
	return (y - l.Intercept) / l.Slope, true
}

// YAt evaluates the line at x.
func (l Line) YAt(x float64) float64 {
	return l.Slope*x + l.Intercept
}

// Quad is y = A*x^2 + B*x + C.
type Quad struct {
	A, B, C float64
}

// YAt evaluates the parabola at x.
func (q Quad) YAt(x float64) float64 {
	return (q.A*x+q.B)*x + q.C
}

// FitQuad fits a least-squares parabola to the points (xs[i], ys[i]). It
// returns ok=false when fewer than three points are given or the system
// is singular.
func FitQuad(xs, ys []float64) (Quad, bool) {
	n := len(xs)
	if n != len(ys) || n < 3 {
		return Quad{}, false
	}
	// Normal equations for [A B C] with moments s0..s4 and t0..t2.
	var s0, s1, s2, s3, s4, t0, t1, t2 float64
	for i := 0; i < n; i++ {
		x := xs[i]
		x2 := x * x
		s0++
		s1 += x
		s2 += x2
		s3 += x2 * x
		s4 += x2 * x2
		t0 += ys[i]
		t1 += ys[i] * x
		t2 += ys[i] * x2
	}
	// Solve the 3x3 system by Cramer's rule:
	// | s4 s3 s2 | |A|   |t2|
	// | s3 s2 s1 | |B| = |t1|
	// | s2 s1 s0 | |C|   |t0|
	det := s4*(s2*s0-s1*s1) - s3*(s3*s0-s1*s2) + s2*(s3*s1-s2*s2)
	if math.Abs(det) < 1e-200 {
		return Quad{}, false
	}
	detA := t2*(s2*s0-s1*s1) - s3*(t1*s0-t0*s1) + s2*(t1*s1-t0*s2)
	detB := s4*(t1*s0-t0*s1) - t2*(s3*s0-s1*s2) + s2*(s3*t0-s2*t1)
	detC := s4*(s2*t0-s1*t1) - s3*(s3*t0-s2*t1) + t2*(s3*s1-s2*s2)
	return Quad{A: detA / det, B: detB / det, C: detC / det}, true
}
