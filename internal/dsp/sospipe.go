package dsp

// Software-pipelined biquad cascade kernels. The direct-form-II-transposed
// recurrence
//
//	out = B0*v + z1; z1 = B1*v - A1*out + z2; z2 = B2*v - A2*out
//
// is a serial dependence chain through z1/z2: section-major filtering
// (one section over all samples, then the next) exposes no instruction
// parallelism, so each sample costs the full multiply-add latency chain.
// The kernels below run the whole cascade sample-major with a skewed
// pipeline — lane j processes sample i-j, so every iteration of the
// steady-state loop executes len(s) independent biquad updates that the
// core can overlap.
//
// Bit-identity: each (sample, section) update performs exactly the same
// operations on exactly the same operands as the section-major loop —
// the lanes only reorder independent nodes of the same dataflow graph —
// so FilterTo, filterZiInPlace and SOSStream.Push keep their outputs
// bit-identical to the scalar reference (pinned by tests). Cascades
// deeper than four sections run in groups of <= 4, which preserves the
// same graph.
//
// prime mirrors filterZiInPlace: each lane's state starts at the
// steady-state zi scaled by that lane's first input (the first output of
// the previous lane — the identical dataflow node the scalar code uses).

// sosPipeRun drives the cascade over x into dst in pipelined groups of
// up to four sections. dst and x must have equal length and either be
// the same slice or disjoint: every kernel's writes trail its reads, so
// fully in-place operation is safe by construction. z1/z2 (len(s) each)
// carry persistent per-section state in and out; nil means zero initial
// state with the final state discarded. prime overrides z1/z2 with the
// scaled steady-state zi at each section's first input (filterZiInPlace
// semantics).
func sosPipeRun(dst, x []float64, s SOS, z1, z2 []float64, prime bool) {
	src := x
	for off := 0; off < len(s); {
		g := len(s) - off
		if g > 4 {
			g = 4
		}
		switch g {
		case 1:
			var st [2]float64
			if z1 != nil {
				st[0], st[1] = z1[off], z2[off]
			}
			sosRun1(dst, src, s[off], &st, prime)
			if z1 != nil {
				z1[off], z2[off] = st[0], st[1]
			}
		case 2:
			var st [2][2]float64
			for j := 0; z1 != nil && j < 2; j++ {
				st[j][0], st[j][1] = z1[off+j], z2[off+j]
			}
			sosRun2(dst, src, s[off], s[off+1], &st, prime)
			for j := 0; z1 != nil && j < 2; j++ {
				z1[off+j], z2[off+j] = st[j][0], st[j][1]
			}
		case 3:
			var st [3][2]float64
			for j := 0; z1 != nil && j < 3; j++ {
				st[j][0], st[j][1] = z1[off+j], z2[off+j]
			}
			sosRun3(dst, src, s[off], s[off+1], s[off+2], &st, prime)
			for j := 0; z1 != nil && j < 3; j++ {
				z1[off+j], z2[off+j] = st[j][0], st[j][1]
			}
		default:
			var st [4][2]float64
			for j := 0; z1 != nil && j < 4; j++ {
				st[j][0], st[j][1] = z1[off+j], z2[off+j]
			}
			sosRun4(dst, src, s[off], s[off+1], s[off+2], s[off+3], &st, prime)
			for j := 0; z1 != nil && j < 4; j++ {
				z1[off+j], z2[off+j] = st[j][0], st[j][1]
			}
		}
		off += g
		src = dst
	}
}

// sosRun1 is the single-section loop (nothing to pipeline).
func sosRun1(dst, x []float64, bq Biquad, z *[2]float64, prime bool) {
	n := len(x)
	if n == 0 {
		return
	}
	z1, z2 := z[0], z[1]
	if prime {
		zi1, zi2 := biquadZi(bq)
		z1, z2 = zi1*x[0], zi2*x[0]
	}
	b0, b1, b2, a1, a2 := bq.B0, bq.B1, bq.B2, bq.A1, bq.A2
	for i := 0; i < n; i++ {
		v := x[i]
		out := b0*v + z1
		z1 = b1*v - a1*out + z2
		z2 = b2*v - a2*out
		dst[i] = out
	}
	z[0], z[1] = z1, z2
}

// sosRun2 pipelines a two-section cascade.
func sosRun2(dst, x []float64, q0, q1 Biquad, z *[2][2]float64, prime bool) {
	n := len(x)
	if n == 0 {
		return
	}
	b00, b01, b02, a01, a02 := q0.B0, q0.B1, q0.B2, q0.A1, q0.A2
	b10, b11, b12, a11, a12 := q1.B0, q1.B1, q1.B2, q1.A1, q1.A2
	z10, z20 := z[0][0], z[0][1]
	z11, z21 := z[1][0], z[1][1]

	// Prologue: lane 0 consumes x[0]; lane 1 is idle this step.
	v := x[0]
	if prime {
		zi1, zi2 := biquadZi(q0)
		z10, z20 = zi1*v, zi2*v
	}
	p0 := b00*v + z10
	z10 = b01*v - a01*p0 + z20
	z20 = b02*v - a02*p0
	if prime {
		zi1, zi2 := biquadZi(q1)
		z11, z21 = zi1*p0, zi2*p0
	}
	// Steady state: both lanes busy; lane 1 trails by one sample.
	for t := 1; t < n; t++ {
		v := x[t]
		w := p0
		o0 := b00*v + z10
		z10 = b01*v - a01*o0 + z20
		z20 = b02*v - a02*o0
		o1 := b10*w + z11
		z11 = b11*w - a11*o1 + z21
		z21 = b12*w - a12*o1
		dst[t-1] = o1
		p0 = o0
	}
	// Epilogue: drain lane 1.
	o1 := b10*p0 + z11
	z11 = b11*p0 - a11*o1 + z21
	z21 = b12*p0 - a12*o1
	dst[n-1] = o1

	z[0][0], z[0][1] = z10, z20
	z[1][0], z[1][1] = z11, z21
}

// sosRun3 pipelines a three-section cascade.
func sosRun3(dst, x []float64, q0, q1, q2 Biquad, z *[3][2]float64, prime bool) {
	n := len(x)
	if n == 0 {
		return
	}
	b00, b01, b02, a01, a02 := q0.B0, q0.B1, q0.B2, q0.A1, q0.A2
	b10, b11, b12, a11, a12 := q1.B0, q1.B1, q1.B2, q1.A1, q1.A2
	b20, b21, b22, a21, a22 := q2.B0, q2.B1, q2.B2, q2.A1, q2.A2
	z10, z20 := z[0][0], z[0][1]
	z11, z21 := z[1][0], z[1][1]
	z12, z22 := z[2][0], z[2][1]

	step0 := func(v float64) float64 {
		o := b00*v + z10
		z10 = b01*v - a01*o + z20
		z20 = b02*v - a02*o
		return o
	}
	step1 := func(v float64) float64 {
		o := b10*v + z11
		z11 = b11*v - a11*o + z21
		z21 = b12*v - a12*o
		return o
	}
	step2 := func(v float64) float64 {
		o := b20*v + z12
		z12 = b21*v - a21*o + z22
		z22 = b22*v - a22*o
		return o
	}

	v := x[0]
	if prime {
		zi1, zi2 := biquadZi(q0)
		z10, z20 = zi1*v, zi2*v
	}
	p0 := step0(v)
	if prime {
		zi1, zi2 := biquadZi(q1)
		z11, z21 = zi1*p0, zi2*p0
	}
	var p1 float64
	if n > 1 {
		v = x[1]
		w := p0
		p0 = step0(v)
		p1 = step1(w)
		if prime {
			zi1, zi2 := biquadZi(q2)
			z12, z22 = zi1*p1, zi2*p1
		}
	} else {
		p1 = step1(p0)
		if prime {
			zi1, zi2 := biquadZi(q2)
			z12, z22 = zi1*p1, zi2*p1
		}
		dst[0] = step2(p1)
		z[0][0], z[0][1] = z10, z20
		z[1][0], z[1][1] = z11, z21
		z[2][0], z[2][1] = z12, z22
		return
	}
	// The closures above capture the z vars, which would pin them to
	// stack slots inside the hot loop; run the steady state on fresh
	// uncaptured locals so they live in registers.
	{
		y10, y20, y11, y21, y12, y22 := z10, z20, z11, z21, z12, z22
		for t := 2; t < n; t++ {
			v := x[t]
			w0, w1 := p0, p1
			o0 := b00*v + y10
			y10 = b01*v - a01*o0 + y20
			y20 = b02*v - a02*o0
			o1 := b10*w0 + y11
			y11 = b11*w0 - a11*o1 + y21
			y21 = b12*w0 - a12*o1
			o2 := b20*w1 + y12
			y12 = b21*w1 - a21*o2 + y22
			y22 = b22*w1 - a22*o2
			dst[t-2] = o2
			p0, p1 = o0, o1
		}
		z10, z20, z11, z21, z12, z22 = y10, y20, y11, y21, y12, y22
	}
	// Epilogue: drain lane 1 then lane 2 on the in-flight values.
	o1 := step1(p0)
	dst[n-2] = step2(p1)
	dst[n-1] = step2(o1)

	z[0][0], z[0][1] = z10, z20
	z[1][0], z[1][1] = z11, z21
	z[2][0], z[2][1] = z12, z22
}

// sosRun4 pipelines a four-section cascade.
func sosRun4(dst, x []float64, q0, q1, q2, q3 Biquad, z *[4][2]float64, prime bool) {
	n := len(x)
	if n == 0 {
		return
	}
	b00, b01, b02, a01, a02 := q0.B0, q0.B1, q0.B2, q0.A1, q0.A2
	b10, b11, b12, a11, a12 := q1.B0, q1.B1, q1.B2, q1.A1, q1.A2
	b20, b21, b22, a21, a22 := q2.B0, q2.B1, q2.B2, q2.A1, q2.A2
	b30, b31, b32, a31, a32 := q3.B0, q3.B1, q3.B2, q3.A1, q3.A2
	z10, z20 := z[0][0], z[0][1]
	z11, z21 := z[1][0], z[1][1]
	z12, z22 := z[2][0], z[2][1]
	z13, z23 := z[3][0], z[3][1]

	step0 := func(v float64) float64 {
		o := b00*v + z10
		z10 = b01*v - a01*o + z20
		z20 = b02*v - a02*o
		return o
	}
	step1 := func(v float64) float64 {
		o := b10*v + z11
		z11 = b11*v - a11*o + z21
		z21 = b12*v - a12*o
		return o
	}
	step2 := func(v float64) float64 {
		o := b20*v + z12
		z12 = b21*v - a21*o + z22
		z22 = b22*v - a22*o
		return o
	}
	step3 := func(v float64) float64 {
		o := b30*v + z13
		z13 = b31*v - a31*o + z23
		z23 = b32*v - a32*o
		return o
	}
	prime1 := func(u float64, q Biquad, s1, s2 *float64) {
		zi1, zi2 := biquadZi(q)
		*s1, *s2 = zi1*u, zi2*u
	}

	// Short inputs: fill and drain the pipeline step by step.
	if n < 4 {
		var lanes [3]float64 // in-flight values for lanes 1..3
		emit := 0
		for t := 0; t < n+3; t++ {
			var o0 float64
			if t < n {
				v := x[t]
				if t == 0 && prime {
					prime1(v, q0, &z10, &z20)
				}
				o0 = step0(v)
			}
			// Advance deeper lanes on the values produced 1..3 steps ago.
			if t >= 1 && t-1 < n {
				if t-1 == 0 && prime {
					prime1(lanes[0], q1, &z11, &z21)
				}
				lanes[0] = step1(lanes[0])
			}
			if t >= 2 && t-2 < n {
				if t-2 == 0 && prime {
					prime1(lanes[1], q2, &z12, &z22)
				}
				lanes[1] = step2(lanes[1])
			}
			if t >= 3 && t-3 < n {
				if t-3 == 0 && prime {
					prime1(lanes[2], q3, &z13, &z23)
				}
				dst[emit] = step3(lanes[2])
				emit++
			}
			// Shift the pipeline: lane j+1 consumes lane j's output next step.
			lanes[2], lanes[1], lanes[0] = lanes[1], lanes[0], o0
		}
		z[0][0], z[0][1] = z10, z20
		z[1][0], z[1][1] = z11, z21
		z[2][0], z[2][1] = z12, z22
		z[3][0], z[3][1] = z13, z23
		return
	}

	// Prologue (n >= 4): three fill steps.
	v := x[0]
	if prime {
		prime1(v, q0, &z10, &z20)
	}
	p0 := step0(v)
	if prime {
		prime1(p0, q1, &z11, &z21)
	}
	w := p0
	p0 = step0(x[1])
	p1 := step1(w)
	if prime {
		prime1(p1, q2, &z12, &z22)
	}
	w0, w1 := p0, p1
	p0 = step0(x[2])
	p1 = step1(w0)
	p2 := step2(w1)
	if prime {
		prime1(p2, q3, &z13, &z23)
	}
	// Steady state: four lanes busy, lane 3 trails by three samples. The
	// closures above capture the z vars, which would pin them to stack
	// slots inside the hot loop; run it on fresh uncaptured locals so
	// they live in registers.
	{
		y10, y20, y11, y21 := z10, z20, z11, z21
		y12, y22, y13, y23 := z12, z22, z13, z23
		for t := 3; t < n; t++ {
			v := x[t]
			u0, u1, u2 := p0, p1, p2
			o0 := b00*v + y10
			y10 = b01*v - a01*o0 + y20
			y20 = b02*v - a02*o0
			o1 := b10*u0 + y11
			y11 = b11*u0 - a11*o1 + y21
			y21 = b12*u0 - a12*o1
			o2 := b20*u1 + y12
			y12 = b21*u1 - a21*o2 + y22
			y22 = b22*u1 - a22*o2
			o3 := b30*u2 + y13
			y13 = b31*u2 - a31*o3 + y23
			y23 = b32*u2 - a32*o3
			dst[t-3] = o3
			p0, p1, p2 = o0, o1, o2
		}
		z10, z20, z11, z21 = y10, y20, y11, y21
		z12, z22, z13, z23 = y12, y22, y13, y23
	}
	// Epilogue: drain the three in-flight values.
	o1 := step1(p0)
	o2 := step2(p1)
	dst[n-3] = step3(p2)
	o2b := step2(o1)
	dst[n-2] = step3(o2)
	dst[n-1] = step3(o2b)

	z[0][0], z[0][1] = z10, z20
	z[1][0], z[1][1] = z11, z21
	z[2][0], z[2][1] = z12, z22
	z[3][0], z[3][1] = z13, z23
}

// FilterSpans applies the cascade causally in place on y cut into spans
// of span samples (the last may be shorter), span j starting from its
// own registers: states holds 2*len(s) values per span, z1 then z2 per
// section, laid out as SOSStream.State returns them, and is left
// undefined. Given the registers a stream had at each span's start, it
// continues that stream bit for bit over all of y. The spans' recurrences
// are independent, so a one-section cascade runs four runs of spans in
// lockstep, which the core overlaps.
func (s SOS) FilterSpans(y []float64, span int, states []float64) {
	if len(s) == 1 {
		sosRun1Spans(y, span, s[0], states)
		return
	}
	w := 2 * len(s)
	for j, lo := 0, 0; lo < len(y); j, lo = j+1, lo+span {
		st := states[j*w:][:w]
		seg := y[lo:min(lo+span, len(y))]
		sosPipeRun(seg, seg, s, st[:len(s)], st[len(s):], false)
	}
}

// sosRun1Spans is FilterSpans for one section. The spans are dealt into
// four lanes of consecutive spans, every lane but the last nonempty one
// the same length; the lanes run in lockstep over the shortest length,
// then the full lanes over the rest. A lane with nothing of its own to
// do repeats lane 0 (same samples, same registers): it reads each
// sample before any lane writes it and writes the value lane 0 writes,
// so the repeat changes nothing.
func sosRun1Spans(y []float64, span int, bq Biquad, st []float64) {
	nsp := (len(y) + span - 1) / span
	if nsp == 0 {
		return
	}
	q := (nsp + 3) / 4 // spans per lane
	var lo, n [4]int
	var z [4][2]float64
	for k := range lo {
		if j := k * q; j < nsp {
			lo[k], n[k] = j*span, min(q*span, len(y)-j*span)
			z[k] = [2]float64{st[2*j], st[2*j+1]}
		} else {
			lo[k], n[k], z[k] = lo[0], n[0], z[0]
		}
	}
	m := min(n[0], n[1], n[2], n[3])
	sosRun1Lanes(y, lo, m, bq, &z)
	for k := range lo {
		lo[k], n[k] = lo[k]+m, n[k]-m
	}
	if n[0] == 0 { // lane 0 is a longest lane
		return
	}
	for k := range lo {
		if n[k] == 0 {
			lo[k], n[k], z[k] = lo[0], n[0], z[0]
		}
	}
	sosRun1Lanes(y, lo, n[0], bq, &z)
}

// sosRun1Lanes runs one section over y[lo[k]:lo[k]+n] for the four
// lanes k in lockstep, in place, each lane carrying its registers z[k].
func sosRun1Lanes(y []float64, lo [4]int, n int, bq Biquad, z *[4][2]float64) {
	y0, y1, y2, y3 := y[lo[0]:][:n], y[lo[1]:][:n], y[lo[2]:][:n], y[lo[3]:][:n]
	b0, b1, b2, a1, a2 := bq.B0, bq.B1, bq.B2, bq.A1, bq.A2
	z10, z20 := z[0][0], z[0][1]
	z11, z21 := z[1][0], z[1][1]
	z12, z22 := z[2][0], z[2][1]
	z13, z23 := z[3][0], z[3][1]
	for i := range y0 {
		v0, v1, v2, v3 := y0[i], y1[i], y2[i], y3[i]
		o0 := b0*v0 + z10
		z10 = b1*v0 - a1*o0 + z20
		z20 = b2*v0 - a2*o0
		o1 := b0*v1 + z11
		z11 = b1*v1 - a1*o1 + z21
		z21 = b2*v1 - a2*o1
		o2 := b0*v2 + z12
		z12 = b1*v2 - a1*o2 + z22
		z22 = b2*v2 - a2*o2
		o3 := b0*v3 + z13
		z13 = b1*v3 - a1*o3 + z23
		z23 = b2*v3 - a2*o3
		y0[i], y1[i], y2[i], y3[i] = o0, o1, o2, o3
	}
	z[0] = [2]float64{z10, z20}
	z[1] = [2]float64{z11, z21}
	z[2] = [2]float64{z12, z22}
	z[3] = [2]float64{z13, z23}
}
