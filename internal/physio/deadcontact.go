package physio

// DeadContact synthesizes n samples of what a lifted finger feeds the
// front end: the impedance channel flat at the open-circuit value with
// sub-quantization dither, and an ECG lead carrying only noise.
// Deterministic per seed. It is the shared lifted-finger model — the
// session engine's eviction tests and the cmd/icgserve fleet driver
// must stress the health policy with the SAME signal, or the published
// shedding numbers drift from what the tests pin.
func DeadContact(seed int64, n int) (ecg, z []float64) {
	rng := NewRNG(seed*13 + 7)
	ecg = make([]float64, n)
	z = make([]float64, n)
	for i := range ecg {
		ecg[i] = 0.02 * rng.NormFloat64()
		z[i] = 400 + 1e-4*rng.NormFloat64()
	}
	return ecg, z
}
