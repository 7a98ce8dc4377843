package telemetry

// EWMA is an exponentially weighted moving average with weight ¼ on the
// newest sample: the calibration behind the MSM scheduler's speculation
// deadline, the proving service's retry-after and shed estimates, and
// the cluster coordinator's hedge delay. The zero value has observed
// nothing and the first sample seeds it. Every sample is a positive
// duration or rate, so zero doubles as "not yet observed". An EWMA is
// not self-locking: its owner's mutex guards it.
type EWMA float64

// Observe folds sample x into the average.
func (e *EWMA) Observe(x float64) {
	if *e == 0 {
		*e = EWMA(x)
		return
	}
	*e += 0.25 * (EWMA(x) - *e)
}

// Ready reports whether the average has observed a sample.
func (e EWMA) Ready() bool { return e != 0 }
