package main

import (
	"math"
	"math/rand"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of xs by linear
// interpolation between the two closest ranks; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (pos-float64(lo))*(s[hi]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
func p90(xs []float64) float64    { return quantile(xs, 0.9) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// quietBlocks is how many consecutive blocks a closed-loop run is cut
// into; a block must hold at least minBlockOps ops to stand alone.
const (
	quietBlocks = 8
	minBlockOps = 8
)

// quietest cuts xs, the op times of a closed loop in order, into
// quietBlocks consecutive blocks and returns the smallest f over them:
// f of the least disturbed stretch of the run. Interference from other
// tenants of the host only ever adds time and comes in phases of
// seconds, so the quietest block says what the code costs where the
// whole run says what the neighbours did; anything the code itself does
// every few ops (GC, retries, scheduling) is in every block. Too short
// a run is taken whole.
func quietest(xs []float64, f func([]float64) float64) float64 {
	per := len(xs) / quietBlocks
	if per < minBlockOps {
		return f(xs)
	}
	best := math.Inf(1)
	for b := 0; b < quietBlocks; b++ {
		hi := (b + 1) * per
		if b == quietBlocks-1 {
			hi = len(xs)
		}
		best = min(best, f(xs[b*per:hi]))
	}
	return best
}

// ratio is a/b, or 0 when b is 0 (a run too short to have both sides).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		m = max(m, x)
	}
	return m
}

// spread is the distance between the first and third quartile as a
// share of the median — the contract's run-to-run measure, with the
// quartiles of Python's statistics.quantiles(n=4) (exclusive method).
func spread(xs []float64) float64 {
	n := len(xs)
	if n < 2 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	cut := func(k int) float64 { // k-th of 4 cut points, exclusive method
		pos := float64(k*(n+1))/4 - 1
		lo := int(math.Floor(pos))
		lo = max(0, min(lo, n-2))
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := cut(2)
	if med == 0 {
		return 0
	}
	return (cut(3) - cut(1)) / math.Abs(med)
}

// arrivalSchedule returns the due times of an open-loop arrival process
// of the given rate over (0, horizon]. The gaps are exponentially
// distributed, as in a Poisson process, but stratified: they are the n
// quantile midpoints of the exponential distribution in an order drawn
// from rnd, scaled to end at the horizon. Every seed therefore offers
// the same number of arrivals and the same gaps — the same load — and
// only their order, the burst structure, changes; a freely drawn
// Poisson schedule of ~100 arrivals varies by ±10 % in count alone,
// which would drown any change to the service in schedule luck.
func arrivalSchedule(rnd *rand.Rand, ratePerSec float64, horizon time.Duration) []time.Duration {
	n := int(math.Round(ratePerSec * horizon.Seconds()))
	if n < 1 {
		return nil
	}
	gaps := make([]float64, n)
	total := 0.0
	for i := range gaps {
		gaps[i] = -math.Log(1 - (float64(i)+0.5)/float64(n))
		total += gaps[i]
	}
	rnd.Shuffle(n, func(i, j int) { gaps[i], gaps[j] = gaps[j], gaps[i] })
	due := make([]time.Duration, n)
	t := 0.0
	for i, g := range gaps {
		t += g
		due[i] = time.Duration(t / total * float64(horizon))
	}
	return due
}

// subSeed derives the k-th independent stream seed from the run seed
// (splitmix64), so -seed is the only workload input.
func subSeed(seed int64, k int) int64 {
	z := uint64(seed) + uint64(k+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1) // non-negative
}
