package msm

import (
	"fmt"
	"math"
	"runtime"
	"sync"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
)

// Config controls the CPU Pippenger implementation.
type Config struct {
	// WindowSize is s; 0 selects a size from the classic N-based heuristic.
	WindowSize int
	// Signed enables signed-digit recoding (half the buckets).
	Signed bool
	// Workers is the number of goroutines; 0 means GOMAXPROCS. 1 (or
	// less) runs the same window loop inline on the calling goroutine.
	Workers int
}

// HeuristicWindowSize returns the classic single-machine choice of s,
// minimising ⌈λ/s⌉(N + 2^(s+1)) — roughly log2(N) - log2(log2(N)).
func HeuristicWindowSize(n int) int {
	if n <= 1 {
		return 1
	}
	best, bestCost := 1, math.Inf(1)
	for s := 1; s <= 26; s++ {
		cost := math.Ceil(256.0/float64(s)) * (float64(n) + math.Exp2(float64(s+1)))
		if cost < bestCost {
			best, bestCost = s, cost
		}
	}
	return best
}

func (cfg Config) resolve(n int) Config {
	if cfg.WindowSize == 0 {
		cfg.WindowSize = HeuristicWindowSize(n)
	}
	if cfg.Workers == 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	return cfg
}

// MSM computes Σ scalars[i]·points[i] with Pippenger's algorithm.
func MSM(c *curve.Curve, points []curve.PointAffine, scalars []bigint.Nat, cfg Config) (*curve.PointXYZZ, error) {
	if len(points) != len(scalars) {
		return nil, fmt.Errorf("msm: %d points but %d scalars", len(points), len(scalars))
	}
	if len(points) == 0 {
		return c.NewXYZZ(), nil
	}
	for i, k := range scalars {
		if k.BitLen() > c.ScalarBits {
			return nil, fmt.Errorf("msm: scalar %d has %d bits, curve limit is %d",
				i, k.BitLen(), c.ScalarBits)
		}
	}
	return pippenger(c, points, scalars, cfg.resolve(len(points))), nil
}

// digitsMatrix recodes every scalar; digits[j][i] is point i's digit in
// window j. Unsigned digits are stored as int32 with all values >= 0.
func digitsMatrix(c *curve.Curve, scalars []bigint.Nat, cfg Config) [][]int32 {
	s := cfg.WindowSize
	nWin := NumWindows(c.ScalarBits, s)
	if cfg.Signed {
		nWin++ // possible carry window
	}
	digits := make([][]int32, nWin)
	for j := range digits {
		digits[j] = make([]int32, len(scalars))
	}
	for i, k := range scalars {
		if cfg.Signed {
			for j, d := range SignedDigits(k, c.ScalarBits, s) {
				digits[j][i] = d
			}
		} else {
			for j, d := range Digits(k, c.ScalarBits, s) {
				digits[j][i] = int32(d)
			}
		}
	}
	// Drop a trailing all-zero carry window.
	for len(digits) > 1 {
		last := digits[len(digits)-1]
		zero := true
		for _, d := range last {
			if d != 0 {
				zero = false
				break
			}
		}
		if !zero {
			break
		}
		digits = digits[:len(digits)-1]
	}
	return digits
}

// windowSum computes one window's Σ d_i·P_i: bucket scatter-sum followed
// by the running-suffix bucket reduction (no per-bucket doublings).
func windowSum(c *curve.Curve, points []curve.PointAffine, digits []int32, cfg Config, a *curve.Adder) *curve.PointXYZZ {
	nBuckets := 1 << cfg.WindowSize // index by digit; bucket 0 unused
	if cfg.Signed {
		nBuckets = 1<<(cfg.WindowSize-1) + 1
	}
	buckets := make([]*curve.PointXYZZ, nBuckets)
	var neg curve.PointAffine
	negY := c.Fp.NewElement()
	for i := range points {
		d := digits[i]
		if d == 0 || points[i].Inf {
			continue
		}
		pt := &points[i]
		if d < 0 {
			c.Fp.Neg(negY, pt.Y)
			neg = curve.PointAffine{X: pt.X, Y: negY}
			pt = &neg
			d = -d
		}
		if buckets[d] == nil {
			buckets[d] = c.NewXYZZ()
		}
		a.Acc(buckets[d], pt)
	}
	// Bucket reduce: Σ i·B_i via running suffix sums.
	running := c.NewXYZZ()
	total := c.NewXYZZ()
	for i := nBuckets - 1; i >= 1; i-- {
		if buckets[i] != nil {
			a.Add(running, buckets[i])
		}
		a.Add(total, running)
	}
	return total
}

// reduceWindows combines per-window results W_j into Σ 2^(j·s)·W_j by
// Horner's rule from the top window down (s doublings per step).
func reduceWindows(c *curve.Curve, windows []*curve.PointXYZZ, s int, a *curve.Adder) *curve.PointXYZZ {
	acc := c.NewXYZZ()
	for j := len(windows) - 1; j >= 0; j-- {
		for b := 0; b < s; b++ {
			a.Double(acc)
		}
		a.Add(acc, windows[j])
	}
	return acc
}

// pippenger sums each window and reduces them. With Workers <= 1 the
// window loop runs inline on the calling goroutine; otherwise windows
// are distributed across goroutines (W-dim parallelism), and when there
// are more workers than windows each window's points are additionally
// split across workers with private bucket accumulators that are merged
// afterwards (B-dim parallelism, mirroring the GPU strategy).
func pippenger(c *curve.Curve, points []curve.PointAffine, scalars []bigint.Nat, cfg Config) *curve.PointXYZZ {
	digits := digitsMatrix(c, scalars, cfg)
	windows := make([]*curve.PointXYZZ, len(digits))
	a := c.NewAdder()
	if cfg.Workers <= 1 {
		for j := range digits {
			windows[j] = windowSum(c, points, digits[j], cfg, a)
		}
		return reduceWindows(c, windows, cfg.WindowSize, a)
	}

	perWindow := cfg.Workers / len(digits)
	if perWindow < 1 {
		perWindow = 1
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, cfg.Workers)
	for j := range digits {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			if perWindow == 1 {
				windows[j] = windowSum(c, points, digits[j], cfg, c.NewAdder())
				return
			}
			windows[j] = splitWindowSum(c, points, digits[j], cfg, perWindow)
		}(j)
	}
	wg.Wait()
	return reduceWindows(c, windows, cfg.WindowSize, a)
}

// splitWindowSum computes one window using k point-range partitions, each
// summed into private buckets, merged pairwise, then reduced once.
func splitWindowSum(c *curve.Curve, points []curve.PointAffine, digits []int32, cfg Config, k int) *curve.PointXYZZ {
	parts := make([]*curve.PointXYZZ, k)
	var wg sync.WaitGroup
	chunk := (len(points) + k - 1) / k
	for w := 0; w < k; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > len(points) {
			hi = len(points)
		}
		if lo >= hi {
			parts[w] = c.NewXYZZ()
			continue
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			a := c.NewAdder()
			parts[w] = windowSum(c, points[lo:hi], digits[lo:hi], cfg, a)
		}(w, lo, hi)
	}
	wg.Wait()
	a := c.NewAdder()
	acc := parts[0]
	for _, p := range parts[1:] {
		a.Add(acc, p)
	}
	return acc
}
