package ntt

import (
	"context"
	"fmt"

	"distmsm/internal/field"
	"distmsm/internal/gpusim"
	"distmsm/internal/kernel"
)

// The four-step NTT decomposition — the algorithm a multi-GPU NTT would
// distribute, and the paper's named future work ("NTT and others could
// also benefit from multi-GPU acceleration", §5.1.1). For N = n1·n2 the
// transform becomes: n2 column NTTs of size n1, a twiddle scaling, n1 row
// NTTs of size n2, and a transpose. On a cluster the row/column passes
// are embarrassingly parallel and the transpose is one all-to-all
// exchange; FourStep verifies the mathematics against the direct
// transform and MultiGPUNTTSeconds prices the distributed execution.

// FourStep computes the size-(n1·n2) NTT of a via the four-step
// decomposition, returning a fresh output slice. n1 and n2 must be
// powers of two with n1·n2 == d.N.
func (d *Domain) FourStep(a []field.Element, n1, n2 int) ([]field.Element, error) {
	if n1*n2 != d.N || n1 < 1 || n2 < 1 {
		return nil, fmt.Errorf("ntt: four-step split %d x %d != %d", n1, n2, d.N)
	}
	if len(a) != d.N {
		return nil, fmt.Errorf("ntt: input length %d != %d", len(a), d.N)
	}
	f := d.F
	d1, err := NewDomain(f, n1)
	if err != nil {
		return nil, err
	}
	d2, err := NewDomain(f, n2)
	if err != nil {
		return nil, err
	}

	ctx := context.Background()
	// Step 1: column NTTs of size n1 (column i2 = elements i1·n2 + i2).
	work := make([]field.Element, d.N)
	col := make([]field.Element, n1)
	for i2 := 0; i2 < n2; i2++ {
		for i1 := 0; i1 < n1; i1++ {
			col[i1] = a[i1*n2+i2].Clone()
		}
		if err := d1.ForwardContext(ctx, col[:n1]); err != nil {
			return nil, err
		}
		for k1 := 0; k1 < n1; k1++ {
			work[k1*n2+i2] = col[k1]
			col[k1] = f.NewElement() // fresh storage for the next column
		}
	}

	// Step 2: twiddle factors ω_N^(k1·i2).
	tmp := f.NewElement()
	rowTw := f.One()
	for k1 := 0; k1 < n1; k1++ {
		tw := f.One()
		for i2 := 0; i2 < n2; i2++ {
			f.Mul(tmp, work[k1*n2+i2], tw)
			work[k1*n2+i2].Set(tmp)
			f.Mul(tmp, tw, rowTw)
			tw.Set(tmp)
		}
		f.Mul(tmp, rowTw, d.root)
		rowTw.Set(tmp)
	}

	// Step 3: row NTTs of size n2 (contiguous).
	for k1 := 0; k1 < n1; k1++ {
		if err := d2.ForwardContext(ctx, work[k1*n2:(k1+1)*n2]); err != nil {
			return nil, err
		}
	}

	// Step 4: transpose read-out: X[k1 + n1·k2] = work[k1·n2 + k2].
	out := make([]field.Element, d.N)
	for k1 := 0; k1 < n1; k1++ {
		for k2 := 0; k2 < n2; k2++ {
			out[k1+n1*k2] = work[k1*n2+k2]
		}
	}
	return out, nil
}

// MultiGPUNTTSeconds prices a size-n NTT distributed over the cluster
// with the four-step schedule: each GPU transforms n/G rows locally
// (twice), and the transpose is an all-to-all moving (G−1)/G of the data
// across the interconnect once in each direction.
func MultiGPUNTTSeconds(cl *gpusim.Cluster, n int, fieldBits int) float64 {
	model := cl.Model()
	g := float64(cl.N)
	// Butterfly count: (n/2)·log2(n) multiplications total, split across
	// GPUs; priced through the generic int-op path (one modular
	// multiplication plus the butterfly add/sub per step).
	logN := 0
	for 1<<uint(logN) < n {
		logN++
	}
	butterflies := float64(n) / 2 * float64(logN)
	spec := kernel.Spec{Variant: kernel.VariantOptimalOrder, Muls: 1, PeakLive: 3}
	compute := model.ECOpSeconds(spec, fieldBits, butterflies/g) // per-GPU share
	// Twiddle pass.
	compute += model.ECOpSeconds(spec, fieldBits, float64(n)/g)
	// All-to-all transpose: each GPU sends and receives ~n/G elements
	// (bytes = fieldBits/8 each) over the host link.
	bytes := float64(n) / g * float64(fieldBits) / 8 * 2 * (g - 1) / g
	transfer := gpusim.HostTransferSeconds(bytes, cl.IC)
	return compute + transfer
}
