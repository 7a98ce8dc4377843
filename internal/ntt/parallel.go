package ntt

import (
	"context"
	"runtime"
	"sync"

	"distmsm/internal/field"
)

// ParallelForward computes the in-place NTT using worker goroutines: at
// each butterfly level the independent blocks are sharded across
// workers (the host-side analogue of the GPU NTT's thread-parallel
// stages). workers <= 0 selects GOMAXPROCS. Output is identical to
// Forward.
func (d *Domain) ParallelForward(a []field.Element, workers int) {
	_ = d.parallelTransform(context.Background(), a, d.root, workers)
}

// ParallelInverse computes the in-place inverse NTT with workers.
func (d *Domain) ParallelInverse(a []field.Element, workers int) {
	_ = d.ParallelInverseContext(context.Background(), a, workers)
}

// ParallelForwardContext computes the in-place NTT with worker
// goroutines, honouring ctx between butterfly passes exactly like
// ForwardContext (a cancellation lands within one O(N) pass). Output is
// bit-identical to ForwardContext.
func (d *Domain) ParallelForwardContext(ctx context.Context, a []field.Element, workers int) error {
	return d.parallelTransform(ctx, a, d.root, workers)
}

// ParallelInverseContext computes the in-place inverse NTT with worker
// goroutines, honouring ctx between butterfly passes. Output is
// bit-identical to InverseContext.
func (d *Domain) ParallelInverseContext(ctx context.Context, a []field.Element, workers int) error {
	if err := d.parallelTransform(ctx, a, d.rootInv, workers); err != nil {
		return err
	}
	f := d.F
	parallelRange(len(a), workers, func(lo, hi int) {
		tmp := f.NewElement()
		for i := lo; i < hi; i++ {
			f.Mul(tmp, a[i], d.nInv)
			a[i].Set(tmp)
		}
	})
	return nil
}

// ParallelCosetForwardContext evaluates the polynomial on the coset
// g·⟨ω⟩ using worker goroutines, honouring ctx between butterfly
// passes. Output is bit-identical to CosetForwardContext.
func (d *Domain) ParallelCosetForwardContext(ctx context.Context, a []field.Element, workers int) error {
	d.parallelShift(a, d.gen, workers)
	return d.parallelTransform(ctx, a, d.root, workers)
}

// ParallelCosetInverseContext interpolates from the coset g·⟨ω⟩ back to
// coefficients using worker goroutines, honouring ctx between butterfly
// passes. Output is bit-identical to CosetInverseContext.
func (d *Domain) ParallelCosetInverseContext(ctx context.Context, a []field.Element, workers int) error {
	if err := d.ParallelInverseContext(ctx, a, workers); err != nil {
		return err
	}
	d.parallelShift(a, d.genInv, workers)
	return nil
}

// parallelShift multiplies a[i] by g^i, sharding the range across
// workers (each shard seeds its own power g^lo, so the result is
// bit-identical to the serial shift).
func (d *Domain) parallelShift(a []field.Element, g field.Element, workers int) {
	f := d.F
	parallelRange(len(a), workers, func(lo, hi int) {
		pw := powElement(f, g, lo)
		tmp := f.NewElement()
		for i := lo; i < hi; i++ {
			f.Mul(tmp, a[i], pw)
			a[i].Set(tmp)
			f.Mul(tmp, pw, g)
			pw.Set(tmp)
		}
	})
}

func (d *Domain) parallelTransform(ctx context.Context, a []field.Element, omega field.Element, workers int) error {
	n := len(a)
	if n != d.N {
		panic("ntt: input length != domain size")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if n < 1024 || workers == 1 {
		return d.transform(ctx, a, omega)
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	f := d.F
	bitReverse(a) // cheap, serial
	for size := 2; size <= n; size <<= 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		half := size >> 1
		w := omega.Clone()
		tmp := f.NewElement()
		for m := n; m > size; m >>= 1 {
			f.Square(tmp, w)
			w.Set(tmp)
		}
		blocks := n / size
		if blocks >= workers {
			// Shard whole blocks.
			parallelRange(blocks, workers, func(lo, hi int) {
				t1, t2, tw, tm := f.NewElement(), f.NewElement(), f.NewElement(), f.NewElement()
				for blk := lo; blk < hi; blk++ {
					start := blk * size
					tw.Set(f.One())
					for k := start; k < start+half; k++ {
						f.Mul(t1, a[k+half], tw)
						f.Sub(t2, a[k], t1)
						f.Add(a[k], a[k], t1)
						a[k+half].Set(t2)
						f.Mul(tm, tw, w)
						tw.Set(tm)
					}
				}
			})
			continue
		}
		// Few large blocks: shard butterflies inside each block. Each
		// worker seeds its twiddle as w^lo.
		for start := 0; start < n; start += size {
			parallelRange(half, workers, func(lo, hi int) {
				t1, t2, tm := f.NewElement(), f.NewElement(), f.NewElement()
				tw := powElement(f, w, lo)
				for off := lo; off < hi; off++ {
					k := start + off
					f.Mul(t1, a[k+half], tw)
					f.Sub(t2, a[k], t1)
					f.Add(a[k], a[k], t1)
					a[k+half].Set(t2)
					f.Mul(tm, tw, w)
					tw.Set(tm)
				}
			})
		}
	}
	return nil
}

// powElement computes base^e for a small non-negative exponent.
func powElement(f *field.Field, base field.Element, e int) field.Element {
	acc := f.One()
	tmp := f.NewElement()
	b := base.Clone()
	for ; e > 0; e >>= 1 {
		if e&1 == 1 {
			f.Mul(tmp, acc, b)
			acc.Set(tmp)
		}
		f.Square(tmp, b)
		b.Set(tmp)
	}
	return acc
}

// parallelRange splits [0, n) across workers and waits for completion.
func parallelRange(n, workers int, fn func(lo, hi int)) {
	if workers <= 1 || n < 2*workers {
		fn(0, n)
		return
	}
	var wg sync.WaitGroup
	chunk := (n + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := w*chunk, (w+1)*chunk
		if hi > n {
			hi = n
		}
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
}
