package ntt

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"distmsm/internal/field"
)

// parallelMinN is the smallest domain whose passes are fanned out; below
// it a pass is too short to pay for the goroutines, and every width runs
// inline.
const parallelMinN = 1024

// ParallelForwardContext computes the in-place NTT with worker
// goroutines: at each butterfly level the independent blocks are sharded
// across workers (the host-side analogue of the GPU NTT's thread-parallel
// stages). workers <= 0 selects GOMAXPROCS; workers == 1 is
// ForwardContext. It honours ctx between butterfly passes (a
// cancellation lands within one O(N) pass), and its output does not
// depend on workers.
func (d *Domain) ParallelForwardContext(ctx context.Context, a []field.Element, workers int) error {
	return d.transform(ctx, a, d.root, d.width(workers))
}

// ParallelInverseContext computes the in-place inverse NTT with worker
// goroutines, honouring ctx between butterfly passes.
func (d *Domain) ParallelInverseContext(ctx context.Context, a []field.Element, workers int) error {
	workers = d.width(workers)
	if err := d.transform(ctx, a, d.rootInv, workers); err != nil {
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
// g·⟨ω⟩ using worker goroutines, honouring ctx between butterfly passes.
func (d *Domain) ParallelCosetForwardContext(ctx context.Context, a []field.Element, workers int) error {
	workers = d.width(workers)
	d.shift(a, d.gen, workers)
	return d.transform(ctx, a, d.root, workers)
}

// ParallelCosetInverseContext interpolates from the coset g·⟨ω⟩ back to
// coefficients using worker goroutines, honouring ctx between butterfly
// passes.
func (d *Domain) ParallelCosetInverseContext(ctx context.Context, a []field.Element, workers int) error {
	if err := d.ParallelInverseContext(ctx, a, workers); err != nil {
		return err
	}
	d.shift(a, d.genInv, d.width(workers))
	return nil
}

// width resolves a requested worker count: <= 0 selects GOMAXPROCS, and
// domains below parallelMinN run inline.
func (d *Domain) width(workers int) int {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if d.N < parallelMinN {
		return 1
	}
	return workers
}

// shift multiplies a[i] by g^i, sharding the range across workers (each
// shard seeds its own power g^lo).
func (d *Domain) shift(a []field.Element, g field.Element, workers int) {
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

// transform is the iterative radix-2 Cooley–Tukey NTT with the given
// primitive root, each butterfly pass fanned out across workers (1 runs
// it inline). The context is checked before the bit-reversal and between
// the log2(N) butterfly passes; a cancelled transform leaves the slice in
// an intermediate state the caller must discard.
func (d *Domain) transform(ctx context.Context, a []field.Element, omega field.Element, workers int) error {
	n := len(a)
	if n != d.N {
		panic(fmt.Sprintf("ntt: input length %d != domain size %d", n, d.N))
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	f := d.F
	bitReverse(a) // cheap, serial
	w, tmp := f.NewElement(), f.NewElement()
	for size := 2; size <= n; size <<= 1 {
		if err := ctx.Err(); err != nil {
			return err
		}
		half := size >> 1
		// w = ω^(N/size)
		w.Set(omega)
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
					f.SetOne(tw)
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

// parallelRange splits [0, n) across workers and waits for completion;
// one worker, or too little work to split, runs fn inline.
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
