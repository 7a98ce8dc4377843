package ntt

import (
	"context"
	"errors"
	"math/big"
	"math/rand"
	"testing"
	"time"

	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/gpusim"
)

func frField(t testing.TB) *field.Field {
	t.Helper()
	c, err := curve.ByName("BN254")
	if err != nil {
		t.Fatal(err)
	}
	return c.ScalarField
}

func randVec(f *field.Field, rnd *rand.Rand, n int) []field.Element {
	out := make([]field.Element, n)
	for i := range out {
		out[i] = f.Rand(rnd)
	}
	return out
}

func cloneVec(v []field.Element) []field.Element {
	out := make([]field.Element, len(v))
	for i := range v {
		out[i] = v[i].Clone()
	}
	return out
}

func TestNewDomainErrors(t *testing.T) {
	f := frField(t)
	if _, err := NewDomain(f, 3); err == nil {
		t.Error("non-power-of-two must fail")
	}
	if _, err := NewDomain(f, 1<<29); err == nil {
		t.Error("beyond 2-adicity must fail")
	}
	if _, err := NewDomain(f, 1); err != nil {
		t.Errorf("size-1 domain: %v", err)
	}
}

func TestForwardMatchesDirectEvaluation(t *testing.T) {
	f := frField(t)
	rnd := rand.New(rand.NewSource(1))
	d, err := NewDomain(f, 8)
	if err != nil {
		t.Fatal(err)
	}
	coeffs := randVec(f, rnd, 8)
	got := cloneVec(coeffs)
	mustForward(t, d, got)
	// Direct evaluation at ω^j.
	wj := f.One()
	tmp := f.NewElement()
	for j := 0; j < 8; j++ {
		want := EvaluatePoly(f, coeffs, wj)
		if !got[j].Equal(want) {
			t.Fatalf("NTT[%d] mismatch", j)
		}
		f.Mul(tmp, wj, d.root)
		wj.Set(tmp)
	}
}

func TestInverseRoundTrip(t *testing.T) {
	f := frField(t)
	rnd := rand.New(rand.NewSource(2))
	for _, n := range []int{1, 2, 4, 64, 256, 1024} {
		d, err := NewDomain(f, n)
		if err != nil {
			t.Fatal(err)
		}
		v := randVec(f, rnd, n)
		w := cloneVec(v)
		mustForward(t, d, w)
		mustInverse(t, d, w)
		for i := range v {
			if !w[i].Equal(v[i]) {
				t.Fatalf("n=%d: inverse round trip failed at %d", n, i)
			}
		}
		// Coset round trip too.
		mustCosetForward(t, d, w)
		mustCosetInverse(t, d, w)
		for i := range v {
			if !w[i].Equal(v[i]) {
				t.Fatalf("n=%d: coset round trip failed at %d", n, i)
			}
		}
	}
}

func TestNTTLinearity(t *testing.T) {
	f := frField(t)
	rnd := rand.New(rand.NewSource(3))
	d, _ := NewDomain(f, 128)
	a := randVec(f, rnd, 128)
	b := randVec(f, rnd, 128)
	sum := make([]field.Element, 128)
	for i := range sum {
		sum[i] = f.NewElement()
		f.Add(sum[i], a[i], b[i])
	}
	fa, fb, fsum := cloneVec(a), cloneVec(b), cloneVec(sum)
	mustForward(t, d, fa)
	mustForward(t, d, fb)
	mustForward(t, d, fsum)
	tmp := f.NewElement()
	for i := range fsum {
		f.Add(tmp, fa[i], fb[i])
		if !fsum[i].Equal(tmp) {
			t.Fatal("NTT not linear")
		}
	}
}

func TestMulPolysMatchesSchoolbook(t *testing.T) {
	f := frField(t)
	rnd := rand.New(rand.NewSource(4))
	d, _ := NewDomain(f, 64)
	a := randVec(f, rnd, 20)
	b := randVec(f, rnd, 30)
	got, err := d.MulPolys(a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]field.Element, 64)
	for i := range want {
		want[i] = f.NewElement()
	}
	tmp := f.NewElement()
	for i := range a {
		for j := range b {
			f.Mul(tmp, a[i], b[j])
			f.Add(want[i+j], want[i+j], tmp)
		}
	}
	for i := range want {
		if !got[i].Equal(want[i]) {
			t.Fatalf("MulPolys coefficient %d mismatch", i)
		}
	}
	if _, err := d.MulPolys(randVec(f, rnd, 65), b); err == nil {
		t.Error("oversized operand must fail")
	}
}

func TestCosetAvoidsSubgroup(t *testing.T) {
	f := frField(t)
	d, _ := NewDomain(f, 256)
	// g^N != 1 guaranteed by construction.
	gN := f.NewElement()
	f.Exp(gN, d.gen, big.NewInt(256))
	if gN.Equal(f.One()) {
		t.Fatal("coset shift lies in the subgroup")
	}
}

func BenchmarkNTT(b *testing.B) {
	f := frField(b)
	rnd := rand.New(rand.NewSource(5))
	for _, n := range []int{1 << 10, 1 << 14} {
		d, _ := NewDomain(f, n)
		v := randVec(f, rnd, n)
		b.Run(sizeName(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				mustForward(b, d, v)
			}
		})
	}
}

func sizeName(n int) string {
	k := 0
	for 1<<k < n {
		k++
	}
	return "2^" + string(rune('0'+k/10)) + string(rune('0'+k%10))
}

func TestParallelMatchesSerial(t *testing.T) {
	f := frField(t)
	rnd := rand.New(rand.NewSource(21))
	for _, n := range []int{64, 1024, 4096} {
		d, err := NewDomain(f, n)
		if err != nil {
			t.Fatal(err)
		}
		v := randVec(f, rnd, n)
		serial := cloneVec(v)
		parallel := cloneVec(v)
		mustForward(t, d, serial)
		for _, workers := range []int{1, 3, 8} {
			p := cloneVec(v)
			if err := d.ParallelForwardContext(context.Background(), p, workers); err != nil {
				t.Fatal(err)
			}
			for i := range p {
				if !p[i].Equal(serial[i]) {
					t.Fatalf("n=%d workers=%d: parallel forward mismatch at %d", n, workers, i)
				}
			}
		}
		if err := d.ParallelForwardContext(context.Background(), parallel, 4); err != nil {
			t.Fatal(err)
		}
		if err := d.ParallelInverseContext(context.Background(), parallel, 4); err != nil {
			t.Fatal(err)
		}
		for i := range v {
			if !parallel[i].Equal(v[i]) {
				t.Fatalf("n=%d: parallel round trip failed at %d", n, i)
			}
		}
	}
}

func BenchmarkNTTParallel(b *testing.B) {
	f := frField(b)
	rnd := rand.New(rand.NewSource(22))
	n := 1 << 14
	d, _ := NewDomain(f, n)
	v := randVec(f, rnd, n)
	b.Run("serial", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			mustForward(b, d, v)
		}
	})
	b.Run("parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := d.ParallelForwardContext(context.Background(), v, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func TestFourStepMatchesForward(t *testing.T) {
	f := frField(t)
	rnd := rand.New(rand.NewSource(41))
	for _, tc := range []struct{ n1, n2 int }{{4, 8}, {8, 8}, {16, 4}, {2, 32}} {
		n := tc.n1 * tc.n2
		d, err := NewDomain(f, n)
		if err != nil {
			t.Fatal(err)
		}
		v := randVec(f, rnd, n)
		want := cloneVec(v)
		mustForward(t, d, want)
		got, err := d.FourStep(v, tc.n1, tc.n2)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !got[i].Equal(want[i]) {
				t.Fatalf("%dx%d: four-step mismatch at %d", tc.n1, tc.n2, i)
			}
		}
	}
	// Bad splits rejected.
	d, _ := NewDomain(f, 16)
	if _, err := d.FourStep(randVec(f, rnd, 16), 3, 5); err == nil {
		t.Fatal("non-matching split accepted")
	}
	if _, err := d.FourStep(randVec(f, rnd, 8), 4, 4); err == nil {
		t.Fatal("short input accepted")
	}
}

func TestMultiGPUNTTScaling(t *testing.T) {
	// The paper's future-work projection: the distributed NTT scales with
	// GPU count until the all-to-all transpose dominates.
	n := 1 << 24
	var prev float64
	for i, g := range []int{1, 2, 4, 8} {
		cl, err := gpusim.NewCluster(gpusim.A100(), g)
		if err != nil {
			t.Fatal(err)
		}
		sec := MultiGPUNTTSeconds(cl, n, 254)
		if sec <= 0 {
			t.Fatal("non-positive NTT time")
		}
		if i > 0 && sec >= prev {
			t.Errorf("no NTT speedup at %d GPUs (%.4g -> %.4g)", g, prev, sec)
		}
		prev = sec
	}
	// Communication eventually bounds the speedup below linear.
	cl1, _ := gpusim.NewCluster(gpusim.A100(), 1)
	cl32, _ := gpusim.NewCluster(gpusim.A100(), 32)
	sp := MultiGPUNTTSeconds(cl1, n, 254) / MultiGPUNTTSeconds(cl32, n, 254)
	if sp >= 32 {
		t.Errorf("32-GPU NTT speedup %.1fx should be sub-linear (transpose-bound)", sp)
	}
}

// TestContextTransformsMatchAndCancel: on a live context every
// *Context transform is undone bit-for-bit by its partner, and an
// already-dead context aborts every variant with its error before (or
// between) butterfly passes, leaving no panic behind.
func TestContextTransformsMatchAndCancel(t *testing.T) {
	f := frField(t)
	rnd := rand.New(rand.NewSource(77))
	d, err := NewDomain(f, 256)
	if err != nil {
		t.Fatal(err)
	}
	orig := randVec(f, rnd, 256)

	variants := []struct {
		name      string
		ctx, undo func(ctx context.Context, a []field.Element) error
	}{
		{"forward", d.ForwardContext, d.InverseContext},
		{"inverse", d.InverseContext, d.ForwardContext},
		{"coset-forward", d.CosetForwardContext, d.CosetInverseContext},
		{"coset-inverse", d.CosetInverseContext, d.CosetForwardContext},
	}
	for _, v := range variants {
		got := cloneVec(orig)
		if err := v.ctx(context.Background(), got); err != nil {
			t.Fatalf("%s: live context errored: %v", v.name, err)
		}
		if err := v.undo(context.Background(), got); err != nil {
			t.Fatalf("%s: live context errored on the way back: %v", v.name, err)
		}
		for i := range orig {
			if !orig[i].Equal(got[i]) {
				t.Fatalf("%s: round trip diverged at %d", v.name, i)
			}
		}

		cancelled, cancel := context.WithCancel(context.Background())
		cancel()
		if err := v.ctx(cancelled, cloneVec(orig)); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: want context.Canceled, got %v", v.name, err)
		}
		expired, cancel2 := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
		defer cancel2()
		if err := v.ctx(expired, cloneVec(orig)); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("%s: want context.DeadlineExceeded, got %v", v.name, err)
		}
	}
}

// The must* helpers run the *Context transforms on a background
// context, which never cancels, so any returned error is fatal.
func mustForward(tb testing.TB, d *Domain, a []field.Element) {
	tb.Helper()
	if err := d.ForwardContext(context.Background(), a); err != nil {
		tb.Fatal(err)
	}
}

func mustInverse(tb testing.TB, d *Domain, a []field.Element) {
	tb.Helper()
	if err := d.InverseContext(context.Background(), a); err != nil {
		tb.Fatal(err)
	}
}

func mustCosetForward(tb testing.TB, d *Domain, a []field.Element) {
	tb.Helper()
	if err := d.CosetForwardContext(context.Background(), a); err != nil {
		tb.Fatal(err)
	}
}

func mustCosetInverse(tb testing.TB, d *Domain, a []field.Element) {
	tb.Helper()
	if err := d.CosetInverseContext(context.Background(), a); err != nil {
		tb.Fatal(err)
	}
}
