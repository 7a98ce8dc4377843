package bigint

import (
	"math/big"
	"math/rand"
	"testing"
)

// unrolledModuli are the qualifying 4- and 6-limb moduli: the curve
// fields plus adversarial odd moduli near the width boundaries.
var unrolledModuli = []string{
	// BN254 Fp (4 limbs)
	"21888242871839275222246405745257275088696311157297823662689037894645226208583",
	// BN254 Fr (4 limbs)
	"21888242871839275222246405745257275088548364400416034343698204186575808495617",
	// BLS12-381 Fp (6 limbs)
	"4002409555221667393417789825735904156556882819939007885332058136124031650490837864442687629129015664037894272559787",
	// BLS12-381 Fr (4 limbs)
	"52435875175126190479447740508185965837690552500527637822603658699938581184513",
}

func TestBackendSelection(t *testing.T) {
	for i, dec := range unrolledModuli {
		m, _ := montCtx(t, dec)
		want := "unrolled4"
		if m.Width() == 6 {
			want = "unrolled6"
		}
		if got := m.Backend(); got != want {
			t.Errorf("modulus %d: backend %q, want %q", i, got, want)
		}
	}
	// A modulus with the top limb ≥ 2^63-1 must stay on the generic path.
	n := new(big.Int).Lsh(big.NewInt(1), 256)
	n.Sub(n, big.NewInt(189)) // 2^256-189 is odd with a saturated top limb
	m, err := NewMontgomery(n)
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Backend(); got != "generic" {
		t.Errorf("saturated 4-limb modulus selected %q, want generic", got)
	}
	// The 12-limb test modulus is out of unrolled range.
	m, _ = montCtx(t, testModuli[4])
	if got := m.Backend(); got != "generic" {
		t.Errorf("12-limb modulus selected %q, want generic", got)
	}
}

// edgeValues returns the boundary operands of the differential tests:
// 0, 1, p-1, R-1 mod p, R mod p, and p-small.
func edgeValues(n *big.Int, w int) []Nat {
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*w))
	vals := []*big.Int{
		big.NewInt(0),
		big.NewInt(1),
		new(big.Int).Sub(n, big.NewInt(1)),
		new(big.Int).Mod(new(big.Int).Sub(r, big.NewInt(1)), n),
		new(big.Int).Mod(r, n),
		new(big.Int).Sub(n, big.NewInt(2)),
	}
	out := make([]Nat, len(vals))
	for i, v := range vals {
		out[i] = FromBig(v, w)
	}
	return out
}

// TestUnrolledMatchesGeneric cross-checks the dispatched unrolled
// kernels against the generic CIOS/SOS reference and math/big on random
// operands and the edge values.
func TestUnrolledMatchesGeneric(t *testing.T) {
	rnd := rand.New(rand.NewSource(77))
	for _, dec := range unrolledModuli {
		m, n := montCtx(t, dec)
		w := m.Width()
		rInv := new(big.Int).Lsh(big.NewInt(1), uint(64*w))
		rInv.ModInverse(rInv, n)

		operands := edgeValues(n, w)
		for i := 0; i < 200; i++ {
			operands = append(operands, randResidue(rnd, n, w))
		}
		check := func(x, y Nat) {
			t.Helper()
			fast, ref := New(w), New(w)
			m.Mul(fast, x, y)
			m.MulCIOS(ref, x, y)
			if !fast.Equal(ref) {
				t.Fatalf("mod %s: unrolled mul %v*%v = %v, CIOS %v", n, x, y, fast, ref)
			}
			want := new(big.Int).Mul(x.ToBig(), y.ToBig())
			want.Mul(want, rInv).Mod(want, n)
			if fast.ToBig().Cmp(want) != 0 {
				t.Fatalf("mod %s: unrolled mul disagrees with math/big", n)
			}
			sq, sqRef := New(w), New(w)
			m.Square(sq, x)
			m.SquareSOS(sqRef, x)
			if !sq.Equal(sqRef) {
				t.Fatalf("mod %s: unrolled square != SquareSOS for %v", n, x)
			}
			sum, sumRef := New(w), New(w)
			m.AddMod(sum, x, y)
			m.addModGeneric(sumRef, x, y)
			if !sum.Equal(sumRef) {
				t.Fatalf("mod %s: unrolled add != generic for %v+%v", n, x, y)
			}
			diff, diffRef := New(w), New(w)
			m.SubMod(diff, x, y)
			m.subModGeneric(diffRef, x, y)
			if !diff.Equal(diffRef) {
				t.Fatalf("mod %s: unrolled sub != generic for %v-%v", n, x, y)
			}
		}
		// Every edge pair, plus random pairs.
		edges := edgeValues(n, w)
		for _, x := range edges {
			for _, y := range edges {
				check(x, y)
			}
		}
		for i := 0; i+1 < len(operands); i += 2 {
			check(operands[i], operands[i+1])
		}
	}
}

// TestAddParity holds add4/add6 to math/big: every pair of edge values
// (0, 1, n−1, …), pairs whose raw sum is n−1, n or n+1 (the reduction
// select's boundary), and random pairs.
func TestAddParity(t *testing.T) {
	rnd := rand.New(rand.NewSource(81))
	for _, dec := range unrolledModuli {
		m, n := montCtx(t, dec)
		w := m.Width()
		nl := FromBig(n, w)
		add := func(z, x, y Nat) {
			if w == 4 {
				add4((*[4]uint64)(z), (*[4]uint64)(x), (*[4]uint64)(y), (*[4]uint64)(nl))
			} else {
				add6((*[6]uint64)(z), (*[6]uint64)(x), (*[6]uint64)(y), (*[6]uint64)(nl))
			}
		}
		check := func(x, y Nat) {
			t.Helper()
			z := New(w)
			add(z, x, y)
			want := new(big.Int).Add(x.ToBig(), y.ToBig())
			want.Mod(want, n)
			if z.ToBig().Cmp(want) != 0 {
				t.Fatalf("mod %s: add(%v, %v) = %v, want %v", n, x, y, z.ToBig(), want)
			}
		}
		edges := edgeValues(n, w)
		for _, x := range edges {
			for _, y := range edges {
				check(x, y)
			}
		}
		for i := 0; i < 2000; i++ {
			x := randResidue(rnd, n, w)
			check(x, randResidue(rnd, n, w))
			if x.ToBig().Sign() == 0 {
				continue
			}
			// y = n − x − 1, n − x and n − x + 1 (the last two reduced mod n).
			for _, d := range []int64{-1, 0, 1} {
				y := new(big.Int).Sub(n, x.ToBig())
				y.Add(y, big.NewInt(d)).Mod(y, n)
				check(x, FromBig(y, w))
			}
		}
	}
}

// TestUnrolledAliasing verifies z aliasing x and/or y is safe.
func TestUnrolledAliasing(t *testing.T) {
	rnd := rand.New(rand.NewSource(78))
	for _, dec := range unrolledModuli {
		m, n := montCtx(t, dec)
		w := m.Width()
		x := randResidue(rnd, n, w)
		y := randResidue(rnd, n, w)

		want := New(w)
		m.Mul(want, x, y)
		xa := x.Clone()
		m.Mul(xa, xa, y)
		if !xa.Equal(want) {
			t.Fatalf("mod %s: mul with z==x wrong", n)
		}
		ya := y.Clone()
		m.Mul(ya, x, ya)
		if !ya.Equal(want) {
			t.Fatalf("mod %s: mul with z==y wrong", n)
		}

		m.Square(want, x)
		xa = x.Clone()
		m.Square(xa, xa)
		if !xa.Equal(want) {
			t.Fatalf("mod %s: square with z==x wrong", n)
		}

		m.Mul(want, x, x)
		xa = x.Clone()
		m.Mul(xa, xa, xa)
		if !xa.Equal(want) {
			t.Fatalf("mod %s: mul with z==x==y wrong", n)
		}
	}
}

// fuzzOperand reduces raw fuzz bytes into a residue mod n.
func fuzzOperand(data []byte, n *big.Int, w int) Nat {
	v := new(big.Int).SetBytes(data)
	v.Mod(v, n)
	return FromBig(v, w)
}

// FuzzMul4Parity differentially fuzzes the 4-limb unrolled kernels
// against generic CIOS and math/big over the BN254 base field.
func FuzzMul4Parity(f *testing.F) {
	n, _ := new(big.Int).SetString(unrolledModuli[0], 10)
	m, err := NewMontgomery(n)
	if err != nil {
		f.Fatal(err)
	}
	seedParityCorpus(f, n)
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		fuzzParity(t, m, n, xb, yb)
	})
}

// FuzzMul6Parity is the 6-limb analogue over the BLS12-381 base field.
func FuzzMul6Parity(f *testing.F) {
	n, _ := new(big.Int).SetString(unrolledModuli[2], 10)
	m, err := NewMontgomery(n)
	if err != nil {
		f.Fatal(err)
	}
	seedParityCorpus(f, n)
	f.Fuzz(func(t *testing.T, xb, yb []byte) {
		fuzzParity(t, m, n, xb, yb)
	})
}

func seedParityCorpus(f *testing.F, n *big.Int) {
	r := new(big.Int).Lsh(big.NewInt(1), uint(64*((n.BitLen()+63)/64)))
	seeds := [][]byte{
		{},
		{0},
		{1},
		new(big.Int).Sub(n, big.NewInt(1)).Bytes(),
		new(big.Int).Sub(r, big.NewInt(1)).Bytes(),
		n.Bytes(),
	}
	for _, x := range seeds {
		for _, y := range seeds {
			f.Add(x, y)
		}
	}
}

func fuzzParity(t *testing.T, m *Montgomery, n *big.Int, xb, yb []byte) {
	w := m.Width()
	x := fuzzOperand(xb, n, w)
	y := fuzzOperand(yb, n, w)

	fast, ref := New(w), New(w)
	m.Mul(fast, x, y)
	m.MulCIOS(ref, x, y)
	if !fast.Equal(ref) {
		t.Fatalf("unrolled mul != CIOS: %v * %v", x, y)
	}
	rInv := new(big.Int).Lsh(big.NewInt(1), uint(64*w))
	rInv.ModInverse(rInv, n)
	want := new(big.Int).Mul(x.ToBig(), y.ToBig())
	want.Mul(want, rInv).Mod(want, n)
	if fast.ToBig().Cmp(want) != 0 {
		t.Fatalf("unrolled mul != math/big: %v * %v", x, y)
	}

	sq, sqRef := New(w), New(w)
	m.Square(sq, x)
	m.SquareSOS(sqRef, x)
	if !sq.Equal(sqRef) {
		t.Fatalf("unrolled square != SquareSOS: %v", x)
	}

	sum, sumRef := New(w), New(w)
	m.AddMod(sum, x, y)
	m.addModGeneric(sumRef, x, y)
	if !sum.Equal(sumRef) {
		t.Fatalf("unrolled add != generic: %v + %v", x, y)
	}
	diff, diffRef := New(w), New(w)
	m.SubMod(diff, x, y)
	m.subModGeneric(diffRef, x, y)
	if !diff.Equal(diffRef) {
		t.Fatalf("unrolled sub != generic: %v - %v", x, y)
	}
}

// BenchmarkUnrolled measures the dispatched fast path against the
// generic reference at both widths.
func BenchmarkUnrolled(b *testing.B) {
	rnd := rand.New(rand.NewSource(79))
	for _, tc := range []struct {
		name string
		mod  string
	}{
		{"4limb", unrolledModuli[0]},
		{"6limb", unrolledModuli[2]},
	} {
		m, n := montCtx(b, tc.mod)
		w := m.Width()
		x := randResidue(rnd, n, w)
		y := randResidue(rnd, n, w)
		z := New(w)
		b.Run(tc.name+"/Mul", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Mul(z, x, y)
			}
		})
		b.Run(tc.name+"/Square", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Square(z, x)
			}
		})
		b.Run(tc.name+"/AddMod", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.AddMod(z, x, y)
			}
		})
		b.Run(tc.name+"/MulCIOSGeneric", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.MulCIOS(z, x, y)
			}
		})
		b.Run(tc.name+"/SquareSOSGeneric", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.SquareSOS(z, x)
			}
		})
	}
}
