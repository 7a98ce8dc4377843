package field

import (
	"math/big"
	"testing"
)

// FuzzInvParity differentially fuzzes the binary-GCD Inv against its
// Fermat oracle Exp(x, p−2) on the BN254 base and scalar fields and the
// BLS12-381 base field, seeded with 0, 1 and p−1 of each.
func FuzzInvParity(f *testing.F) {
	names := []string{"bn254-fp", "bn254-fr", "bls381-fp"}
	fields := make([]*Field, len(names))
	for i, name := range names {
		fields[i] = mustField(f, name)
		f.Add(new(big.Int).Sub(fields[i].Modulus, big.NewInt(1)).Bytes())
	}
	f.Add([]byte{0})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, data []byte) {
		v := new(big.Int).SetBytes(data)
		for _, fl := range fields {
			x := fl.FromBig(v)
			got, want := fl.NewElement(), fl.NewElement()
			fl.Inv(got, x)
			fl.Exp(want, x, new(big.Int).Sub(fl.Modulus, big.NewInt(2)))
			if !got.Equal(want) {
				t.Fatalf("%s: Inv(%v) = %v, Exp(p-2) = %v", fl.Name, fl.ToBig(x), fl.ToBig(got), fl.ToBig(want))
			}
			fl.Inv(x, x) // aliased form
			if !x.Equal(want) {
				t.Fatalf("%s: aliased Inv disagrees", fl.Name)
			}
		}
	})
}
