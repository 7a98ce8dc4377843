package cluster

import (
	"bytes"
	"context"
	"testing"

	"distmsm/internal/outsource"
)

// TestMSMLocalFallbackMatchesReference: the degrade path evaluates with
// the CPU Pippenger, not the double-and-add reference, and must still
// marshal to the reference's bytes — on BLS12-381 too, whose sampled
// bases lie outside the prime-order subgroup.
func TestMSMLocalFallbackMatchesReference(t *testing.T) {
	for _, name := range []string{"BN254", "BLS12-381"} {
		c := newTestCoordinator(t, Config{MSMRandom: outsource.NewSeededReader(9)}, map[string]WorkerClient{})
		req := MSMRequest{Curve: name, PointSeed: 43, ScalarSeed: 44, N: 130}
		got, err := c.MSM(context.Background(), req)
		if err != nil {
			t.Fatalf("%s: MSM: %v", name, err)
		}
		if want := msmReferenceBytes(t, req); !bytes.Equal(got, want) {
			t.Fatalf("%s: local fallback bytes differ from the reference", name)
		}
		if st := c.Stats(); st.LocalFallbacks != 1 || st.MSMChecks != 0 {
			t.Fatalf("%s: fallbacks=%d checks=%d, want 1/0", name, st.LocalFallbacks, st.MSMChecks)
		}
	}
}
