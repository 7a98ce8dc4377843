package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// refBucketRef encodes digit d of point idx as (bucket, signed
// reference); it returns bucket -1 for zero digits (skipped).
func refBucketRef(idx int, d int32) (int, int32) {
	if d == 0 {
		return -1, 0
	}
	ref := int32(idx + 1)
	if d < 0 {
		return int(-d), -ref
	}
	return int(d), ref
}

// refNaiveScatter is the append-per-reference naive scatter, kept as the
// oracle of the flat counting-sort body.
func refNaiveScatter(digits []int32, nBuckets int) (*ScatterResult, error) {
	if nBuckets < 2 {
		return nil, fmt.Errorf("core: scatter needs at least 2 buckets, got %d", nBuckets)
	}
	res := &ScatterResult{Buckets: make([][]int32, nBuckets)}
	for i, d := range digits {
		b, ref := refBucketRef(i, d)
		if b < 0 {
			continue
		}
		if b >= nBuckets {
			return nil, fmt.Errorf("core: digit %d out of bucket range %d", d, nBuckets)
		}
		res.Buckets[b] = append(res.Buckets[b], ref)
		res.Stats.GlobalAtomics++
	}
	return res, nil
}

// refHierarchicalScatter is Algorithm 3 played block by block: count
// into shared counters, place into per-bucket local lists, then commit
// each non-empty local bucket with one global atomic.
func refHierarchicalScatter(digits []int32, nBuckets int, block BlockConfig) (*ScatterResult, error) {
	if nBuckets < 2 {
		return nil, fmt.Errorf("core: scatter needs at least 2 buckets, got %d", nBuckets)
	}
	if block.Threads <= 0 || block.K <= 0 {
		return nil, fmt.Errorf("core: invalid block config %+v", block)
	}
	res := &ScatterResult{Buckets: make([][]int32, nBuckets)}
	per := block.PointsPerBlock()
	localRefs := make([][]int32, nBuckets)
	for lo := 0; lo < len(digits); lo += per {
		hi := min(lo+per, len(digits))
		res.Stats.Passes++
		for i := lo; i < hi; i++ {
			b, _ := refBucketRef(i, digits[i])
			if b < 0 {
				continue
			}
			if b >= nBuckets {
				return nil, fmt.Errorf("core: digit %d out of bucket range %d", digits[i], nBuckets)
			}
			res.Stats.SharedAtomics++
		}
		for i := range localRefs {
			localRefs[i] = localRefs[i][:0]
		}
		for i := lo; i < hi; i++ {
			b, ref := refBucketRef(i, digits[i])
			if b < 0 {
				continue
			}
			localRefs[b] = append(localRefs[b], ref)
			res.Stats.SharedAtomics++
		}
		for b, refs := range localRefs {
			if len(refs) == 0 {
				continue
			}
			res.Stats.GlobalAtomics++
			res.Buckets[b] = append(res.Buckets[b], refs...)
		}
	}
	return res, nil
}

// TestScatterMatchesReference holds the flat counting-sort scatter to
// the append-based reference scatters: identical bucket lists in
// identical order and identical ScatterStats, for random signed digits
// at every window size 2…16, point counts that are not multiples of the
// block, and an all-zero window.
func TestScatterMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(45))
	block := BlockConfig{Threads: 32, K: 4} // 128 points per pass
	for s := 2; s <= 16; s++ {
		nBuckets := 1<<(s-1) + 1
		for _, n := range []int{0, 1, 127, 129, 1000} {
			digits := make([]int32, n)
			for i := range digits {
				if rng.Intn(5) > 0 { // a fifth stay zero
					digits[i] = int32(rng.Intn(2*nBuckets-1) - (nBuckets - 1))
				}
			}
			zeros := make([]int32, n)
			for _, in := range []struct {
				name   string
				digits []int32
			}{{"random", digits}, {"zero", zeros}} {
				name := fmt.Sprintf("s=%d/n=%d/%s", s, n, in.name)
				check := func(kind string, got, want *ScatterResult, gotErr, wantErr error) {
					t.Helper()
					if gotErr != nil || wantErr != nil {
						t.Fatalf("%s %s: errors %v / %v", name, kind, gotErr, wantErr)
					}
					if got.Stats != want.Stats {
						t.Errorf("%s %s: stats %+v, want %+v", name, kind, got.Stats, want.Stats)
					}
					if !reflect.DeepEqual(got.Buckets, want.Buckets) {
						t.Errorf("%s %s: bucket lists differ from the reference", name, kind)
					}
				}
				got, gotErr := NaiveScatter(in.digits, nBuckets)
				want, wantErr := refNaiveScatter(in.digits, nBuckets)
				check("naive", got, want, gotErr, wantErr)
				got, gotErr = HierarchicalScatter(in.digits, nBuckets, block)
				want, wantErr = refHierarchicalScatter(in.digits, nBuckets, block)
				check("hierarchical", got, want, gotErr, wantErr)
			}
		}
	}
}
