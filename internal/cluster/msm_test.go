package cluster

import (
	"bytes"
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"distmsm/internal/curve"
	"distmsm/internal/outsource"
	"distmsm/internal/serial"
)

// msmTestClient is an MSM-capable worker fake: it evaluates shards
// exactly like the service's /v1/msm handler (derive bases from the
// seed, MSMReference over the explicit scalars), optionally lying by
// returning claim+G — a valid wrong point only the outsourced check can
// catch.
type msmTestClient struct {
	lie        bool
	junk       bool
	dispatches atomic.Int64

	mu   sync.Mutex
	seen []MSMDispatchRequest
}

func (c *msmTestClient) Dispatch(ctx context.Context, req DispatchRequest) ([]byte, error) {
	return nil, errors.New("msm test client does not prove")
}

func (c *msmTestClient) DispatchMSM(ctx context.Context, req MSMDispatchRequest) ([]byte, error) {
	c.dispatches.Add(1)
	c.mu.Lock()
	c.seen = append(c.seen, req)
	c.mu.Unlock()
	if c.junk {
		return []byte("not a curve point"), nil
	}
	crv, err := curve.ByName(req.Curve)
	if err != nil {
		return nil, err
	}
	scalars, err := req.DecodeScalars()
	if err != nil {
		return nil, err
	}
	points := crv.SamplePoints(req.RangeHi, req.PointSeed)[req.RangeLo:req.RangeHi]
	sum := crv.MSMReference(points, scalars)
	if c.lie {
		crv.NewAdder().Acc(sum, &crv.Gen)
	}
	aff := crv.ToAffine(sum)
	return serial.MarshalPoint(crv, &aff, false), nil
}

// msmFuncClient adapts a function to an MSM-capable WorkerClient for
// unit tests; it proves nothing.
type msmFuncClient func(ctx context.Context, req MSMDispatchRequest) ([]byte, error)

func (f msmFuncClient) Dispatch(ctx context.Context, req DispatchRequest) ([]byte, error) {
	return nil, errors.New("msm test client does not prove")
}

func (f msmFuncClient) DispatchMSM(ctx context.Context, req MSMDispatchRequest) ([]byte, error) {
	return f(ctx, req)
}

// msmReferenceBytes is what a fault-free serial evaluation of the whole
// instance marshals to — the byte-identity oracle of every MSM test.
func msmReferenceBytes(t *testing.T, req MSMRequest) []byte {
	t.Helper()
	crv, err := curve.ByName(req.Curve)
	if err != nil {
		t.Fatalf("curve %q: %v", req.Curve, err)
	}
	points := crv.SamplePoints(req.N, req.PointSeed)
	scalars := crv.SampleScalars(req.N, req.ScalarSeed)
	sum := crv.MSMReference(points, scalars)
	aff := crv.ToAffine(sum)
	return serial.MarshalPoint(crv, &aff, false)
}

// TestMSMHonestFleet: an honest fleet returns bytes identical to the
// serial reference, every shard passes exactly one constant-size check,
// and each shard's real and challenge instances land on distinct nodes.
func TestMSMHonestFleet(t *testing.T) {
	clients := map[string]WorkerClient{}
	fakes := map[string]*msmTestClient{}
	for _, id := range []string{"n1", "n2", "n3"} {
		f := &msmTestClient{}
		fakes[id] = f
		clients[id] = f
	}
	c := newTestCoordinator(t, Config{MSMRandom: outsource.NewSeededReader(7)}, clients)
	for id := range clients {
		mustRegister(t, c, id)
	}

	req := MSMRequest{Curve: "BN254", PointSeed: 11, ScalarSeed: 12, N: 200}
	got, err := c.MSM(context.Background(), req)
	if err != nil {
		t.Fatalf("MSM: %v", err)
	}
	if want := msmReferenceBytes(t, req); !bytes.Equal(got, want) {
		t.Fatalf("MSM result diverges from the serial reference")
	}

	st := c.Stats()
	if st.MSMChecks != 3 { // one per shard: three MSM-capable nodes → three shards
		t.Fatalf("MSMChecks = %d, want 3", st.MSMChecks)
	}
	if st.MSMRejects != 0 || st.CorruptProofs != 0 {
		t.Fatalf("honest fleet charged: rejects=%d corrupt=%d", st.MSMRejects, st.CorruptProofs)
	}

	// Each shard range must appear exactly twice (real + challenge), on
	// two distinct nodes, under identical frames apart from the blob.
	type shardKey struct{ lo, hi int }
	owners := map[shardKey][]string{}
	for id, f := range fakes {
		f.mu.Lock()
		for _, r := range f.seen {
			if r.Curve != req.Curve || r.PointSeed != req.PointSeed {
				t.Errorf("node %s saw frame for wrong instance: %+v", id, r)
			}
			owners[shardKey{r.RangeLo, r.RangeHi}] = append(owners[shardKey{r.RangeLo, r.RangeHi}], id)
		}
		f.mu.Unlock()
	}
	if len(owners) != 3 {
		t.Fatalf("saw %d shard ranges, want 3", len(owners))
	}
	for k, ids := range owners {
		if len(ids) != 2 {
			t.Fatalf("shard [%d,%d) dispatched %d times, want 2", k.lo, k.hi, len(ids))
		}
		if ids[0] == ids[1] {
			t.Errorf("shard [%d,%d): real and challenge both went to %s despite idle nodes", k.lo, k.hi, ids[0])
		}
	}
}

// TestMSMLyingNodeCharged: a node that returns valid-but-wrong points
// (claim + G) is caught by the constant-size check, charged on its
// breaker like a corrupt proof, excluded, and the final result is still
// byte-identical to the reference.
func TestMSMLyingNodeCharged(t *testing.T) {
	liar := &msmTestClient{lie: true}
	good1, good2 := &msmTestClient{}, &msmTestClient{}
	c := newTestCoordinator(t, Config{MSMRandom: outsource.NewSeededReader(3)}, map[string]WorkerClient{
		"bad": liar, "good1": good1, "good2": good2,
	})
	for _, id := range []string{"bad", "good1", "good2"} {
		mustRegister(t, c, id)
	}

	req := MSMRequest{Curve: "BN254", PointSeed: 21, ScalarSeed: 22, N: 150}
	got, err := c.MSM(context.Background(), req)
	if err != nil {
		t.Fatalf("MSM: %v", err)
	}
	if want := msmReferenceBytes(t, req); !bytes.Equal(got, want) {
		t.Fatalf("MSM result diverges from the serial reference despite rejection")
	}

	st := c.Stats()
	if liar.dispatches.Load() == 0 {
		t.Fatalf("liar never dispatched to — the test asserted nothing")
	}
	if st.MSMRejects == 0 {
		t.Fatalf("no check rejected although a lying node took shards")
	}
	if st.CorruptProofs == 0 {
		t.Fatalf("CorruptProofs = 0, want the liar charged")
	}
	charged := false
	for _, n := range c.Snapshot() {
		switch n.ID {
		case "bad":
			charged = n.Failures > 0
		case "good1", "good2":
			if n.Failures != 0 {
				t.Errorf("honest node %s charged %d failures", n.ID, n.Failures)
			}
		}
	}
	if !charged {
		t.Fatalf("lying node's breaker was not charged")
	}
}

// TestMSMJunkResponseCharged: a node answering bytes that do not decode
// to a curve point is charged at decode time — the outsourced check
// never even runs for it — and the job still completes correctly.
func TestMSMJunkResponseCharged(t *testing.T) {
	junk := &msmTestClient{junk: true}
	good := &msmTestClient{}
	c := newTestCoordinator(t, Config{MSMRandom: outsource.NewSeededReader(5)}, map[string]WorkerClient{
		"junk": junk, "good": good,
	})
	mustRegister(t, c, "junk")
	mustRegister(t, c, "good")

	req := MSMRequest{Curve: "BLS12-381", PointSeed: 31, ScalarSeed: 32, N: 64}
	got, err := c.MSM(context.Background(), req)
	if err != nil {
		t.Fatalf("MSM: %v", err)
	}
	if want := msmReferenceBytes(t, req); !bytes.Equal(got, want) {
		t.Fatalf("MSM result diverges from the serial reference")
	}
	if st := c.Stats(); st.CorruptProofs == 0 {
		t.Fatalf("junk responder was never charged")
	}
}

// TestMSMDegradesLocal: with no MSM-capable node (a fleet of plain
// provers), the coordinator evaluates locally — no checks, one fallback
// per shard, correct bytes.
func TestMSMDegradesLocal(t *testing.T) {
	c := newTestCoordinator(t, Config{MSMRandom: outsource.NewSeededReader(9)}, map[string]WorkerClient{
		"prover": proofClient([]byte("p1")), // WorkerClient only: no MSM surface
	})
	mustRegister(t, c, "prover")

	req := MSMRequest{Curve: "BN254", PointSeed: 41, ScalarSeed: 42, N: 50}
	got, err := c.MSM(context.Background(), req)
	if err != nil {
		t.Fatalf("MSM: %v", err)
	}
	if want := msmReferenceBytes(t, req); !bytes.Equal(got, want) {
		t.Fatalf("local degrade diverges from the serial reference")
	}
	st := c.Stats()
	if st.LocalFallbacks == 0 {
		t.Fatalf("LocalFallbacks = 0, want the degrade path taken")
	}
	if st.MSMChecks != 0 {
		t.Fatalf("MSMChecks = %d on the local path, want 0", st.MSMChecks)
	}
}

// TestMSMAbandonedProbeReleasesSlot is the MSM twin of
// TestHedgeLoserReleasesProbeSlot: a half-open node whose shard halves
// are abandoned by the job's own cancellation must give its probe slot
// back, so a later job can probe the node and re-close its breaker
// instead of degrading to local for good.
func TestMSMAbandonedProbeReleasesSlot(t *testing.T) {
	const (
		aFail = iota // answer immediately with an error
		aHang        // block until the dispatch context dies
		aOK          // answer honestly
	)
	var mode atomic.Int32
	var hung atomic.Int64
	honest := &msmTestClient{}
	cooldown := 50 * time.Millisecond
	c := newTestCoordinator(t, Config{
		Breaker:   BreakerConfig{FailThreshold: 1, Cooldown: cooldown},
		MSMRandom: outsource.NewSeededReader(8),
	}, map[string]WorkerClient{
		"a": msmFuncClient(func(ctx context.Context, req MSMDispatchRequest) ([]byte, error) {
			switch mode.Load() {
			case aFail:
				return nil, errors.New("injected dispatch failure")
			case aHang:
				hung.Add(1)
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return honest.DispatchMSM(ctx, req)
		}),
	})
	mustRegister(t, c, "a")
	req := MSMRequest{Curve: "BN254", PointSeed: 71, ScalarSeed: 72, N: 40, Timeout: 10 * time.Second}
	want := msmReferenceBytes(t, req)

	// A failure trips a's breaker open; the shard degrades to local.
	if got, err := c.MSM(context.Background(), req); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("trip job: err %v, bytes equal %v", err, bytes.Equal(got, want))
	}
	if snap := c.Snapshot(); snap[0].BreakerS != "open" {
		t.Fatalf("node a breaker %q, want open", snap[0].BreakerS)
	}

	// Past the cooldown a is offered a half-open probe (the real half;
	// the challenge half shares the node). Both halves hang, and the job
	// is cancelled while they are out.
	time.Sleep(cooldown + 20*time.Millisecond)
	mode.Store(aHang)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.MSM(ctx, req)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for hung.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the probe job's halves never reached node a")
		}
		time.Sleep(2 * time.Millisecond)
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled probe job = %v, want context.Canceled", err)
	}
	for c.Snapshot()[0].InFlight != 0 {
		if time.Now().After(deadline) {
			t.Fatal("the abandoned halves never unwound")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The abandoned probe must have given its slot back: the next job
	// probes a again, and the now-honest node re-closes its breaker.
	mode.Store(aOK)
	fallbacks := c.Stats().LocalFallbacks
	if got, err := c.MSM(context.Background(), req); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("re-probe job: err %v, bytes equal %v", err, bytes.Equal(got, want))
	}
	if st := c.Stats(); st.LocalFallbacks != fallbacks {
		t.Fatalf("re-probe job degraded to local (probe slot leaked?)")
	}
	if snap := c.Snapshot(); snap[0].BreakerS != "closed" {
		t.Fatalf("node a breaker %q after a successful re-probe, want closed", snap[0].BreakerS)
	}
}

// TestMSMRejectsBadRequest: malformed client-facing jobs fail with
// ErrBadMessage before touching the fleet.
func TestMSMRejectsBadRequest(t *testing.T) {
	c := newTestCoordinator(t, Config{}, map[string]WorkerClient{})
	for _, req := range []MSMRequest{
		{Curve: "nope", N: 4},
		{Curve: "BN254", N: 0},
		{Curve: "BN254", N: MaxMSMPoints + 1},
	} {
		if _, err := c.MSM(context.Background(), req); !errors.Is(err, ErrBadMessage) {
			t.Errorf("MSM(%+v) = %v, want ErrBadMessage", req, err)
		}
	}
}

// TestMSMShardRanges pins the sharding arithmetic: covers [0, n)
// exactly, respects the wire cap, never exceeds n shards.
func TestMSMShardRanges(t *testing.T) {
	for _, tc := range []struct {
		n, nodes, want int
	}{
		{10, 0, 1},
		{10, 3, 3},
		{2, 8, 2},
		{MaxMSMShard + 1, 1, 2},
		{3 * MaxMSMShard, 2, 3},
	} {
		shards := msmShardRanges(tc.n, tc.nodes)
		if len(shards) != tc.want {
			t.Errorf("msmShardRanges(%d, %d) = %d shards, want %d", tc.n, tc.nodes, len(shards), tc.want)
		}
		next := 0
		for _, s := range shards {
			if s[0] != next || s[1] <= s[0] || s[1]-s[0] > MaxMSMShard {
				t.Fatalf("msmShardRanges(%d, %d): bad shard %v at offset %d", tc.n, tc.nodes, s, next)
			}
			next = s[1]
		}
		if next != tc.n {
			t.Fatalf("msmShardRanges(%d, %d) covers [0, %d), want [0, %d)", tc.n, tc.nodes, next, tc.n)
		}
	}
}
