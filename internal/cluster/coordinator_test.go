package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"distmsm/internal/curve"
	"distmsm/internal/msm"
	"distmsm/internal/outsource"
	"distmsm/internal/serial"
)

// funcClient adapts a function to WorkerClient for unit tests.
type funcClient func(ctx context.Context, req DispatchRequest) ([]byte, error)

func (f funcClient) Dispatch(ctx context.Context, req DispatchRequest) ([]byte, error) {
	return f(ctx, req)
}

// blockingClient blocks every dispatch until its context is cancelled —
// a partitioned node.
func blockingClient() funcClient {
	return func(ctx context.Context, req DispatchRequest) ([]byte, error) {
		<-ctx.Done()
		return nil, ctx.Err()
	}
}

// proofClient answers every dispatch with a fixed proof.
func proofClient(proof []byte) funcClient {
	return func(ctx context.Context, req DispatchRequest) ([]byte, error) {
		return append([]byte(nil), proof...), nil
	}
}

// newTestCoordinator builds a coordinator whose DialWorker resolves node
// addresses through the given client table, and closes it with the test.
func newTestCoordinator(t *testing.T, cfg Config, clients map[string]WorkerClient) *Coordinator {
	t.Helper()
	cfg.DialWorker = func(addr string) WorkerClient { return clients[addr] }
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	return c
}

func mustRegister(t *testing.T, c *Coordinator, id string) {
	t.Helper()
	if _, err := c.Register(RegisterRequest{NodeID: id, Addr: id}); err != nil {
		t.Fatalf("register %s: %v", id, err)
	}
}

// fakeLocal is a LocalBackend for unit tests: it proves a fixed byte
// string and accepts exactly that byte string.
type fakeLocal struct {
	proof  []byte
	proves atomic.Int64
}

func (f *fakeLocal) ProveLocal(ctx context.Context, circuit string, seed int64) ([]byte, error) {
	f.proves.Add(1)
	return append([]byte(nil), f.proof...), nil
}

func (f *fakeLocal) VerifyProof(circuit string, seed int64, proof []byte) (bool, error) {
	return bytes.Equal(proof, f.proof), nil
}

// TestRegisterHeartbeatDeregister covers the node-table lifecycle:
// registration, monotone heartbeat sequence numbers, the
// unknown-heartbeat Reregister answer (which must NOT grow the table),
// graceful deregistration and the MaxNodes bound.
func TestRegisterHeartbeatDeregister(t *testing.T) {
	c := newTestCoordinator(t, Config{MaxNodes: 2}, map[string]WorkerClient{
		"n1": proofClient([]byte("p1")),
		"n2": proofClient([]byte("p2")),
	})
	mustRegister(t, c, "n1")

	if resp, err := c.Heartbeat(HeartbeatRequest{NodeID: "n1", Seq: 1}); err != nil || !resp.OK {
		t.Fatalf("heartbeat 1: resp %+v err %v", resp, err)
	}
	// The same sequence number again is a delayed duplicate.
	if _, err := c.Heartbeat(HeartbeatRequest{NodeID: "n1", Seq: 1}); !errors.Is(err, ErrStaleLease) {
		t.Fatalf("stale heartbeat error = %v, want ErrStaleLease", err)
	}
	// A heartbeat from a node the coordinator has never seen asks it to
	// re-register and must not create a table entry.
	resp, err := c.Heartbeat(HeartbeatRequest{NodeID: "ghost", Seq: 1})
	if err != nil || resp.OK || !resp.Reregister {
		t.Fatalf("unknown heartbeat: resp %+v err %v, want Reregister", resp, err)
	}
	if n := len(c.Snapshot()); n != 1 {
		t.Fatalf("unknown heartbeat grew the node table to %d entries", n)
	}

	if err := c.Deregister(DeregisterRequest{NodeID: "ghost"}); !errors.Is(err, ErrUnknownNode) {
		t.Fatalf("deregister unknown = %v, want ErrUnknownNode", err)
	}
	if err := c.Deregister(DeregisterRequest{NodeID: "n1"}); err != nil {
		t.Fatalf("deregister n1: %v", err)
	}
	if snap := c.Snapshot(); snap[0].State != "draining" {
		t.Fatalf("n1 state %q after deregister, want draining", snap[0].State)
	}

	// The table is bounded: with MaxNodes 2 a third distinct node is
	// refused, but a known node may always re-register (and revives from
	// draining).
	mustRegister(t, c, "n2")
	if _, err := c.Register(RegisterRequest{NodeID: "n3", Addr: "n3"}); !errors.Is(err, ErrTooManyNodes) {
		t.Fatalf("register beyond MaxNodes = %v, want ErrTooManyNodes", err)
	}
	mustRegister(t, c, "n1")
	if snap := c.Snapshot(); snap[0].State != "alive" {
		t.Fatalf("n1 state %q after re-register, want alive", snap[0].State)
	}

	st := c.Stats()
	if st.Registrations != 3 || st.Heartbeats != 1 || st.StaleHeartbeats != 1 {
		t.Fatalf("stats %+v, want 3 registrations, 1 heartbeat, 1 stale", st)
	}
}

// TestLeaseExpiryRedispatch is the failover core: a job dispatched to a
// node whose lease then expires must be cancelled and re-dispatched to
// a survivor, and the lost node's bookkeeping must say so.
func TestLeaseExpiryRedispatch(t *testing.T) {
	lease := time.Hour // expiry driven manually; the sweeper never fires
	c := newTestCoordinator(t, Config{
		Lease:    lease,
		HedgeMin: time.Hour, // hedging disabled: this test wants the redispatch path
	}, map[string]WorkerClient{
		"a": blockingClient(),
		"b": proofClient([]byte("proof-b")),
	})
	mustRegister(t, c, "a")
	mustRegister(t, c, "b")

	type res struct {
		proof []byte
		err   error
	}
	done := make(chan res, 1)
	go func() {
		proof, err := c.Prove(context.Background(), ProveRequest{Circuit: "synthetic", Seed: 7, Timeout: 30 * time.Second})
		done <- res{proof, err}
	}()

	// Wait until the job is in flight on node a (registration order makes
	// a the first pick), then expire a's lease.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := c.Snapshot(); snap[0].InFlight == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("job never became in-flight on node a")
		}
		time.Sleep(2 * time.Millisecond)
	}
	c.mu.Lock()
	c.nodes["a"].lastHB = time.Now().Add(-2 * lease)
	c.mu.Unlock()
	c.expireLeases(time.Now())

	r := <-done
	if r.err != nil {
		t.Fatalf("prove after lease expiry: %v", r.err)
	}
	if !bytes.Equal(r.proof, []byte("proof-b")) {
		t.Fatalf("proof %q, want survivor b's", r.proof)
	}
	st := c.Stats()
	if st.LostNodes != 1 || st.LostJobsRecovered != 1 || st.Redispatches != 1 {
		t.Fatalf("stats %+v, want 1 lost node, 1 recovered job, 1 redispatch", st)
	}
	if snap := c.Snapshot(); snap[0].State != "lost" {
		t.Fatalf("node a state %q, want lost", snap[0].State)
	}
	// A heartbeat revives a lost node.
	if resp, err := c.Heartbeat(HeartbeatRequest{NodeID: "a", Seq: 1}); err != nil || !resp.OK {
		t.Fatalf("reviving heartbeat: resp %+v err %v", resp, err)
	}
	if snap := c.Snapshot(); snap[0].State != "alive" {
		t.Fatalf("node a state %q after reviving heartbeat, want alive", snap[0].State)
	}

	// The same failover on the MSM surface. Two nodes make two shards,
	// and each shard puts one half on each node; the halves on a hang
	// until its lease expires, then both shards re-run on survivor b.
	var hung atomic.Int64
	survivor := &msmTestClient{}
	m := newTestCoordinator(t, Config{Lease: lease, MSMRandom: outsource.NewSeededReader(4)}, map[string]WorkerClient{
		"a": msmFuncClient(func(ctx context.Context, req MSMDispatchRequest) ([]byte, error) {
			hung.Add(1)
			<-ctx.Done()
			return nil, ctx.Err()
		}),
		"b": survivor,
	})
	mustRegister(t, m, "a")
	mustRegister(t, m, "b")
	mreq := MSMRequest{Curve: "BN254", PointSeed: 51, ScalarSeed: 52, N: 64, Timeout: 30 * time.Second}
	mdone := make(chan res, 1)
	go func() {
		point, err := m.MSM(context.Background(), mreq)
		mdone <- res{point, err}
	}()
	deadline = time.Now().Add(5 * time.Second)
	for hung.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the MSM halves never became in-flight on node a")
		}
		time.Sleep(2 * time.Millisecond)
	}
	m.mu.Lock()
	m.nodes["a"].lastHB = time.Now().Add(-2 * lease)
	m.mu.Unlock()
	m.expireLeases(time.Now())

	r = <-mdone
	if r.err != nil {
		t.Fatalf("MSM after lease expiry: %v", r.err)
	}
	crv, err := curve.ByName(mreq.Curve)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := msm.MSM(crv, crv.SamplePoints(mreq.N, mreq.PointSeed), crv.SampleScalars(mreq.N, mreq.ScalarSeed), msm.Config{Signed: true})
	if err != nil {
		t.Fatal(err)
	}
	aff := crv.ToAffine(sum)
	if !bytes.Equal(r.proof, serial.MarshalPoint(crv, &aff, false)) {
		t.Fatal("MSM result after lease expiry differs from msm.MSM")
	}
	if st := m.Stats(); st.LostNodes != 1 || st.LostJobsRecovered != 2 || st.Redispatches != 2 || st.LocalFallbacks != 0 {
		t.Fatalf("MSM stats %+v, want 1 lost node, 2 recovered halves, 2 redispatches, no local fallback", st)
	}
}

// TestDrainingNodeKeepsInFlightPastLease: a deregistered node stops
// heartbeating, but its in-flight work is promised time to finish — a
// drain that outlasts the lease must not read as a lost node, cancel the
// job and re-dispatch it.
func TestDrainingNodeKeepsInFlightPastLease(t *testing.T) {
	lease := time.Hour // expiry driven manually; the sweeper never fires
	finish := make(chan struct{})
	c := newTestCoordinator(t, Config{Lease: lease, HedgeMin: time.Hour}, map[string]WorkerClient{
		"a": funcClient(func(ctx context.Context, req DispatchRequest) ([]byte, error) {
			select {
			case <-finish:
				return []byte("proof-a"), nil
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}),
	})
	mustRegister(t, c, "a")

	type res struct {
		proof []byte
		err   error
	}
	done := make(chan res, 1)
	go func() {
		proof, err := c.Prove(context.Background(), ProveRequest{Circuit: "synthetic", Seed: 7, Timeout: 30 * time.Second})
		done <- res{proof, err}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for c.Snapshot()[0].InFlight != 1 {
		if time.Now().After(deadline) {
			t.Fatal("job never became in-flight on node a")
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := c.Deregister(DeregisterRequest{NodeID: "a"}); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	c.nodes["a"].lastHB = time.Now().Add(-2 * lease)
	c.mu.Unlock()
	c.expireLeases(time.Now())
	close(finish)

	r := <-done
	if r.err != nil || !bytes.Equal(r.proof, []byte("proof-a")) {
		t.Fatalf("prove on a draining node past its lease: proof %q err %v, want node a's", r.proof, r.err)
	}
	if st := c.Stats(); st.LostNodes != 0 || st.LostJobsRecovered != 0 {
		t.Fatalf("stats %+v, want no lost node and no recovered job", st)
	}
	if snap := c.Snapshot(); snap[0].State != "draining" {
		t.Fatalf("node a state %q, want draining", snap[0].State)
	}
}

// TestHedgedDispatch: a straggling primary gets a speculative duplicate
// after the hedge delay, the fast hedge wins, and the straggler's
// dispatch context is cancelled.
func TestHedgedDispatch(t *testing.T) {
	primaryCancelled := make(chan struct{})
	clients := map[string]WorkerClient{
		"slow": funcClient(func(ctx context.Context, req DispatchRequest) ([]byte, error) {
			<-ctx.Done()
			close(primaryCancelled)
			return nil, ctx.Err()
		}),
		"fast": proofClient([]byte("proof-fast")),
	}
	c := newTestCoordinator(t, Config{HedgeMin: 20 * time.Millisecond}, clients)
	mustRegister(t, c, "slow")
	mustRegister(t, c, "fast")

	proof, err := c.Prove(context.Background(), ProveRequest{Circuit: "synthetic", Seed: 1, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("hedged prove: %v", err)
	}
	if !bytes.Equal(proof, []byte("proof-fast")) {
		t.Fatalf("proof %q, want the hedge's", proof)
	}
	select {
	case <-primaryCancelled:
	case <-time.After(5 * time.Second):
		t.Fatal("the losing primary dispatch was never cancelled")
	}
	st := c.Stats()
	if st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats %+v, want 1 hedge, 1 hedge win", st)
	}
}

// TestExpiredDeadlineFailsFast is the regression test for the
// dispatch-deadline bug: when the job deadline has already passed at
// launch time, dispatchHedged used to ship the request with
// TimeoutMS = 0 — which the wire defines as "use the worker default" —
// handing an abandoned job a fresh worker-default timeout on the node.
// The attempt must instead fail locally without a single client
// dispatch, and must not charge the node's breaker.
func TestExpiredDeadlineFailsFast(t *testing.T) {
	var dispatches atomic.Int64
	var zeroTimeout atomic.Bool
	clients := map[string]WorkerClient{
		"n1": funcClient(func(ctx context.Context, req DispatchRequest) ([]byte, error) {
			dispatches.Add(1)
			if req.TimeoutMS == 0 {
				zeroTimeout.Store(true)
			}
			return []byte("proof"), nil
		}),
	}
	c := newTestCoordinator(t, Config{HedgeMin: time.Hour}, clients)
	mustRegister(t, c, "n1")

	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	_, err := c.Prove(ctx, ProveRequest{Circuit: "synthetic", Seed: 1, Timeout: 10 * time.Second})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline prove error = %v, want DeadlineExceeded", err)
	}
	if n := dispatches.Load(); n != 0 {
		t.Fatalf("expired-deadline job reached the worker %d times, want 0", n)
	}
	if zeroTimeout.Load() {
		t.Fatal("a dispatch went out with TimeoutMS = 0 (worker-default timeout)")
	}
	// The local fail-fast is not the node's fault: its breaker must stay
	// closed and routable for the next (healthy) job.
	proof, err := c.Prove(context.Background(), ProveRequest{Circuit: "synthetic", Seed: 2, Timeout: 10 * time.Second})
	if err != nil || !bytes.Equal(proof, []byte("proof")) {
		t.Fatalf("post-expiry prove: proof %q err %v", proof, err)
	}

	// The same on the MSM surface: no shard half reaches the worker, and
	// its breaker stays closed for the next healthy job.
	worker := &msmTestClient{}
	m := newTestCoordinator(t, Config{MSMRandom: outsource.NewSeededReader(6)}, map[string]WorkerClient{"m1": worker})
	mustRegister(t, m, "m1")
	mreq := MSMRequest{Curve: "BN254", PointSeed: 61, ScalarSeed: 62, N: 32, Timeout: 10 * time.Second}
	if _, err := m.MSM(ctx, mreq); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired-deadline MSM error = %v, want DeadlineExceeded", err)
	}
	if n := worker.dispatches.Load(); n != 0 {
		t.Fatalf("expired-deadline MSM reached the worker %d times, want 0", n)
	}
	if snap := m.Snapshot(); snap[0].Failures != 0 || snap[0].BreakerS != "closed" {
		t.Fatalf("node m1 after an expired MSM: %d failures, breaker %s; want 0, closed", snap[0].Failures, snap[0].BreakerS)
	}
	if got, err := m.MSM(context.Background(), mreq); err != nil || !bytes.Equal(got, msmReferenceBytes(t, mreq)) {
		t.Fatalf("post-expiry MSM: err %v", err)
	}
}

// TestNodeBreakerQuarantine drives a node's breaker through the
// coordinator: repeated dispatch failures quarantine it, routing skips
// it while open, and a successful half-open probe re-closes it.
func TestNodeBreakerQuarantine(t *testing.T) {
	var healthy atomic.Bool
	var aDispatches atomic.Int64
	clients := map[string]WorkerClient{
		"a": funcClient(func(ctx context.Context, req DispatchRequest) ([]byte, error) {
			aDispatches.Add(1)
			if healthy.Load() {
				return []byte("proof-a"), nil
			}
			return nil, errors.New("injected dispatch failure")
		}),
		"b": proofClient([]byte("proof-b")),
	}
	cooldown := 300 * time.Millisecond
	c := newTestCoordinator(t, Config{
		Breaker:  BreakerConfig{FailThreshold: 2, Cooldown: cooldown},
		HedgeMin: time.Hour,
	}, clients)
	mustRegister(t, c, "a")
	mustRegister(t, c, "b")

	// Distinct circuit names per job dodge the circuit-affinity fast path
	// so the least-loaded scan (registration order: a first) is exercised
	// every time.
	prove := func(i int) ([]byte, error) {
		return c.Prove(context.Background(), ProveRequest{Circuit: fmt.Sprintf("c%d", i), Seed: int64(i), Timeout: 10 * time.Second})
	}
	for i := 1; i <= 2; i++ { // two failures on a → quarantined; b absorbs both jobs
		proof, err := prove(i)
		if err != nil || !bytes.Equal(proof, []byte("proof-b")) {
			t.Fatalf("job %d: proof %q err %v, want failover to b", i, proof, err)
		}
	}
	if snap := c.Snapshot(); snap[0].BreakerS != "open" {
		t.Fatalf("node a breaker %q after %d failures, want open", snap[0].BreakerS, 2)
	}
	if st := c.Stats(); st.BreakerTrips != 1 {
		t.Fatalf("breaker trips %d, want 1", st.BreakerTrips)
	}
	// While quarantined, routing never offers a the job.
	before := aDispatches.Load()
	if proof, err := prove(3); err != nil || !bytes.Equal(proof, []byte("proof-b")) {
		t.Fatalf("job during quarantine: proof %q err %v", proof, err)
	}
	if got := aDispatches.Load(); got != before {
		t.Fatalf("quarantined node a was dispatched to (%d → %d)", before, got)
	}
	// After the cooldown a healthy probe re-closes the breaker.
	time.Sleep(cooldown + 20*time.Millisecond)
	healthy.Store(true)
	if proof, err := prove(4); err != nil || !bytes.Equal(proof, []byte("proof-a")) {
		t.Fatalf("probe job: proof %q err %v, want node a's", proof, err)
	}
	if snap := c.Snapshot(); snap[0].BreakerS != "closed" {
		t.Fatalf("node a breaker %q after successful probe, want closed", snap[0].BreakerS)
	}
}

// TestHedgeLoserReleasesProbeSlot is the regression test for a breaker
// wedge: a half-open probe dispatch that loses the hedge race is
// cancelled before any outcome is recorded, which used to leave the
// breaker HalfOpen with its single probe slot consumed forever — the
// slow-but-recovering node was silently excluded from routing for good.
// The abandoned probe must release its slot so a later job can probe
// the node and re-close its breaker.
func TestHedgeLoserReleasesProbeSlot(t *testing.T) {
	const (
		aFail = iota // answer immediately with an error
		aHang        // block until the dispatch context dies
		aOK          // answer with a proof
	)
	var mode atomic.Int32
	clients := map[string]WorkerClient{
		"a": funcClient(func(ctx context.Context, req DispatchRequest) ([]byte, error) {
			switch mode.Load() {
			case aFail:
				return nil, errors.New("injected dispatch failure")
			case aHang:
				<-ctx.Done()
				return nil, ctx.Err()
			}
			return []byte("proof-a"), nil
		}),
		"b": proofClient([]byte("proof-b")),
	}
	cooldown := 50 * time.Millisecond
	c := newTestCoordinator(t, Config{
		Breaker:  BreakerConfig{FailThreshold: 1, Cooldown: cooldown},
		HedgeMin: 20 * time.Millisecond,
	}, clients)
	mustRegister(t, c, "a")
	mustRegister(t, c, "b")

	// Distinct circuit names dodge the circuit-affinity fast path so the
	// least-loaded scan (registration order: a first) runs every time.
	prove := func(i int) ([]byte, error) {
		return c.Prove(context.Background(), ProveRequest{Circuit: fmt.Sprintf("c%d", i), Seed: int64(i), Timeout: 10 * time.Second})
	}

	// One failure trips a's breaker open; the job fails over to b.
	if proof, err := prove(1); err != nil || !bytes.Equal(proof, []byte("proof-b")) {
		t.Fatalf("trip job: proof %q err %v, want failover to b", proof, err)
	}
	if snap := c.Snapshot(); snap[0].BreakerS != "open" {
		t.Fatalf("node a breaker %q, want open", snap[0].BreakerS)
	}

	// Past the cooldown, a is offered a half-open probe — which hangs, so
	// the hedge fires, b wins, and the probe is cancelled as the loser.
	time.Sleep(cooldown + 20*time.Millisecond)
	mode.Store(aHang)
	if proof, err := prove(2); err != nil || !bytes.Equal(proof, []byte("proof-b")) {
		t.Fatalf("hedged probe job: proof %q err %v, want the hedge's", proof, err)
	}
	if st := c.Stats(); st.Hedges != 1 || st.HedgeWins != 1 {
		t.Fatalf("stats %+v, want 1 hedge, 1 hedge win", st)
	}

	// The cancelled probe goroutine drops its in-flight entry
	// asynchronously; wait for it so the least-loaded scan sees a tie and
	// picks a (registration order) rather than b.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if snap := c.Snapshot(); snap[0].InFlight == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the losing probe dispatch never unwound")
		}
		time.Sleep(2 * time.Millisecond)
	}

	// The cancelled probe must have released its slot: the next job
	// probes a again, and the now-healthy node re-closes its breaker.
	mode.Store(aOK)
	proof, err := prove(3)
	if err != nil || !bytes.Equal(proof, []byte("proof-a")) {
		t.Fatalf("re-probe job: proof %q err %v, want recovered node a's (probe slot leaked?)", proof, err)
	}
	if snap := c.Snapshot(); snap[0].BreakerS != "closed" {
		t.Fatalf("node a breaker %q after successful re-probe, want closed", snap[0].BreakerS)
	}
}

// TestDegradeToLocal: with every node gone the coordinator proves
// locally; without a local backend it reports ErrNoNodes.
func TestDegradeToLocal(t *testing.T) {
	local := &fakeLocal{proof: []byte("proof-local")}
	c := newTestCoordinator(t, Config{Local: local}, nil)
	proof, err := c.Prove(context.Background(), ProveRequest{Circuit: "synthetic", Seed: 9, Timeout: 10 * time.Second})
	if err != nil || !bytes.Equal(proof, []byte("proof-local")) {
		t.Fatalf("degraded prove: proof %q err %v", proof, err)
	}
	if st := c.Stats(); st.LocalFallbacks != 1 {
		t.Fatalf("local fallbacks %d, want 1", st.LocalFallbacks)
	}

	bare := newTestCoordinator(t, Config{}, nil)
	if _, err := bare.Prove(context.Background(), ProveRequest{Circuit: "synthetic", Seed: 9, Timeout: time.Second}); !errors.Is(err, ErrNoNodes) {
		t.Fatalf("remote-only empty cluster = %v, want ErrNoNodes", err)
	}
}

// queueFullErr mimics the service's admission rejection: an error with
// a structural RetryAfterHint, as the coordinator detects it.
type queueFullErr struct{ after time.Duration }

func (e *queueFullErr) Error() string                 { return "test: queue full" }
func (e *queueFullErr) RetryAfterHint() time.Duration { return e.after }

// busyLocal rejects the first N proves with a retryable queue-full
// error, then proves.
type busyLocal struct {
	fakeLocal
	rejects atomic.Int64
}

func (b *busyLocal) ProveLocal(ctx context.Context, circuit string, seed int64) ([]byte, error) {
	if b.rejects.Add(-1) >= 0 {
		return nil, fmt.Errorf("submit: %w", &queueFullErr{after: time.Millisecond})
	}
	return b.fakeLocal.ProveLocal(ctx, circuit, seed)
}

// TestDegradeToLocalBackpressure: a local admission rejection carrying
// a retry-after hint is backpressure, not failure — the degraded job
// waits its turn and completes; only the job's own deadline ends the
// wait.
func TestDegradeToLocalBackpressure(t *testing.T) {
	local := &busyLocal{fakeLocal: fakeLocal{proof: []byte("proof-local")}}
	local.rejects.Store(2)
	c := newTestCoordinator(t, Config{Local: local}, nil)
	proof, err := c.Prove(context.Background(), ProveRequest{Circuit: "synthetic", Seed: 9, Timeout: 10 * time.Second})
	if err != nil || !bytes.Equal(proof, []byte("proof-local")) {
		t.Fatalf("backpressured degraded prove: proof %q err %v", proof, err)
	}
	if got := local.proves.Load(); got != 1 {
		t.Fatalf("local proves %d, want 1 after two queue-full retries", got)
	}
	if st := c.Stats(); st.LocalFallbacks != 1 || st.JobsCompleted != 1 {
		t.Fatalf("stats %+v, want one fallback counted once and one completion", st)
	}

	// A queue that never admits ends at the job deadline, not in a spin.
	never := &busyLocal{fakeLocal: fakeLocal{proof: []byte("p")}}
	never.rejects.Store(1 << 30)
	c2 := newTestCoordinator(t, Config{Local: never}, nil)
	_, err = c2.Prove(context.Background(), ProveRequest{Circuit: "synthetic", Seed: 9, Timeout: 80 * time.Millisecond})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("never-admitting local queue = %v, want DeadlineExceeded", err)
	}
}

// TestCorruptResponseRedispatch: a node returning garbage is caught by
// proof verification, charged a breaker failure, and the job
// re-dispatches to an honest node.
func TestCorruptResponseRedispatch(t *testing.T) {
	good := []byte("proof-good")
	local := &fakeLocal{proof: good}
	clients := map[string]WorkerClient{
		"liar":   proofClient([]byte("proof-garbage")),
		"honest": proofClient(good),
	}
	c := newTestCoordinator(t, Config{Local: local, HedgeMin: time.Hour}, clients)
	mustRegister(t, c, "liar")
	mustRegister(t, c, "honest")

	proof, err := c.Prove(context.Background(), ProveRequest{Circuit: "synthetic", Seed: 3, Timeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("prove: %v", err)
	}
	if !bytes.Equal(proof, good) {
		t.Fatalf("proof %q, want the honest node's", proof)
	}
	st := c.Stats()
	if st.CorruptProofs != 1 {
		t.Fatalf("corrupt proofs %d, want 1", st.CorruptProofs)
	}
	if local.proves.Load() != 0 {
		t.Fatal("the job degraded to local instead of re-dispatching to the honest node")
	}
	if snap := c.Snapshot(); snap[0].Failures != 1 {
		t.Fatalf("liar failures %d, want the corrupt response charged", snap[0].Failures)
	}
}

// TestProveAlwaysLyingNodeTrips is the prove-path twin of
// TestMSMChaosAlwaysLyingNode: a node whose every proof fails
// verification must be charged exactly one failure per dispatch, trip
// its breaker after FailThreshold jobs, never hold a circuit's affinity,
// and be skipped by the jobs after the trip.
func TestProveAlwaysLyingNodeTrips(t *testing.T) {
	const threshold = 3
	good := []byte("proof-good")
	local := &fakeLocal{proof: good}
	clients := map[string]WorkerClient{
		"liar":   proofClient([]byte("proof-garbage")),
		"honest": proofClient(good),
	}
	c := newTestCoordinator(t, Config{
		Local:    local,
		Breaker:  BreakerConfig{FailThreshold: threshold, Cooldown: time.Hour},
		HedgeMin: time.Hour,
	}, clients)
	mustRegister(t, c, "liar")
	mustRegister(t, c, "honest")

	liar := func() NodeSnapshot { return c.Snapshot()[0] }
	// Distinct circuit names dodge the circuit-affinity fast path, so the
	// least-loaded scan (registration order: liar first) offers every job
	// to the liar until its breaker opens.
	for i := 1; i <= 2*threshold; i++ {
		circuit := fmt.Sprintf("c%d", i)
		proof, err := c.Prove(context.Background(), ProveRequest{Circuit: circuit, Seed: int64(i), Timeout: 10 * time.Second})
		if err != nil || !bytes.Equal(proof, good) {
			t.Fatalf("job %d: proof %q err %v, want the honest node's", i, proof, err)
		}
		c.mu.Lock()
		owner := c.affinity[circuit]
		c.mu.Unlock()
		if owner == "liar" {
			t.Fatalf("job %d: circuit affinity points at the liar", i)
		}
		if i == threshold {
			if st := c.Stats(); st.BreakerTrips < 1 {
				t.Fatalf("after %d lies: %d breaker trips, want >= 1 (breaker %s)", i, st.BreakerTrips, liar().BreakerS)
			}
		}
	}
	n := liar()
	if n.Failures != n.Dispatches {
		t.Fatalf("liar: %d failures for %d dispatches, want one failure per dispatch", n.Failures, n.Dispatches)
	}
	if n.Dispatches != threshold {
		t.Fatalf("liar dispatched %d times, want %d — jobs after the trip must skip it", n.Dispatches, threshold)
	}
	if got := local.proves.Load(); got != 0 {
		t.Fatalf("%d jobs degraded to local despite an honest node", got)
	}
}

// TestCoordinatorClose: a closed coordinator refuses new work and new
// registrations, and Close is idempotent.
func TestCoordinatorClose(t *testing.T) {
	c := NewCoordinator(Config{})
	c.Close()
	c.Close()
	if _, err := c.Prove(context.Background(), ProveRequest{Circuit: "x", Seed: 1}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("prove after close = %v, want ErrShuttingDown", err)
	}
	if _, err := c.Register(RegisterRequest{NodeID: "n", Addr: "n"}); !errors.Is(err, ErrShuttingDown) {
		t.Fatalf("register after close = %v, want ErrShuttingDown", err)
	}
}

// TestNodeFaultInjectorDeterminism: decisions are pure in (seed, node,
// seq) — same inputs, same fault pattern, independent of call order.
func TestNodeFaultInjectorDeterminism(t *testing.T) {
	cfg := NodeFaultConfig{Seed: 42, Crash: 0.05, Partition: 0.1, Slow: 0.1, Corrupt: 0.1}
	a, err := NewNodeInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewNodeInjector(cfg)
	if err != nil {
		t.Fatal(err)
	}
	classes := map[NodeFaultClass]int{}
	for node := 0; node < 3; node++ {
		for seq := uint64(0); seq < 200; seq++ {
			da, db := a.Decide(node, seq), b.Decide(node, seq)
			if da != db {
				t.Fatalf("node %d seq %d: %v vs %v", node, seq, da, db)
			}
			classes[da]++
		}
	}
	// With 600 draws and ~35% total fault probability, every class should
	// have fired at least once — the chaos test is actually injecting.
	for _, cl := range []NodeFaultClass{NodeFaultCrash, NodeFaultPartition, NodeFaultSlow, NodeFaultCorrupt} {
		if classes[cl] == 0 {
			t.Fatalf("fault class %v never drawn in 600 decisions", cl)
		}
	}
	if _, err := NewNodeInjector(NodeFaultConfig{Crash: 0.9, Partition: 0.9}); !errors.Is(err, ErrBadNodeFaultConfig) {
		t.Fatalf("over-unity probabilities = %v, want ErrBadNodeFaultConfig", err)
	}
}
