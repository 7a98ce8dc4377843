// Command coordinator fronts a fleet of provd worker nodes: workers
// join with -join, keep heartbeat leases alive, and the coordinator
// routes /v1/prove jobs to them with circuit affinity, per-node circuit
// breakers, hedged dispatch and lost-lease re-dispatch (see
// internal/cluster).
//
// Serve mode (default):
//
//	coordinator -listen :9090 -gpus 4
//	provd -listen :8081 -join http://localhost:9090 -advertise http://localhost:8081
//	curl -s -X POST localhost:9090/v1/prove -d '{"circuit":"synthetic","seed":7}'
//	curl -s localhost:9090/v1/healthz
//
// -gpus sizes the coordinator's own degrade-to-local proving service,
// which also verifies every remote proof (the corrupted-response
// catch); -gpus 0 disables it, leaving the cluster remote-only.
//
// Smoke mode brings up a coordinator and two in-process worker nodes on
// loopback listeners, runs N jobs through the cluster, and partitions
// one worker away mid-run while it owes a proof (no deregister —
// heartbeats just stop, and its requests are accepted but never
// answered). Every job must complete, the worker must be marked lost,
// and at least one held job must come back through the lost lease. It
// exits non-zero on any failure — the CI entry point:
//
//	coordinator -smoke 8
//
// MSM smoke mode (-msm-smoke N) brings up the same loopback topology
// but drives N outsourced MSMs through /v1/msm, with one of the two
// workers lying on every shard (its claims are valid curve points
// shifted by the generator — only the constant-size check can tell).
// Every result must come back byte-identical to the serial reference,
// and the run fails unless at least one rejection actually fired:
//
//	coordinator -msm-smoke 4
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"distmsm/internal/cluster"
	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/serial"
	"distmsm/internal/service"
	"distmsm/internal/telemetry"
)

func main() {
	var (
		listen      = flag.String("listen", ":9090", "HTTP listen address (serve mode)")
		gpus        = flag.Int("gpus", 4, "simulated GPUs for the local fallback/verification service (0 disables local proving)")
		constraints = flag.Int("constraints", 512, "registered synthetic circuit size")
		lease       = flag.Duration("lease", 10*time.Second, "node heartbeat lease; a node that misses it is lost and its jobs re-dispatched")
		hedgeMult   = flag.Float64("hedge-multiple", 4, "hedge a dispatch once it is this multiple of the EWMA latency")
		maxAttempts = flag.Int("max-attempts", 4, "max nodes one job is dispatched to before giving up on remotes")
		timeout     = flag.Duration("timeout", time.Minute, "default per-job deadline")
		dispatchTO  = flag.Duration("dispatch-timeout", 15*time.Second, "cap on one dispatch attempt to one node (0 = bounded only by the job deadline)")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget")
		smoke       = flag.Int("smoke", 0, "run an N-job two-worker failover smoke and exit instead of serving")
		msmSmoke    = flag.Int("msm-smoke", 0, "run an N-job outsourced-MSM smoke with one lying worker and exit")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	o := options{
		listen: *listen, gpus: *gpus, constraints: *constraints,
		lease: *lease, hedgeMult: *hedgeMult, maxAttempts: *maxAttempts,
		timeout: *timeout, dispatchTO: *dispatchTO, drain: *drain, smoke: *smoke,
		msmSmoke: *msmSmoke,
	}
	var err error
	switch {
	case o.msmSmoke > 0:
		err = runMSMSmoke(ctx, o)
	case o.smoke > 0:
		err = runSmoke(ctx, o)
	default:
		err = run(ctx, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "coordinator:", err)
		os.Exit(1)
	}
}

type options struct {
	listen            string
	gpus, constraints int
	lease             time.Duration
	hedgeMult         float64
	maxAttempts       int
	timeout           time.Duration
	dispatchTO        time.Duration
	drain             time.Duration
	smoke             int
	msmSmoke          int
}

// newLocalService builds the coordinator's in-process proving service:
// the degrade-to-local backend and the remote-proof verifier.
func newLocalService(ctx context.Context, gpus, constraints int, metrics *telemetry.Registry) (*service.Service, error) {
	cl, err := gpusim.NewCluster(gpusim.A100(), gpus)
	if err != nil {
		return nil, err
	}
	svc, err := service.New(service.Config{Cluster: cl, Metrics: metrics})
	if err != nil {
		return nil, err
	}
	if err := svc.RegisterSynthetic(ctx, "synthetic", constraints); err != nil {
		return nil, err
	}
	return svc, nil
}

func run(ctx context.Context, o options) error {
	metrics := telemetry.NewRegistry()
	var local *service.Service
	cfg := cluster.Config{
		Lease:           o.lease,
		HedgeMultiple:   o.hedgeMult,
		MaxAttempts:     o.maxAttempts,
		DefaultTimeout:  o.timeout,
		DispatchTimeout: o.dispatchTO,
		Metrics:         metrics,
	}
	if o.gpus > 0 {
		svc, err := newLocalService(ctx, o.gpus, o.constraints, nil)
		if err != nil {
			return err
		}
		local = svc
		cfg.Local = local
		fmt.Printf("coordinator: local fallback service up (%d GPUs, circuit %q)\n", o.gpus, "synthetic")
	} else {
		fmt.Println("coordinator: remote-only (no local fallback, remote proofs unverified)")
	}
	coord := cluster.NewCoordinator(cfg)
	srv := &http.Server{Addr: o.listen, Handler: coord.Handler()}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("coordinator: listening on %s (lease %v)\n", o.listen, o.lease)

	select {
	case err := <-errCh:
		coord.Close()
		return err
	case <-ctx.Done():
	}
	fmt.Printf("coordinator: shutting down (drain budget %v)\n", o.drain)
	shCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	_ = srv.Shutdown(shCtx)
	coord.Close()
	if local != nil {
		if err := local.Shutdown(shCtx); err != nil {
			fmt.Printf("coordinator: drain budget exhausted, cancelled remaining local jobs: %v\n", err)
		}
	}
	fmt.Println("coordinator: drained")
	return nil
}

// The smokes' shared sizes: a small synthetic circuit on every service,
// and a lease short enough that a crashed worker is noticed mid-batch.
const (
	smokeConstraints = 200
	smokeLease       = 600 * time.Millisecond
)

// serveLoopback starts h on a fresh loopback port and returns its URL.
func serveLoopback(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }()
	return srv, "http://" + ln.Addr().String(), nil
}

// smokeWorker is one in-process worker node: a proving service on a
// loopback listener plus the cluster agent that keeps it registered.
type smokeWorker struct {
	svc      *service.Service
	handler  http.Handler // svc.Handler(), served through heldWriter
	srv      *http.Server
	url      string
	agent    *cluster.Agent
	released chan struct{} // closed at shutdown: lets every held response go

	mu         sync.Mutex
	crashed    bool
	unanswered int // requests whose response has not started
}

// crashWhenBusy simulates the worker partitioning away at a moment it
// owes an answer: once a request is unanswered, the agent stops without
// deregistering and every response not yet started — that one, and any
// later request's — is accepted and never answered (see heldWriter), so
// only the coordinator's lease expiry can take those jobs back. It gives
// up, returning false, if done closes first.
func (w *smokeWorker) crashWhenBusy(done <-chan struct{}) bool {
	for {
		w.mu.Lock()
		if w.unanswered > 0 {
			w.crashed = true
			w.mu.Unlock()
			w.agent.Kill()
			return true
		}
		w.mu.Unlock()
		select {
		case <-done:
			return false
		case <-time.After(time.Millisecond):
		}
	}
}

// ServeHTTP serves the worker's service, each response through a
// heldWriter.
func (w *smokeWorker) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	w.mu.Lock()
	w.unanswered++
	w.mu.Unlock()
	h := &heldWriter{ResponseWriter: rw, w: w, r: r}
	w.handler.ServeHTTP(h, r)
	h.answer()
}

// heldWriter gates a response at its first byte: a live worker lets it
// through, a crashed one holds it until the caller abandons the request
// or the topology shuts down.
type heldWriter struct {
	http.ResponseWriter
	w        *smokeWorker
	r        *http.Request
	answered bool
}

func (h *heldWriter) answer() {
	if h.answered {
		return
	}
	h.answered = true
	h.w.mu.Lock()
	h.w.unanswered--
	crashed := h.w.crashed
	h.w.mu.Unlock()
	if crashed {
		select {
		case <-h.r.Context().Done():
		case <-h.w.released:
		}
	}
}

func (h *heldWriter) WriteHeader(code int) {
	h.answer()
	h.ResponseWriter.WriteHeader(code)
}

func (h *heldWriter) Write(b []byte) (int, error) {
	h.answer()
	return h.ResponseWriter.Write(b)
}

// loopback is the smokes' topology: a coordinator and two provd
// workers, each on a loopback listener, each worker kept registered by
// its own agent.
type loopback struct {
	coord   *cluster.Coordinator
	srv     *http.Server
	workers [2]*smokeWorker
}

// startLoopback brings the topology up and returns once both workers
// hold leases. The workers listen first, so that when liar is set the
// coordinator's dialer can wrap worker 0's client with it, recognised by
// its address; the agents start after the coordinator exists.
func startLoopback(ctx context.Context, cfg cluster.Config, liar *cluster.NodeInjector) (*loopback, error) {
	lb := &loopback{}
	for i := range lb.workers {
		svc, err := newLocalService(ctx, 2, smokeConstraints, nil)
		if err != nil {
			return nil, err
		}
		w := &smokeWorker{svc: svc, handler: svc.Handler(), released: make(chan struct{})}
		if w.srv, w.url, err = serveLoopback(w); err != nil {
			return nil, err
		}
		lb.workers[i] = w
	}
	if liar != nil {
		liarURL := lb.workers[0].url
		cfg.DialWorker = func(addr string) cluster.WorkerClient {
			if addr == liarURL {
				return liar.WrapClient(0, cluster.NewHTTPWorkerClient(addr))
			}
			return cluster.NewHTTPWorkerClient(addr)
		}
	}
	lb.coord = cluster.NewCoordinator(cfg)
	srv, coordURL, err := serveLoopback(lb.coord.Handler())
	if err != nil {
		return nil, err
	}
	lb.srv = srv
	fmt.Printf("coordinator: loopback coordinator on %s (lease %v), workers on %s and %s\n",
		coordURL, cfg.Lease, lb.workers[0].url, lb.workers[1].url)
	for i, w := range lb.workers {
		svc := w.svc
		w.agent, err = cluster.StartAgent(cluster.AgentConfig{
			Coordinator: coordURL,
			NodeID:      fmt.Sprintf("smoke-worker-%d", i),
			Addr:        w.url,
			Circuits:    []string{"synthetic"},
			Workers:     svc.Workers(),
			Interval:    cfg.Lease / 3,
			Load: func() (int, int) {
				st := svc.Stats()
				return st.Queued, st.InFlight
			},
			Logf: func(format string, args ...any) {
				fmt.Printf("coordinator: "+format+"\n", args...)
			},
		})
		if err != nil {
			return nil, err
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for lb.coord.AliveNodes() < len(lb.workers) {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("only %d of %d workers registered", lb.coord.AliveNodes(), len(lb.workers))
		}
		time.Sleep(20 * time.Millisecond)
	}
	return lb, nil
}

// close drains the topology: every worker still running deregisters and
// shuts down, every worker service drains, then the coordinator stops.
func (lb *loopback) close(ctx context.Context) {
	for _, w := range lb.workers {
		close(w.released)
		if w.crashed {
			_ = w.srv.Close()
		} else {
			w.agent.Stop()
			_ = w.srv.Shutdown(ctx)
		}
		_ = w.svc.Shutdown(ctx)
	}
	_ = lb.srv.Shutdown(ctx)
	lb.coord.Close()
}

// runSmoke is the cluster failover smoke: coordinator + two workers,
// one crashed mid-run, every job must still complete — the survivors
// and the lost-lease re-dispatch have to absorb the failure.
func runSmoke(ctx context.Context, o options) error {
	start := time.Now()
	local, err := newLocalService(ctx, 2, smokeConstraints, nil)
	if err != nil {
		return err
	}
	// HedgeMin outlasts the lease: a hedge would race the lease for a held
	// job, and the lease path is what this smoke covers (the chaos suites
	// cover hedging).
	lb, err := startLoopback(ctx, cluster.Config{
		Local:           local,
		Lease:           smokeLease,
		HedgeMin:        4 * smokeLease,
		DefaultTimeout:  o.timeout,
		DispatchTimeout: 10 * time.Second,
		Metrics:         telemetry.NewRegistry(),
	}, nil)
	if err != nil {
		return fmt.Errorf("smoke: %w", err)
	}

	n := o.smoke
	type result struct {
		seed  int64
		proof []byte
		err   error
	}
	results := make([]result, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			seed := int64(i + 1)
			proof, err := lb.coord.Prove(ctx, cluster.ProveRequest{Circuit: "synthetic", Seed: seed})
			results[i] = result{seed: seed, proof: proof, err: err}
		}(i)
	}
	batchDone := make(chan struct{})
	go func() {
		wg.Wait()
		close(batchDone)
	}()
	// Crash worker 0 while it owes the batch a proof: its lease expires,
	// the held jobs re-dispatch to worker 1 (or degrade to local), and
	// the batch must still complete.
	crashed := lb.workers[0].crashWhenBusy(batchDone)
	if crashed {
		fmt.Println("coordinator: crashed smoke worker 0 mid-batch")
	}
	<-batchDone

	failed := 0
	for _, r := range results {
		if r.err != nil {
			failed++
			fmt.Printf("coordinator: smoke seed %d FAILED: %v\n", r.seed, r.err)
			continue
		}
		ok, err := local.VerifyProof("synthetic", r.seed, r.proof)
		if err != nil || !ok {
			failed++
			fmt.Printf("coordinator: smoke seed %d proof did not verify (ok=%v err=%v)\n", r.seed, ok, err)
		}
	}
	st := lb.coord.Stats()
	fmt.Printf("coordinator: smoke stats: %d registrations, %d lost nodes, %d recovered jobs, %d redispatches, %d hedges (%d won), %d local fallbacks\n",
		st.Registrations, st.LostNodes, st.LostJobsRecovered, st.Redispatches, st.Hedges, st.HedgeWins, st.LocalFallbacks)

	shCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	lb.close(shCtx)
	if err := local.Shutdown(shCtx); err != nil {
		return fmt.Errorf("smoke: local drain: %w", err)
	}
	if failed > 0 {
		return fmt.Errorf("smoke: %d of %d jobs failed after a worker crash", failed, n)
	}
	if !crashed {
		return errors.New("smoke: worker 0 never held a job, so nothing was crashed")
	}
	if st.LostNodes == 0 {
		return errors.New("smoke: the crashed worker was never marked lost — the failover path did not run")
	}
	if st.LostJobsRecovered == 0 {
		return errors.New("smoke: no job came back through the lost lease — the re-dispatch path did not run")
	}
	fmt.Printf("coordinator: smoke ok — %d jobs survived a worker crash in %v\n", n, time.Since(start).Round(time.Millisecond))
	return nil
}

// runMSMSmoke is the verifiable-outsourcing smoke: coordinator + two
// loopback provd workers, one of them lying on every MSM shard (its
// HTTP client is wrapped with a corrupt-certain node injector, so its
// claims are valid curve points shifted by the generator). Every result
// must be byte-identical to the serial reference, and the run fails
// unless the constant-size check actually rejected something — a smoke
// in which the liar was never caught is a broken smoke.
func runMSMSmoke(ctx context.Context, o options) error {
	start := time.Now()
	liar, err := cluster.NewNodeInjector(cluster.NodeFaultConfig{Seed: 1, Corrupt: 1})
	if err != nil {
		return err
	}
	lb, err := startLoopback(ctx, cluster.Config{
		Lease:           smokeLease,
		DefaultTimeout:  o.timeout,
		DispatchTimeout: 10 * time.Second,
	}, liar)
	if err != nil {
		return fmt.Errorf("msm-smoke: %w", err)
	}

	failed := 0
	for i := 0; i < o.msmSmoke; i++ {
		req := cluster.MSMRequest{Curve: "BN254", PointSeed: uint64(i + 1), ScalarSeed: int64(i + 101), N: 96 + 8*i}
		got, err := lb.coord.MSM(ctx, req)
		if err != nil {
			failed++
			fmt.Printf("coordinator: msm-smoke job %d FAILED: %v\n", i, err)
			continue
		}
		crv, _ := curve.ByName(req.Curve)
		ref := crv.MSMReference(crv.SamplePoints(req.N, req.PointSeed), crv.SampleScalars(req.N, req.ScalarSeed))
		aff := crv.ToAffine(ref)
		if want := serial.MarshalPoint(crv, &aff, false); !bytes.Equal(got, want) {
			failed++
			fmt.Printf("coordinator: msm-smoke job %d diverges from the serial reference — a lie got through\n", i)
		}
	}
	st := lb.coord.Stats()
	fmt.Printf("coordinator: msm-smoke stats: %d checks, %d rejects, %d corrupt claims, %d redispatches, %d local fallbacks\n",
		st.MSMChecks, st.MSMRejects, st.CorruptProofs, st.Redispatches, st.LocalFallbacks)

	shCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	lb.close(shCtx)
	if failed > 0 {
		return fmt.Errorf("msm-smoke: %d of %d jobs failed", failed, o.msmSmoke)
	}
	if st.MSMRejects == 0 {
		return errors.New("msm-smoke: the lying worker was never rejected — the outsourced check did not run")
	}
	fmt.Printf("coordinator: msm-smoke ok — %d MSMs correct with a lying worker, %d lies caught, in %v\n",
		o.msmSmoke, st.MSMRejects, time.Since(start).Round(time.Millisecond))
	return nil
}
