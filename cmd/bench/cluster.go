package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"distmsm/internal/cluster"
	"distmsm/internal/curve"
	"distmsm/internal/msm"
	"distmsm/internal/outsource"
	"distmsm/internal/serial"
	"distmsm/internal/service"
)

// cluster_msm: one caller issuing Coordinator.MSM on BLS12-381 against
// two in-process worker services over real loopback HTTP, with the
// outsourced check on and no faults. The inputs rotate over
// clusterInputs scalar seeds on one point seed.
const (
	clusterCurve     = "BLS12-381"
	clusterLogN      = 9
	clusterInputs    = 4
	clusterWorkers   = 2
	clusterCircuit   = "synthetic" // what the workers can prove, for cluster.prove_s
	clusterCircuitSz = 64
)

type clusterNode struct {
	svc   *service.Service
	srv   *http.Server
	url   string
	agent *cluster.Agent
}

type clusterInstance struct {
	seed        int64
	crv         *curve.Curve
	coord       *cluster.Coordinator
	coordSrv    *http.Server
	nodes       [clusterWorkers]clusterNode
	pointSeed   uint64
	scalarSeeds [clusterInputs]int64

	outputs []clusterOutput // every op, for check

	// cur is the span context of the op in flight; the dial decorator
	// reads it. Nil between ops and during untraced ops.
	cur      atomic.Pointer[spanCtx]
	lanes    atomic.Int64 // spreads concurrent dispatch spans over trace lanes
	mu       sync.Mutex
	reqBytes []float64
}

type clusterOutput struct {
	input int
	point []byte
}

type spanCtx struct {
	rec        *recorder
	parent, op int
}

// serve starts h on a fresh loopback port.
func serve(h http.Handler) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: h}
	go func() { _ = srv.Serve(ln) }() // ends when close() shuts srv down
	return srv, "http://" + ln.Addr().String(), nil
}

func setupCluster(ctx context.Context, o runOpts) (inst instance, err error) {
	in := &clusterInstance{seed: o.seed, pointSeed: uint64(subSeed(o.seed, 60))}
	defer func() {
		if err != nil {
			in.close()
		}
	}()
	if in.crv, err = curve.ByName(clusterCurve); err != nil {
		return nil, err
	}
	for k := range in.scalarSeeds {
		in.scalarSeeds[k] = subSeed(o.seed, 61+k)
	}
	cfg := cluster.Config{
		DispatchTimeout: 30 * time.Second,
		MSMRandom:       outsource.NewSeededReader(uint64(subSeed(o.seed, 70))),
	}
	if o.traced {
		cfg.DialWorker = func(addr string) cluster.WorkerClient {
			return &timedClient{HTTPWorkerClient: cluster.NewHTTPWorkerClient(addr), in: in}
		}
	}
	in.coord = cluster.NewCoordinator(cfg)
	var coordURL string
	if in.coordSrv, coordURL, err = serve(in.coord.Handler()); err != nil {
		return nil, err
	}
	for i := range in.nodes {
		n := &in.nodes[i]
		if n.svc, err = newBenchService(o, service.Config{}); err != nil {
			return nil, err
		}
		if err = n.svc.RegisterSynthetic(ctx, clusterCircuit, clusterCircuitSz); err != nil {
			return nil, err
		}
		if n.srv, n.url, err = serve(n.svc.Handler()); err != nil {
			return nil, err
		}
		svc := n.svc
		if n.agent, err = cluster.StartAgent(cluster.AgentConfig{
			Coordinator: coordURL,
			NodeID:      fmt.Sprintf("bench-worker-%d", i),
			Addr:        n.url,
			Circuits:    []string{clusterCircuit},
			Workers:     svc.Workers(),
			Load: func() (int, int) {
				st := svc.Stats()
				return st.Queued, st.InFlight
			},
		}); err != nil {
			return nil, err
		}
	}
	for deadline := time.Now().Add(5 * time.Second); in.coord.AliveNodes() < clusterWorkers; {
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("only %d of %d workers registered", in.coord.AliveNodes(), clusterWorkers)
		}
		time.Sleep(2 * time.Millisecond)
	}
	return in, nil
}

func (in *clusterInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	for i := range in.nodes {
		n := &in.nodes[i]
		if n.agent != nil {
			n.agent.Stop()
		}
		if n.srv != nil {
			_ = n.srv.Shutdown(ctx)
		}
		if n.svc != nil {
			_ = n.svc.Shutdown(ctx)
		}
	}
	if in.coordSrv != nil {
		_ = in.coordSrv.Shutdown(ctx)
	}
	if in.coord != nil {
		in.coord.Close()
	}
}

// timedClient is the decorator Config.DialWorker installs in a traced
// run: it records one span per dispatch under the op in flight.
type timedClient struct {
	*cluster.HTTPWorkerClient
	in *clusterInstance
}

func (c *timedClient) DispatchMSM(ctx context.Context, req cluster.MSMDispatchRequest) ([]byte, error) {
	sc := c.in.cur.Load()
	if sc == nil {
		return c.HTTPWorkerClient.DispatchMSM(ctx, req)
	}
	lane := 1 + int(c.in.lanes.Add(1)%8)
	id := sc.rec.begin("cluster.dispatch", sc.parent, sc.op, lane)
	out, err := c.HTTPWorkerClient.DispatchMSM(ctx, req)
	sc.rec.end(id)
	c.in.mu.Lock()
	c.in.reqBytes = append(c.in.reqBytes, float64(len(req.Scalars)))
	c.in.mu.Unlock()
	return out, err
}

func (in *clusterInstance) request(k int) cluster.MSMRequest {
	return cluster.MSMRequest{Curve: clusterCurve, PointSeed: in.pointSeed, ScalarSeed: in.scalarSeeds[k], N: 1 << clusterLogN}
}

func (in *clusterInstance) op(ctx context.Context, i int, rec *recorder, parent int) error {
	k := i % clusterInputs
	id := rec.begin("cluster.MSM", parent, i, 0)
	if rec != nil {
		in.cur.Store(&spanCtx{rec, id, i})
	}
	out, err := in.coord.MSM(ctx, in.request(k))
	in.cur.Store(nil)
	rec.end(id)
	if err != nil {
		return err
	}
	in.outputs = append(in.outputs, clusterOutput{k, out})
	return nil
}

func (in *clusterInstance) run(ctx context.Context, d time.Duration, warmups int, rec *recorder) runResult {
	return closedLoop(ctx, d, warmups, rec, in.op)
}

// check requires every result to be byte-equal to marshalling msm.MSM
// over the same seeds, and the coordinator to have rejected no claim.
func (in *clusterInstance) check(context.Context) (int, error) {
	var refs [clusterInputs][]byte
	for k := range refs {
		req := in.request(k)
		sum, err := msm.MSM(in.crv, in.crv.SamplePoints(req.N, req.PointSeed), in.crv.SampleScalars(req.N, req.ScalarSeed), msm.Config{Signed: true})
		if err != nil {
			return 0, err
		}
		aff := in.crv.ToAffine(sum)
		refs[k] = serial.MarshalPoint(in.crv, &aff, false)
	}
	wrong := 0
	for _, out := range in.outputs {
		if !bytes.Equal(out.point, refs[out.input]) {
			wrong++
		}
	}
	if st := in.coord.Stats(); st.MSMRejects != 0 {
		return wrong, fmt.Errorf("coordinator rejected %d honest MSM claims", st.MSMRejects)
	}
	return wrong, nil
}

func (in *clusterInstance) layers(ctx context.Context, o runOpts, spans []span, res runResult, m metrics) error {
	ops := float64(max(1, len(durationsByName(spans, "cluster.MSM"))))
	dispatches := durationsByName(spans, "cluster.dispatch")
	m["cluster.dispatch_rtt_p50_s"] = median(dispatches)
	m["cluster.dispatches_per_op"] = float64(len(dispatches)) / ops
	m["cluster.coordinator_self_s"] = median(selfByName(spans, "cluster.MSM"))
	in.mu.Lock()
	m["cluster.request_bytes"] = median(in.reqBytes)
	in.mu.Unlock()
	st := in.coord.Stats()
	m["cluster.msm_checks"] = float64(st.MSMChecks) / float64(max(1, res.attempted+o.warmups()))
	m["cluster.msm_rejects"] = float64(st.MSMRejects)
	m["cluster.redispatches"] = float64(st.Redispatches)
	m["cluster.hedges"] = float64(st.Hedges)
	m["cluster.local_fallbacks"] = float64(st.LocalFallbacks)

	// One shard, straight to one worker: the worker's compute path
	// without the coordinator around it.
	req := in.request(0)
	points := in.crv.SamplePoints(req.N, req.PointSeed)
	scalars := in.crv.SampleScalars(req.N, req.ScalarSeed)
	half := req.N / 2
	shard := cluster.MSMDispatchRequest{
		JobID: 1, Curve: clusterCurve, PointSeed: req.PointSeed, RangeLo: 0, RangeHi: half,
		ScalarBits: in.crv.ScalarBits, Scalars: cluster.EncodeMSMScalars(scalars[:half], in.crv.ScalarBits),
	}
	worker := cluster.NewHTTPWorkerClient(in.nodes[0].url)
	reps := o.reps(10)
	var err error
	if m["cluster.worker_msm_s"], err = medianSeconds(reps, func() error {
		_, err := worker.DispatchMSM(ctx, shard)
		return err
	}); err != nil {
		return err
	}
	seed := subSeed(in.seed, 80)
	if m["cluster.prove_s"], err = medianSeconds(reps, func() error {
		seed++
		_, err := in.coord.Prove(ctx, cluster.ProveRequest{Circuit: clusterCircuit, Seed: seed})
		return err
	}); err != nil {
		return err
	}

	// The outsourced check on one shard: derive is one pass over the
	// scalars, the accept decision is constant-size.
	rnd := outsource.NewSeededReader(uint64(subSeed(in.seed, 81)))
	var ck *outsource.Check
	if m["outsource.derive_s"], err = medianSeconds(reps, func() error {
		var err error
		ck, err = outsource.NewCheck(in.crv, points[:half], scalars[:half], outsource.Params{}, rnd)
		return err
	}); err != nil {
		return err
	}
	claimed := in.crv.MSMReference(points[:half], scalars[:half])
	challenge := in.crv.MSMReference(points[:half], ck.Challenge())
	if !ck.Verify(claimed, challenge) {
		return fmt.Errorf("outsourced check rejected an honest claim")
	}
	m["outsource.check_s"], _ = medianSeconds(reps, func() error { ck.Verify(claimed, challenge); return nil })
	m["outsource.challenge_bits"] = float64(ck.ChallengeBits())

	probeBigint(o, in.crv, "6", m)
	m["curve.pacc6_ns"] = paccNS(o, in.crv, points)
	return nil
}
