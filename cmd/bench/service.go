package main

import (
	"bytes"
	"context"
	"fmt"
	"math/big"
	"math/rand"
	"sync"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/core"
	"distmsm/internal/gpusim"
	"distmsm/internal/groth16"
	"distmsm/internal/pairing"
	"distmsm/internal/r1cs"
	"distmsm/internal/service"
)

// service_open: an open loop. Jobs arrive on a seeded schedule of
// exponential gaps at a fixed rate whatever the service does, and each is timed from the
// instant it was due, so a stall is charged to every job it delays.
const (
	svcSmall      = 128 // constraints of the "small" circuit
	svcLarge      = 512 // constraints of the "large" circuit
	svcLargeOneIn = 4   // mix 3:1 small:large
	svcRate       = 5.0 // arrivals per second
	svcDeadline   = 8 * time.Second
	svcWorkers    = 2
	svcQueueDepth = 16
)

type serviceInstance struct {
	seed int64
	svc  *service.Service

	registerSmall, registerLarge float64 // seconds, from this set-up

	// hooks, keyed by job ID; filled only while a traced run is on.
	mu      sync.Mutex
	tracing bool
	started map[uint64]time.Time
	done    map[uint64]time.Time

	jobs []svcJob // every submitted job of the timed section, for check
}

type svcJob struct {
	circuit string
	seed    int64
	id      uint64
	proof   *groth16.Proof
	// times for the spans of a traced job
	due, submitted, end time.Time
}

func newBenchService(o runOpts, cfg service.Config) (*service.Service, error) {
	cl, err := gpusim.NewCluster(gpusim.A100(), 8)
	if err != nil {
		return nil, err
	}
	cfg.Cluster, cfg.Workers, cfg.QueueDepth = cl, svcWorkers, svcQueueDepth
	return service.New(cfg)
}

func setupService(ctx context.Context, o runOpts) (instance, error) {
	in := &serviceInstance{seed: o.seed, started: map[uint64]time.Time{}, done: map[uint64]time.Time{}}
	var cfg service.Config
	if o.traced {
		cfg.OnJobStart = func(j *service.Job) { in.hook(in.started, j) }
		cfg.OnJobDone = func(j *service.Job) { in.hook(in.done, j) }
	}
	var err error
	if in.svc, err = newBenchService(o, cfg); err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := in.svc.RegisterSynthetic(ctx, "small", svcSmall); err != nil {
		return nil, err
	}
	t1 := time.Now()
	if err := in.svc.RegisterSynthetic(ctx, "large", svcLarge); err != nil {
		return nil, err
	}
	in.registerSmall, in.registerLarge = t1.Sub(t0).Seconds(), time.Since(t1).Seconds()
	return in, nil
}

// hook stamps a job in one of the two maps. Every other job of a traced
// run is left unstamped, which makes it the untraced side of the
// tracing-overhead ratio.
func (in *serviceInstance) hook(into map[uint64]time.Time, j *service.Job) {
	if j.ID%2 == 0 {
		return
	}
	now := time.Now()
	in.mu.Lock()
	if in.tracing {
		into[j.ID] = now
	}
	in.mu.Unlock()
}

func (in *serviceInstance) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = in.svc.Shutdown(ctx)
}

// proveOne submits one job and waits for it.
func proveOne(ctx context.Context, svc *service.Service, circuit string, seed int64) (*groth16.Proof, error) {
	job, err := svc.Submit(service.Request{Circuit: circuit, Seed: seed, Timeout: svcDeadline})
	if err != nil {
		return nil, err
	}
	return job.Wait(ctx)
}

func (in *serviceInstance) run(ctx context.Context, d time.Duration, warmups int, rec *recorder) runResult {
	rnd := rand.New(rand.NewSource(subSeed(in.seed, 30)))
	due := arrivalSchedule(rnd, svcRate, d)
	in.jobs = make([]svcJob, len(due))
	for k := range in.jobs {
		in.jobs[k].circuit = "small"
		if k%svcLargeOneIn == 0 {
			in.jobs[k].circuit = "large"
		}
		in.jobs[k].seed = rnd.Int63()
	}
	// The mix is exact; the seed only decides where the large jobs fall.
	rnd.Shuffle(len(in.jobs), func(i, j int) {
		in.jobs[i].circuit, in.jobs[j].circuit = in.jobs[j].circuit, in.jobs[i].circuit
	})
	for i := 0; i < warmups; i++ {
		circuit := [2]string{"small", "large"}[i%2]
		if _, err := proveOne(ctx, in.svc, circuit, subSeed(in.seed, 40+i)); err != nil {
			logf("warm-up job %d: %v", i, err)
		}
	}
	in.mu.Lock()
	in.tracing = rec != nil
	in.mu.Unlock()

	res := runResult{openLoop: true, attempted: len(due)}
	type completion struct {
		k   int
		err error
	}
	finished := make(chan completion, len(due)) // one send per job, never blocks
	before := readMem()
	start := time.Now()
	accepted := 0
	for k := range due {
		j := &in.jobs[k]
		j.due = start.Add(due[k])
		time.Sleep(time.Until(j.due))
		j.submitted = time.Now()
		res.lag = append(res.lag, j.submitted.Sub(j.due).Seconds())
		job, err := in.svc.Submit(service.Request{Circuit: j.circuit, Seed: j.seed, Timeout: svcDeadline})
		if err != nil {
			res.failed++ // refused at admission
			continue
		}
		accepted++
		j.id = job.ID
		go func(k int) {
			<-job.Done()
			in.jobs[k].end = time.Now()
			var err error
			in.jobs[k].proof, err = job.Result()
			finished <- completion{k, err}
		}(k)
	}
	type timed struct {
		k   int
		lat time.Duration
	}
	var ok []timed
	for ; accepted > 0; accepted-- {
		c := <-finished
		j := &in.jobs[c.k]
		if lat := j.end.Sub(j.due); c.err != nil || lat > svcDeadline {
			res.failed++ // shed, failed, or late
			j.proof = nil
		} else {
			ok = append(ok, timed{c.k, lat})
		}
	}
	res.wall = time.Since(start)
	res.mem = memSince(before)
	in.mu.Lock()
	in.tracing = false
	in.mu.Unlock()

	for _, t := range ok {
		j := &in.jobs[t.k]
		in.mu.Lock()
		started, traced := in.started[j.id]
		done := in.done[j.id]
		in.mu.Unlock()
		// Only the small circuit stands in the tracing-overhead ratio: the
		// two sides of a run this short rarely draw the same mix.
		res.record(t.lat, traced, j.circuit == "small")
		if !traced || done.IsZero() {
			continue
		}
		lane := 1 + t.k%(svcWorkers+svcQueueDepth)
		id := rec.add("op", 0, t.k, lane, j.due, j.end)
		rec.add("service.queue_wait", id, t.k, lane, j.submitted, started)
		rec.add("service.service_time", id, t.k, lane, started, done)
	}
	return res
}

// check re-verifies the first proofs through the service's own checker
// (the service verified every proof once already, inside the job), and
// re-proves the first job of each circuit, which must give the same
// bytes. A service-side failure is not attributable to one op.
func (in *serviceInstance) check(ctx context.Context) (int, error) {
	eng := in.svc.Engine()
	wrong, verified := 0, 0
	reproved := map[string]bool{}
	for _, j := range in.jobs {
		if j.proof == nil {
			continue
		}
		if verified < 8 {
			verified++
			ok, err := in.svc.VerifyProof(j.circuit, j.seed, eng.MarshalProof(j.proof))
			if err != nil || !ok {
				wrong++
				continue
			}
		}
		if !reproved[j.circuit] {
			reproved[j.circuit] = true
			again, err := proveOne(ctx, in.svc, j.circuit, j.seed)
			if err != nil {
				return wrong, err
			}
			if !bytes.Equal(eng.MarshalProof(again), eng.MarshalProof(j.proof)) {
				wrong++
			}
		}
	}
	if st := in.svc.Stats(); st.Failed != 0 {
		return wrong, fmt.Errorf("service reports %d failed jobs", st.Failed)
	}
	return wrong, nil
}

func (in *serviceInstance) layers(ctx context.Context, o runOpts, spans []span, res runResult, m metrics) error {
	waits := durationsByName(spans, "service.queue_wait")
	m["service.queue_wait_p50_s"] = median(waits)
	m["service.queue_wait_p90_s"] = p90(waits)
	m["service.service_time_p50_s"] = median(durationsByName(spans, "service.service_time"))
	m["service.register_small_s"] = in.registerSmall
	m["service.register_large_s"] = in.registerLarge
	st := in.svc.Stats()
	m["service.base_cache_hits"] = float64(st.BaseCacheHits)
	m["service.batches_coalesced"] = float64(st.BatchesCoalesced)
	m["service.queue_reorders"] = float64(st.QueueReorders)
	m["service.rejected"] = float64(st.Rejected)
	m["service.shed"] = float64(st.ShedExpired + st.ShedDoomed + st.ShedPhase)

	// Submit alone: admission and enqueue, without the proof. Each job is
	// cancelled and awaited outside the timed call, so the queue never
	// fills.
	submits := make([]float64, o.reps(2000))
	for i := range submits {
		t0 := time.Now()
		job, err := in.svc.Submit(service.Request{Circuit: "small", Seed: 1, Timeout: svcDeadline})
		submits[i] = float64(time.Since(t0).Nanoseconds())
		if err != nil {
			return err
		}
		job.Cancel()
		<-job.Done()
	}
	m["service.submit_call_ns"] = median(submits)

	// Saturation: closed-loop batches that fill the queue.
	batches, size := 2, svcQueueDepth
	if o.smoke {
		batches, size = 1, svcQueueDepth/4
	}
	reqs := make([]service.Request, size)
	t0 := time.Now()
	proofs := 0
	for b := 0; b < batches; b++ {
		for i := range reqs {
			reqs[i] = service.Request{Circuit: "small", Seed: subSeed(in.seed, 50+b*len(reqs)+i), Timeout: time.Minute}
		}
		jobs, err := in.svc.SubmitBatch(reqs)
		if err != nil {
			return err
		}
		for _, j := range jobs {
			if _, err := j.Wait(ctx); err != nil {
				return err
			}
			proofs++
		}
	}
	m["service.saturation_proofs_per_s"] = float64(proofs) / time.Since(t0).Seconds()

	// The same circuit without the base cache: every job recomputes
	// from the raw key columns.
	uncached, err := newBenchService(o, service.Config{DisableBaseCache: true})
	if err != nil {
		return err
	}
	defer func() { _ = uncached.Shutdown(ctx) }()
	if err := uncached.RegisterSynthetic(ctx, "small", svcSmall); err != nil {
		return err
	}
	if m["service.uncached_job_s"], err = medianSeconds(o.reps(10), func() error {
		_, err := proveOne(ctx, uncached, "small", subSeed(in.seed, 90))
		return err
	}); err != nil {
		return err
	}

	// The layers under a cached job, on the small circuit's key.
	eng := in.svc.Engine()
	cs, w := r1cs.BuildSynthetic(eng.Fr, svcSmall, 1)
	reps := o.reps(10)
	if m["r1cs.witness_s"], err = medianSeconds(reps, func() error {
		_, _ = r1cs.BuildSynthetic(eng.Fr, svcSmall, subSeed(in.seed, 91))
		return nil
	}); err != nil {
		return err
	}
	var pk *groth16.ProvingKey
	if m["groth16.setup_s"], err = medianSeconds(o.reps(5), func() error {
		var err error
		pk, _, err = eng.SetupContext(ctx, cs, rand.New(rand.NewSource(subSeed(in.seed, 92))))
		return err
	}); err != nil {
		return err
	}
	scalars := make([]bigint.Nat, len(w))
	big2 := make([]*big.Int, len(w))
	for i, a := range w {
		big2[i] = eng.Fr.ToBig(a)
		scalars[i] = bigint.FromBig(big2[i], eng.Fr.Width())
	}
	var fb *core.FixedBase
	if m["core.fixedbase_precompute_s"], err = medianSeconds(o.reps(5), func() error {
		var err error
		fb, err = core.NewFixedBase(eng.P.Curve, pk.A, core.Options{GLV: true})
		return err
	}); err != nil {
		return err
	}
	cl, err := gpusim.NewCluster(gpusim.A100(), 8)
	if err != nil {
		return err
	}
	if m["core.fixedbase_glv_msm_s"], err = medianSeconds(o.reps(30), func() error {
		_, err := core.RunContext(ctx, eng.P.Curve, cl, pk.A, scalars, core.Options{Engine: core.EngineConcurrent, FixedBase: fb})
		return err
	}); err != nil {
		return err
	}
	g2 := eng.P.G2
	var pre *pairing.G2Precomputed
	if m["pairing.g2_precompute_s"], err = medianSeconds(o.reps(5), func() error {
		pre = g2.Precompute(pk.B2, 0, eng.Fr.Modulus.BitLen())
		return nil
	}); err != nil {
		return err
	}
	if m["pairing.g2_precomp_msm_s"], err = medianSeconds(reps, func() error {
		_, err := pre.MSMContext(ctx, big2)
		return err
	}); err != nil {
		return err
	}
	probeTower(o, eng.P, m)

	points := eng.P.Curve.SamplePoints(256, uint64(subSeed(in.seed, 93)))
	probeBigint(o, eng.P.Curve, "4", m)
	probeField(o, eng.P.Fp, m)
	probeCurve(o, eng.P.Curve, points, m)
	return probeNTT(ctx, o, eng.Fr, m)
}
