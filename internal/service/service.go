// Package service is the production proving service of the repo: a
// long-running daemon that accepts Groth16 proof jobs against
// pre-registered circuits and routes every proof's G1 MSMs through the
// simulated multi-GPU DistMSM engine.
//
// The pieces a single-shot prover does not need, and a service cannot
// live without:
//
//   - Admission control: a bounded job queue plus a memory budget.
//     Submissions beyond either bound are rejected *immediately* with a
//     typed QueueFullError carrying a retry-after hint — clients see
//     backpressure, not latency.
//   - End-to-end deadlines: every job gets a deadline measured from
//     Submit (queue wait included), propagated as a context.Context
//     through witness generation, the quotient's coset NTTs, the MSM
//     shards and every Groth16 phase boundary. A job that blows its
//     deadline in the queue fails inside groth16.ProveContextWith with
//     context.DeadlineExceeded, exactly like one that blows it mid-MSM.
//   - Cross-request GPU health: one gpusim.HealthRegistry shared by all
//     jobs. A device that keeps dying or corrupting results is
//     quarantined by its circuit breaker and re-admitted through probe
//     shards; a sick GPU costs the cluster its own share, not a
//     rediscovery per request.
//   - Tail-latency hardening: the pending queue is earliest-deadline-
//     first (EDF) instead of FIFO, so a tight-deadline job is never
//     pinned behind a wall of long-deadline batch work; per-circuit
//     admission quotas (Config.CircuitQuota) bound one hot circuit's
//     share of queue slots and workers; and doomed-job shedding
//     (Config.ShedDoomed) turns jobs that can no longer meet their
//     deadline into fast misses at dequeue and at prover phase
//     boundaries instead of burning a worker on a result nobody can
//     use. cmd/loadgen measures the p50/p99/p999 effect under open-loop
//     Poisson load.
//   - Graceful shutdown: Shutdown stops admission, drains queued and
//     in-flight jobs under a deadline, then cancels the rest. No
//     goroutine outlives it.
package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/core"
	"distmsm/internal/curve"
	"distmsm/internal/field"
	"distmsm/internal/gpusim"
	"distmsm/internal/groth16"
	"distmsm/internal/pairing"
	"distmsm/internal/r1cs"
	"distmsm/internal/telemetry"
)

// Typed sentinels of the service API; all match with errors.Is.
var (
	// ErrQueueFull rejects a submission the admission controller cannot
	// accept right now (queue depth or memory budget exceeded). The
	// concrete error is a *QueueFullError carrying a retry-after hint.
	ErrQueueFull = errors.New("service: queue full")
	// ErrShuttingDown rejects submissions after Shutdown began.
	ErrShuttingDown = errors.New("service: shutting down")
	// ErrUnknownCircuit rejects jobs against a name never registered.
	ErrUnknownCircuit = errors.New("service: unknown circuit")
	// ErrBadRequest rejects malformed job requests (empty or oversized
	// circuit names, negative or absurd timeouts).
	ErrBadRequest = errors.New("service: bad request")
	// ErrProofRejected reports a completed proof that failed the
	// service's own verification — never returned to a client as success.
	ErrProofRejected = errors.New("service: proof failed verification")
)

// QueueFullError is the admission-control rejection: which bound was
// hit and when a retry is likely to be admitted. It unwraps to
// ErrQueueFull.
type QueueFullError struct {
	// Queued is the outstanding job count (waiting + in flight) at
	// rejection time; Depth is the admission capacity it hit. For a
	// quota rejection both are scoped to the submitting circuit.
	Queued, Depth int
	// Memory reports whether the memory budget (not the depth) was the
	// binding constraint.
	Memory bool
	// Quota reports that the submitting circuit's per-circuit admission
	// quota (Config.CircuitQuota) was the binding constraint — the
	// service as a whole still has room, this circuit does not. Circuit
	// names it.
	Quota   bool
	Circuit string
	// RetryAfter estimates how long until a retry of this submission is
	// likely to be admitted. For a capacity rejection that is the first
	// completion among the in-flight jobs (one completion frees one
	// outstanding slot); for a quota rejection it is the time for the
	// submitting circuit to drain its own backlog through its own
	// in-flight lanes — computed from the circuit's completion-time
	// EWMA, so a hot over-quota circuit gets an honestly larger hint
	// than one rejected by global capacity.
	RetryAfter time.Duration
}

// RetryAfterHint returns the retry-after estimate. It exists so callers
// that must not import this package (internal/cluster's coordinator,
// whose dependency arrow points the other way) can detect retryable
// admission rejections structurally via errors.As.
func (e *QueueFullError) RetryAfterHint() time.Duration { return e.RetryAfter }

func (e *QueueFullError) Error() string {
	bound := fmt.Sprintf("%d/%d jobs queued", e.Queued, e.Depth)
	switch {
	case e.Memory:
		bound = "memory budget exceeded"
	case e.Quota:
		bound = fmt.Sprintf("circuit %q over quota (%d/%d slots)", e.Circuit, e.Queued, e.Depth)
	}
	return fmt.Sprintf("service: queue full (%s), retry after %v", bound, e.RetryAfter)
}

func (e *QueueFullError) Unwrap() error { return ErrQueueFull }

// Shed reasons — the label values of distmsm_jobs_shed_total and the
// Reason field of ShedError.
const (
	// ShedExpired: the deadline had already passed when a worker reached
	// the job (it missed in the queue).
	ShedExpired = "expired"
	// ShedDoomed: the deadline had not passed at dequeue, but the
	// remaining budget was below the circuit's EWMA prove time — the job
	// would almost surely have burned a worker only to miss anyway.
	ShedDoomed = "doomed"
	// ShedPhase: mid-prove, the remaining budget dropped below the EWMA
	// cost of the next MSM phase; the job is dropped at the phase
	// boundary instead of launching work it cannot finish.
	ShedPhase = "phase"
)

// ShedError reports a job dropped by doomed-job shedding
// (Config.ShedDoomed): the service concluded the job could no longer
// meet its deadline and failed it fast instead of burning a worker. It
// unwraps to context.DeadlineExceeded — from the client's seat a shed
// job is a deadline miss, just a cheap one.
type ShedError struct {
	// Reason is one of ShedExpired, ShedDoomed, ShedPhase.
	Reason string
	// Remaining is the budget left on the deadline at the shed decision
	// (negative when already expired); Estimate is the EWMA cost the
	// budget was compared against (zero for ShedExpired).
	Remaining, Estimate time.Duration
}

func (e *ShedError) Error() string {
	if e.Reason == ShedExpired {
		return fmt.Sprintf("service: job shed (%s): deadline passed %v ago", e.Reason, -e.Remaining)
	}
	return fmt.Sprintf("service: job shed (%s): %v remaining < %v estimated", e.Reason, e.Remaining, e.Estimate)
}

func (e *ShedError) Unwrap() error { return context.DeadlineExceeded }

// Config configures a Service. Cluster is required; everything else has
// a documented default.
type Config struct {
	// Cluster is the simulated multi-GPU system the proofs' MSMs run on.
	Cluster *gpusim.Cluster
	// Workers is the proving worker-pool size — the service's in-flight
	// bound. Default: one worker per DGX node of the cluster (each job's
	// MSMs already fan out across the node's GPUs; more workers would
	// oversubscribe the same simulated devices).
	Workers int
	// QueueDepth bounds the jobs waiting for a worker: admission accepts
	// at most Workers+QueueDepth outstanding jobs. Default 2×Workers.
	QueueDepth int
	// QueuePolicy orders the pending queue: QueueEDF (the default) pops
	// the earliest-deadline job first so tight-deadline work is never
	// stuck behind long-deadline batch jobs; QueueFIFO keeps strict
	// arrival order. Deadline ties break by arrival order either way,
	// so EDF is exactly FIFO for uniform-timeout workloads.
	QueuePolicy QueuePolicy
	// CoalesceSlack gates circuit-affinity coalescing under EDF: a
	// worker may prefer a same-circuit job over the earliest-deadline
	// job only while that earliest deadline still has at least this
	// much slack — cache affinity is a throughput optimisation and must
	// never cause a miss the EDF order would have avoided. 0 uses the
	// 1s default; negative disables the gate (affinity always wins, the
	// legacy behaviour). Ignored under QueueFIFO.
	CoalesceSlack time.Duration
	// CircuitQuota bounds each circuit's share of the service, as a
	// fraction in (0, 1]: a circuit may hold at most
	// ceil(CircuitQuota·(Workers+QueueDepth)) outstanding jobs (submits
	// beyond that are rejected with a Quota-flagged QueueFullError) and
	// at most ceil(CircuitQuota·Workers) jobs on workers at once (the
	// scheduler passes over its jobs while it is at the limit). One hot
	// circuit can then never starve the rest of the mix. 0 (the
	// default) disables quotas.
	CircuitQuota float64
	// ShedDoomed enables doomed-job shedding: at dequeue, jobs whose
	// deadline already passed — or whose remaining budget is below the
	// circuit's EWMA prove time — are failed immediately as deadline
	// misses (*ShedError, unwrapping context.DeadlineExceeded) without
	// burning a worker on a prove; mid-prove, the same check runs
	// against each MSM phase's EWMA cost at the phase boundary. Off by
	// default: shedding pre-empts the documented guarantee that an
	// expired job's DeadlineExceeded surfaces from inside
	// groth16.ProveContextWith, so it is an explicit opt-in.
	ShedDoomed bool
	// MemoryBudget bounds the summed memory estimates of queued and
	// in-flight jobs plus the resident fixed-base tables (circuit and
	// /v1/msm shard tables, which yield to jobs by LRU eviction), in
	// bytes; 0 means unbounded.
	MemoryBudget int64
	// DefaultTimeout is the per-job deadline when the request does not
	// set one (default 1 minute). The deadline is end-to-end from Submit.
	DefaultTimeout time.Duration
	// Health tunes the cross-request GPU circuit breakers.
	Health gpusim.HealthConfig
	// Faults optionally injects deterministic GPU faults into every job's
	// MSMs (chaos testing); nil injects nothing.
	Faults *gpusim.FaultConfig
	// Retry tunes the MSM scheduler's fault handling.
	Retry core.RetryPolicy
	// WindowSize pins the MSM window size; 0 lets the planner choose.
	WindowSize int
	// DisableBaseCache turns off the resident fixed-base tables:
	// RegisterCircuit then skips the proving-key table precomputation and
	// every job recomputes from the raw key columns, and /v1/msm shards
	// derive their base range per request and run the variable-base plan
	// (the pre-cache behaviour; mostly useful for benchmarking the cache
	// itself).
	DisableBaseCache bool
	// OnJobStart/OnJobDone, when set, are called on the worker goroutine
	// immediately before and after each job's proving pipeline —
	// observability hooks, also used by the tests to synchronise with the
	// pool.
	OnJobStart func(*Job)
	OnJobDone  func(*Job)
	// Metrics, when set, receives the service's operational metrics:
	// job outcomes and latency, queue depth, admission rejects, deadline
	// misses, the scheduler's fault/retry/steal/speculation rates and
	// per-GPU breaker-state gauges. Expose it with Registry.Handler (the
	// service's Handler mounts it at /v1/metrics automatically). Nil
	// disables metrics at the cost of a nil check per event.
	Metrics *telemetry.Registry
	// TraceDir, when set, records a span trace of every job's proving
	// pipeline (Groth16 phases, MSM scatter/shard/reduce) and writes it
	// as Chrome trace_event JSON to TraceDir/job-<id>.trace.json when
	// the job reaches a terminal state. Empty disables tracing.
	TraceDir string
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = c.Cluster.Nodes()
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 2 * c.Workers
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = time.Minute
	}
	if c.CoalesceSlack == 0 {
		c.CoalesceSlack = time.Second
	}
	return c
}

// circuit is one registered proving target: the constraint system, its
// Groth16 keys, the server-side witness generator and the job memory
// estimate.
type circuit struct {
	name    string
	cs      *r1cs.System
	pk      *groth16.ProvingKey
	vk      *groth16.VerifyingKey
	witness func(seed int64) ([]field.Element, error)
	// memEst is the *marginal* per-job footprint (witness, NTT vectors,
	// quotient, scratch). The cached fixed-base tables are deliberately
	// NOT part of it: they are shared by every job of the circuit and
	// charged to the budget exactly once, at registration — charging them
	// per job double-counted the same tables once per queued job and made
	// the admission controller reject far below the real footprint.
	memEst int64
	// bases is the circuit's cached fixed-base precomputation; nil when
	// the cache is disabled, the budget had no room, or it was evicted.
	// Guarded by Service.mu; the pointed-to tables are immutable, so a
	// job that grabbed the pointer survives a concurrent eviction.
	bases *circuitBases
	// ewmaSec is the circuit's own completion-time EWMA, fed by the same
	// outcomes as the service-wide one. It prices this circuit's
	// retry-after hints and the doomed-job shed decision (a job whose
	// remaining budget is below it is a near-certain miss). Guarded by
	// Service.mu.
	ewmaSec telemetry.EWMA
	// phaseEwma tracks the EWMA wall cost of each G1 MSM phase for this
	// circuit (indexed by groth16.MSMPhase), feeding the phase-boundary
	// shed check. Guarded by Service.mu.
	phaseEwma [4]telemetry.EWMA
}

// circuitBases is one circuit's proving-key precomputation: §2.3.1
// per-window tables (with the GLV split folded in — BN254 G1 has
// cofactor 1, so every key column lives in the prime-order subgroup)
// for the four G1 columns, and the Jacobian-reduce fixed-base tables
// for the G2 column B2. Only witness-dependent work remains per job.
type circuitBases struct {
	cachedTables                    // budget charge and LRU clock, see tables.go
	g1           [4]*core.FixedBase // indexed by groth16.MSMPhase
	b2           *pairing.G2Precomputed
}

// JobState is the lifecycle of one job.
type JobState int32

const (
	JobQueued JobState = iota
	JobProving
	JobDone
)

// Job is one accepted proof request. Wait for it, or Cancel it.
type Job struct {
	ID      uint64
	Circuit string
	Seed    int64
	// Deadline is the job's end-to-end deadline, measured from Submit.
	Deadline time.Time

	svc    *Service
	ctx    context.Context
	cancel context.CancelFunc
	done   chan struct{}

	mu    sync.Mutex
	state JobState
	proof *groth16.Proof
	err   error
}

// Cancel aborts the job wherever it is — queued jobs fail without
// running, proving jobs unwind at the next cancellation point of the
// pipeline. Safe to call at any time, from any goroutine, repeatedly.
func (j *Job) Cancel() { j.cancel() }

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// Wait blocks until the job completes or ctx is cancelled. On
// completion it returns the job's own result, whatever ctx did.
func (j *Job) Wait(ctx context.Context) (*groth16.Proof, error) {
	select {
	case <-j.done:
		return j.Result()
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Result returns the terminal (proof, error) pair; it is only
// meaningful after Done is closed.
func (j *Job) Result() (*groth16.Proof, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.proof, j.err
}

// State returns the job's current lifecycle state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

func (j *Job) finish(p *groth16.Proof, err error) {
	j.mu.Lock()
	j.state = JobDone
	j.proof = p
	j.err = err
	j.mu.Unlock()
	j.cancel() // release the deadline timer
	close(j.done)
}

// Stats is a counters snapshot of the service.
type Stats struct {
	Submitted uint64
	Rejected  uint64 // admission-control rejections (ErrQueueFull)
	Completed uint64 // proofs returned, verified
	Failed    uint64 // terminal errors (faults, verification, internal)
	Cancelled uint64 // context cancellations / deadline misses
	Queued    int    // jobs waiting for a worker, right now
	InFlight  int    // jobs on a worker, right now
	// MemoryInUse is the summed memory estimate of queued + in-flight
	// jobs plus the resident fixed-base tables, in bytes.
	MemoryInUse int64
	// Base-cache counters, over both kinds of resident table — a
	// circuit's proving-key tables and a /v1/msm shard range's base
	// tables: jobs and shards served from resident tables (hits), those
	// that ran without (misses: no cache, an evicted circuit, a shard
	// range's first-sight build), table sets dropped under memory
	// pressure (evictions), and the bytes currently resident.
	BaseCacheHits      uint64
	BaseCacheMisses    uint64
	BaseCacheEvictions uint64
	BaseCacheBytes     int64
	// BatchesCoalesced counts worker dequeues that stayed on the
	// previous job's circuit (cache-affinity pops).
	BatchesCoalesced uint64
	// QueueReorders counts dequeues where the deadline order overtook
	// arrival order — the popped job was not the oldest pending one.
	// Zero under QueueFIFO (and under EDF with uniform timeouts); a
	// live EDF path under a mixed-deadline load must move it.
	QueueReorders uint64
	// QuotaRejected counts submissions rejected by the per-circuit
	// admission quota (a subset of Rejected).
	QuotaRejected uint64
	// Shed counters, by reason: jobs dropped by doomed-job shedding as
	// fast deadline misses (also counted in Cancelled). ShedExpired
	// jobs were already past deadline at dequeue, ShedDoomed had less
	// budget left than the circuit's EWMA prove time, ShedPhase ran out
	// of budget at a prover phase boundary mid-job.
	ShedExpired uint64
	ShedDoomed  uint64
	ShedPhase   uint64
}

// Service is the proving daemon. Build with New, stop with Shutdown.
type Service struct {
	cfg     Config
	eng     *groth16.Engine
	cluster *gpusim.Cluster // cfg.Cluster with the health registry attached
	health  *gpusim.HealthRegistry
	metrics *serviceMetrics // nil when Config.Metrics is unset

	// baseCtx parents every job context; cancelling it (forced shutdown)
	// aborts all in-flight work.
	baseCtx   context.Context
	baseStop  context.CancelFunc
	workersWG sync.WaitGroup

	mu       sync.Mutex
	cond     *sync.Cond // signals queue arrivals, quota releases and shutdown
	circuits map[string]*circuit
	// queue is the waiting-job priority queue: EDF by default, strict
	// FIFO under Config.QueuePolicy == QueueFIFO, with circuit-affinity
	// coalescing layered on top (see nextJob): a worker prefers a job
	// of the circuit it just proved, so same-circuit jobs run back to
	// back on warm caches — bounded by coalesceBurst for fairness and,
	// under EDF, by Config.CoalesceSlack so affinity never endangers
	// the earliest deadline.
	queue jobQueue
	// inFlightBy / outstandingBy track each circuit's jobs on workers
	// and queued+on-workers — the occupancy the per-circuit quota
	// bounds and retry-after hints are computed from.
	inFlightBy    map[string]int
	outstandingBy map[string]int
	closed        bool
	nextID        uint64
	memInUse      int64
	queued        int
	inFlight      int
	stats         Stats
	// ewmaJobSec is the completion-time EWMA feeding retry-after hints,
	// a telemetry.EWMA held as plain seconds.
	ewmaJobSec float64
	// tables lists every resident fixed-base table set — circuit bases
	// and /v1/msm shard bases alike — for the one LRU (tables.go); shards
	// indexes the shard entries, in-flight builds included.
	tables []*cachedTables
	shards map[shardKey]*shardBases
}

// coalesceBurst bounds how many consecutive jobs a worker may pull by
// circuit affinity before it must take the queue head: same-circuit
// batches keep the base caches warm, the cap keeps other circuits from
// starving behind a deep single-circuit backlog.
const coalesceBurst = 16

// New validates the configuration, builds the Groth16 engine and the
// health registry, and starts the worker pool.
func New(cfg Config) (*Service, error) {
	if cfg.Cluster == nil {
		return nil, fmt.Errorf("%w: Config.Cluster is required", ErrBadRequest)
	}
	if err := cfg.Retry.Validate(); err != nil {
		return nil, err
	}
	if cfg.Faults != nil {
		// Validate eagerly: a bad fault config should fail service start,
		// not every job.
		if _, err := gpusim.NewFaultInjector(*cfg.Faults); err != nil {
			return nil, err
		}
	}
	if cfg.CircuitQuota < 0 || cfg.CircuitQuota > 1 {
		return nil, fmt.Errorf("%w: CircuitQuota = %v outside [0, 1]", ErrBadRequest, cfg.CircuitQuota)
	}
	if cfg.QueuePolicy != QueueEDF && cfg.QueuePolicy != QueueFIFO {
		return nil, fmt.Errorf("%w: unknown QueuePolicy %d", ErrBadRequest, cfg.QueuePolicy)
	}
	cfg = cfg.withDefaults()
	eng, err := groth16.NewEngine()
	if err != nil {
		return nil, err
	}
	reg := gpusim.NewHealthRegistry(cfg.Health)
	s := &Service{
		cfg:           cfg,
		eng:           eng,
		cluster:       cfg.Cluster.WithHealth(reg),
		health:        reg,
		circuits:      map[string]*circuit{},
		queue:         jobQueue{policy: cfg.QueuePolicy},
		inFlightBy:    map[string]int{},
		outstandingBy: map[string]int{},
		shards:        map[shardKey]*shardBases{},
	}
	s.cond = sync.NewCond(&s.mu)
	s.metrics = newServiceMetrics(cfg.Metrics, reg, s.cluster.N)
	s.baseCtx, s.baseStop = context.WithCancel(context.Background())
	for w := 0; w < cfg.Workers; w++ {
		s.workersWG.Add(1)
		go s.worker()
	}
	return s, nil
}

// Engine exposes the service's Groth16 engine (marshalling, field).
func (s *Service) Engine() *groth16.Engine { return s.eng }

// Health returns the per-GPU breaker snapshot.
func (s *Service) Health() []gpusim.GPUHealth { return s.health.Snapshot(s.cluster.N) }

// Workers returns the proving-pool size.
func (s *Service) Workers() int { return s.cfg.Workers }

// RegisterCircuit runs the trusted setup for cs and registers it under
// name with a server-side witness generator (jobs reference circuits by
// name and carry only a witness seed — proof requests stay small). The
// context bounds the setup itself.
//
// Unless Config.DisableBaseCache is set, registration also precomputes
// the circuit's fixed-base tables — the §2.3.1 per-window tables (with
// the GLV split) for the G1 key columns A/B1/K/Z and the
// Jacobian-reduce tables for the G2 column B2 — so every job against
// the circuit runs only witness-dependent work. The tables are charged
// to the memory budget once, here; when the budget has no room (after
// evicting colder caches) the circuit registers uncached and jobs fall
// back to the raw key columns.
func (s *Service) RegisterCircuit(ctx context.Context, name string, cs *r1cs.System, witness func(seed int64) ([]field.Element, error)) error {
	if name == "" {
		return fmt.Errorf("%w: empty circuit name", ErrBadRequest)
	}
	pk, vk, err := s.eng.SetupContext(ctx, cs, rand.New(rand.NewSource(int64(len(name))+int64(cs.NVars))))
	if err != nil {
		return err
	}
	c := &circuit{name: name, cs: cs, pk: pk, vk: vk, witness: witness, memEst: estimateJobBytes(cs)}
	var bases *circuitBases
	if !s.cfg.DisableBaseCache {
		// Built outside s.mu — table construction is the expensive part of
		// registration and must not block Submit/Stats.
		if bases, err = s.buildBases(ctx, pk); err != nil {
			return err
		}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrShuttingDown
	}
	if _, dup := s.circuits[name]; dup {
		return fmt.Errorf("%w: circuit %q already registered", ErrBadRequest, name)
	}
	if bases != nil {
		bases.drop = func() { c.bases = nil }
		if !s.admitTablesLocked(&bases.cachedTables) {
			bases = nil // no room even after eviction: register uncached
		}
	}
	c.bases = bases
	s.circuits[name] = c
	return nil
}

// buildBases precomputes a proving key's fixed-base tables. The context
// is checked between columns — table construction over a large key is
// the dominant cost of registration.
func (s *Service) buildBases(ctx context.Context, pk *groth16.ProvingKey) (*circuitBases, error) {
	b := &circuitBases{}
	opts := core.Options{WindowSize: s.cfg.WindowSize, GLV: true}
	for phase, col := range map[groth16.MSMPhase][]curve.PointAffine{
		groth16.PhaseA: pk.A, groth16.PhaseB1: pk.B1, groth16.PhaseK: pk.K, groth16.PhaseZ: pk.Z,
	} {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		fb, err := core.NewFixedBase(s.eng.P.Curve, col, opts)
		if err != nil {
			return nil, err
		}
		b.g1[phase] = fb
		b.mem += fb.MemoryBytes()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	b.b2 = s.eng.P.G2.Precompute(pk.B2, s.cfg.WindowSize, s.eng.Fr.Modulus.BitLen())
	b.mem += b.b2.MemoryBytes()
	return b, nil
}

// RegisterSynthetic registers the n-constraint synthetic workload
// circuit under name. The circuit (a multiply chain
// x_{q+1} = x_q·(x_q + c_q) ending in a public output) is fixed, but
// its starting value is a free private input, so the witness generator
// derives x_0 from the job seed and walks the chain — every seed proves
// a different statement against the same proving key.
func (s *Service) RegisterSynthetic(ctx context.Context, name string, n int) error {
	f := s.eng.Fr
	cs, _ := r1cs.BuildSynthetic(f, n, 1)
	// Replay the builder's RNG to recover the chain coefficients baked
	// into the constraints (its first draw is the x_0 we re-derive).
	rnd := rand.New(rand.NewSource(1))
	f.Rand(rnd)
	coeffs := make([]field.Element, n)
	for q := range coeffs {
		coeffs[q] = f.Rand(rnd)
	}
	return s.RegisterCircuit(ctx, name, cs, func(seed int64) ([]field.Element, error) {
		w := cs.NewWitness()
		x := f.Rand(rand.New(rand.NewSource(seed)))
		// Variable layout of BuildSynthetic: slot 1 is the public output,
		// slots 2..2+n are the chain values x_0..x_n.
		for q := 0; q < n; q++ {
			w[2+q].Set(x)
			t := f.NewElement()
			f.Add(t, x, coeffs[q])
			next := f.NewElement()
			f.Mul(next, x, t)
			x = next
		}
		w[2+n].Set(x)
		w[1].Set(x)
		return w, nil
	})
}

// estimateJobBytes is the admission controller's per-job memory model:
// the witness, the three QAP evaluation vectors over the (padded)
// domain, and the quotient, at 32 bytes per field element, plus a fixed
// overhead for buckets and scratch.
func estimateJobBytes(cs *r1cs.System) int64 {
	d := 1
	for d < len(cs.Constraints)+1 {
		d <<= 1
	}
	const elem = 32
	return int64(cs.NVars+4*d)*elem + 1<<16
}

// Request is one proof submission.
type Request struct {
	// Circuit names a registered circuit.
	Circuit string
	// Seed parameterises the server-side witness generator; the same
	// (circuit, seed) always proves the same statement.
	Seed int64
	// Timeout is the end-to-end deadline measured from Submit; 0 uses
	// the service default.
	Timeout time.Duration
}

// Submit runs admission control and, if the job is accepted, enqueues
// it. It never blocks: over-capacity submissions fail immediately with
// a *QueueFullError (errors.Is ErrQueueFull) so clients can back off.
// The returned Job is live — Wait on it or Cancel it.
func (s *Service) Submit(req Request) (*Job, error) {
	jobs, err := s.SubmitBatch([]Request{req})
	if err != nil {
		return nil, err
	}
	return jobs[0], nil
}

// SubmitBatch admits a group of proof requests atomically: either every
// job is accepted and enqueued, or none is and the batch fails with one
// error (admission is all-or-nothing so a client never has to unwind a
// half-accepted batch). Enqueued together, same-circuit jobs coalesce
// on the workers and amortise the circuit's cached fixed-base tables.
func (s *Service) SubmitBatch(reqs []Request) ([]*Job, error) {
	if len(reqs) == 0 {
		return nil, fmt.Errorf("%w: empty batch", ErrBadRequest)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Submitted += uint64(len(reqs))
	if s.closed {
		return nil, ErrShuttingDown
	}
	var batchMem int64
	for _, req := range reqs {
		c := s.circuits[req.Circuit]
		if c == nil {
			return nil, fmt.Errorf("%w: %q", ErrUnknownCircuit, req.Circuit)
		}
		batchMem += c.memEst
	}
	// Admission bounds *outstanding* jobs: Workers in flight plus
	// QueueDepth waiting. A freshly accepted job counts as queued until a
	// worker dequeues it, so the two are bounded together. Jobs carry
	// only their marginal footprint — the circuit's cached tables were
	// charged once at registration.
	outstanding := s.queued + s.inFlight
	capacity := s.cfg.QueueDepth + s.cfg.Workers
	if outstanding+len(reqs) > capacity {
		s.stats.Rejected += uint64(len(reqs))
		s.metrics.observeAdmission(true)
		return nil, &QueueFullError{Queued: outstanding, Depth: capacity, RetryAfter: s.retryAfterLocked(reqs[0].Circuit)}
	}
	// Per-circuit quota: no circuit may hold more than its share of the
	// admission capacity, so one hot circuit cannot occupy every queue
	// slot and starve the rest of the mix. All-or-nothing like the
	// bounds above — the whole batch is rejected if any member circuit
	// would go over.
	if s.cfg.CircuitQuota > 0 {
		slots := s.quotaSlotsLocked()
		byCircuit := map[string]int{}
		for _, req := range reqs {
			byCircuit[req.Circuit]++
		}
		for name, n := range byCircuit {
			if s.outstandingBy[name]+n > slots {
				s.stats.Rejected += uint64(len(reqs))
				s.stats.QuotaRejected += uint64(len(reqs))
				s.metrics.observeAdmission(true)
				return nil, &QueueFullError{
					Queued: s.outstandingBy[name], Depth: slots,
					Quota: true, Circuit: name,
					RetryAfter: s.quotaRetryAfterLocked(name),
				}
			}
		}
	}
	if s.cfg.MemoryBudget > 0 && s.memInUse+batchMem > s.cfg.MemoryBudget {
		// Cached tables are reclaimable: drop cold ones before rejecting.
		s.evictTablesLocked(s.memInUse+batchMem-s.cfg.MemoryBudget, false)
	}
	if s.cfg.MemoryBudget > 0 && s.memInUse+batchMem > s.cfg.MemoryBudget {
		s.stats.Rejected += uint64(len(reqs))
		s.metrics.observeAdmission(true)
		return nil, &QueueFullError{Queued: outstanding, Depth: capacity, Memory: true, RetryAfter: s.retryAfterLocked(reqs[0].Circuit)}
	}
	s.metrics.observeAdmission(false)
	jobs := make([]*Job, len(reqs))
	now := time.Now()
	for i, req := range reqs {
		timeout := req.Timeout
		if timeout == 0 {
			timeout = s.cfg.DefaultTimeout
		}
		s.nextID++
		job := &Job{
			ID:       s.nextID,
			Circuit:  req.Circuit,
			Seed:     req.Seed,
			Deadline: now.Add(timeout),
			svc:      s,
			done:     make(chan struct{}),
		}
		job.ctx, job.cancel = context.WithDeadline(s.baseCtx, job.Deadline)
		s.queue.add(job)
		s.queued++
		s.outstandingBy[req.Circuit]++
		s.memInUse += s.circuits[req.Circuit].memEst
		jobs[i] = job
	}
	s.stats.Queued = s.queued
	s.stats.MemoryInUse = s.memInUse
	s.metrics.observeOccupancy(s.queued, s.inFlight, s.memInUse)
	if len(reqs) == 1 {
		s.cond.Signal()
	} else {
		s.cond.Broadcast()
	}
	return jobs, nil
}

// quotaSlotsLocked is the outstanding-job bound per circuit under
// Config.CircuitQuota: the circuit's share of the admission capacity,
// rounded up, never below one slot.
func (s *Service) quotaSlotsLocked() int {
	slots := int(math.Ceil(s.cfg.CircuitQuota * float64(s.cfg.Workers+s.cfg.QueueDepth)))
	if slots < 1 {
		slots = 1
	}
	return slots
}

// quotaLanesLocked is the in-flight bound per circuit under
// Config.CircuitQuota: the circuit's share of the worker pool, rounded
// up, never below one lane.
func (s *Service) quotaLanesLocked() int {
	lanes := int(math.Ceil(s.cfg.CircuitQuota * float64(s.cfg.Workers)))
	if lanes < 1 {
		lanes = 1
	}
	if lanes > s.cfg.Workers {
		lanes = s.cfg.Workers
	}
	return lanes
}

// circuitEwmaLocked is the best completion-time estimate for pricing a
// circuit's retry hints: the circuit's own EWMA when calibrated, the
// service-wide one otherwise, 1s before anything has completed.
func (s *Service) circuitEwmaLocked(circuit string) float64 {
	if c := s.circuits[circuit]; c != nil && c.ewmaSec.Ready() {
		return float64(c.ewmaSec)
	}
	if s.ewmaJobSec > 0 {
		return s.ewmaJobSec
	}
	return 1
}

// retryAfterFloor keeps hints from telling clients to hot-loop.
const retryAfterFloor = 100 * time.Millisecond

// retryAfterLocked prices a capacity (or memory) rejection: admission
// needs exactly one outstanding slot, and one frees at the first
// terminal completion among the in-flight jobs — expected at about one
// job time divided by the number of jobs racing to finish. The old hint
// assumed the whole queue had to drain FIFO ahead of the newcomer,
// which is not how a bounded-outstanding admission check works (and
// under EDF the newcomer may well run before the backlog).
func (s *Service) retryAfterLocked(circuit string) time.Duration {
	racing := s.inFlight
	if racing < 1 {
		racing = 1
	}
	d := time.Duration(s.circuitEwmaLocked(circuit) / float64(racing) * float64(time.Second))
	if d < retryAfterFloor {
		d = retryAfterFloor
	}
	return d
}

// quotaRetryAfterLocked prices a per-circuit quota rejection: the
// circuit must drain its own backlog through its own in-flight lanes
// before a quota slot reliably frees, so the hint scales with the
// circuit's occupancy over its lane count at its own EWMA job time — an
// over-quota circuit is told to wait longer than one bouncing off
// global capacity, honestly reflecting that its slots are the scarce
// resource.
func (s *Service) quotaRetryAfterLocked(circuit string) time.Duration {
	occupancy := s.outstandingBy[circuit]
	if occupancy < 1 {
		occupancy = 1
	}
	d := time.Duration(s.circuitEwmaLocked(circuit) * float64(occupancy) / float64(s.quotaLanesLocked()) * float64(time.Second))
	if d < retryAfterFloor {
		d = retryAfterFloor
	}
	return d
}

// worker is one proving-pool goroutine: pull a job, shed it if it can
// no longer meet its deadline, otherwise run the pipeline under the
// job's deadline and publish the result. Exits when the queue is closed
// and drained.
func (s *Service) worker() {
	defer s.workersWG.Done()
	var lastCircuit string
	burst := 0
	for {
		job := s.nextJob(&lastCircuit, &burst)
		if job == nil {
			return
		}
		if shed := s.shedVerdict(job); shed != nil {
			s.shedJob(job, shed)
			continue
		}
		s.runJob(job)
	}
}

// nextJob blocks for the worker's next job, which is chosen in three
// layers:
//
//  1. Policy order: the earliest-deadline pending job (EDF, the
//     default) or the oldest (FIFO), skipping circuits at their
//     in-flight quota.
//  2. Circuit affinity: the worker prefers a job of the circuit it just
//     proved — same-circuit runs reuse the warm base cache back to back
//     — but after coalesceBurst consecutive affinity pops it must take
//     the policy head, so other circuits cannot starve, and under EDF
//     affinity is only allowed while the policy head's deadline has at
//     least Config.CoalesceSlack of slack left: cache warmth must never
//     cost a miss the deadline order would have avoided.
//  3. Quota gating: when every pending job's circuit is at its
//     in-flight quota the worker waits for a completion to free a lane
//     rather than oversubscribe a hot circuit.
//
// Returns nil when the service is closed and the queue drained; during
// shutdown the quota gate is dropped so draining cannot deadlock.
func (s *Service) nextJob(lastCircuit *string, burst *int) *Job {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.queue.Len() == 0 {
			if s.closed {
				return nil
			}
			s.cond.Wait()
			continue
		}
		idx, reordered := s.selectLocked(*lastCircuit, *burst)
		if idx < 0 {
			// Everything pending is quota-blocked: a lane frees when an
			// in-flight job (there is at least one — every blocked circuit
			// holds at least a full lane) reaches a terminal state.
			s.cond.Wait()
			continue
		}
		job := s.queue.removeAt(idx)
		if reordered {
			s.stats.QueueReorders++
			s.metrics.observeReorder()
		}
		if job.Circuit == *lastCircuit {
			*burst++
			s.stats.BatchesCoalesced++
		} else {
			*lastCircuit = job.Circuit
			*burst = 1
		}
		return job
	}
}

// selectLocked picks the next job's heap index (see nextJob for the
// policy), or -1 when every pending job is quota-blocked. reordered
// reports a deadline-driven pop that overtook an older job — the
// QueueReorders signal.
func (s *Service) selectLocked(lastCircuit string, burst int) (idx int, reordered bool) {
	eligible := func(j *Job) bool { return s.laneFreeLocked(j.Circuit) }
	if s.closed {
		// Drain mode: quota gating is about fairness under load, and a
		// closing service must not strand queued jobs behind it.
		eligible = func(*Job) bool { return true }
	}
	head := s.queue.bestEligible(eligible)
	if head < 0 {
		return -1, false
	}
	pick := head
	if lastCircuit != "" && burst < coalesceBurst && s.queue.items[head].Circuit != lastCircuit &&
		s.affinityAllowedLocked(s.queue.items[head]) {
		if ai := s.queue.bestFor(lastCircuit, eligible); ai >= 0 {
			pick = ai
		}
	}
	oldest, haveOldest := s.queue.oldestID()
	reordered = s.cfg.QueuePolicy == QueueEDF && pick == head &&
		haveOldest && s.queue.items[pick].ID != oldest
	return pick, reordered
}

// affinityAllowedLocked gates circuit-affinity coalescing: under EDF a
// worker may bypass the earliest-deadline job for cache warmth only
// while that deadline still has Config.CoalesceSlack of headroom.
// Negative slack disables the gate; FIFO never had one.
func (s *Service) affinityAllowedLocked(head *Job) bool {
	if s.cfg.QueuePolicy == QueueFIFO || s.cfg.CoalesceSlack < 0 {
		return true
	}
	return time.Until(head.Deadline) >= s.cfg.CoalesceSlack
}

// laneFreeLocked reports whether the circuit is below its in-flight
// quota (always true with quotas off).
func (s *Service) laneFreeLocked(circuit string) bool {
	if s.cfg.CircuitQuota <= 0 {
		return true
	}
	return s.inFlightBy[circuit] < s.quotaLanesLocked()
}

// shedVerdict decides whether a just-dequeued job should be shed
// instead of proved: with Config.ShedDoomed on, a job past its deadline
// — or with less budget left than the circuit's EWMA prove time — is a
// near-certain miss and burning a worker on it only lengthens everyone
// else's tail. Returns nil to run the job.
func (s *Service) shedVerdict(job *Job) *ShedError {
	if !s.cfg.ShedDoomed {
		return nil
	}
	remaining := time.Until(job.Deadline)
	if remaining <= 0 {
		return &ShedError{Reason: ShedExpired, Remaining: remaining}
	}
	s.mu.Lock()
	ewma := s.circuits[job.Circuit].ewmaSec
	s.mu.Unlock()
	if est := time.Duration(float64(ewma) * float64(time.Second)); est > 0 && remaining < est {
		return &ShedError{Reason: ShedDoomed, Remaining: remaining, Estimate: est}
	}
	return nil
}

// shedJob fails a dequeued job without running it: accounting mirrors a
// deadline miss, minus the worker time. Shed jobs never feed the EWMAs
// — their near-zero wall time measures the shed decision, not job cost.
func (s *Service) shedJob(job *Job, shed *ShedError) {
	s.mu.Lock()
	c := s.circuits[job.Circuit]
	s.queued--
	s.outstandingBy[job.Circuit]--
	s.memInUse -= c.memEst
	s.stats.Queued = s.queued
	s.stats.MemoryInUse = s.memInUse
	s.stats.Cancelled++
	switch shed.Reason {
	case ShedExpired:
		s.stats.ShedExpired++
	default:
		s.stats.ShedDoomed++
	}
	s.metrics.observeOccupancy(s.queued, s.inFlight, s.memInUse)
	s.mu.Unlock()
	s.metrics.observeShed(shed.Reason)
	s.metrics.observeJob(outcomeDeadline, 0) // a shed consumes no worker time
	job.finish(nil, shed)
}

func (s *Service) runJob(job *Job) {
	s.mu.Lock()
	c := s.circuits[job.Circuit]
	bases := c.bases
	if bases != nil {
		bases.lastUse = time.Now()
		s.stats.BaseCacheHits++
	} else {
		s.stats.BaseCacheMisses++
	}
	s.metrics.observeBaseLookup(bases != nil)
	s.queued--
	s.inFlight++
	s.inFlightBy[job.Circuit]++
	s.stats.Queued = s.queued
	s.stats.InFlight = s.inFlight
	s.metrics.observeOccupancy(s.queued, s.inFlight, s.memInUse)
	s.mu.Unlock()
	job.mu.Lock()
	job.state = JobProving
	job.mu.Unlock()

	ctx := job.ctx
	var tr *telemetry.Tracer
	if s.cfg.TraceDir != "" {
		tr = telemetry.NewTracer(0)
		ctx = telemetry.NewContext(ctx, tr)
	}

	start := time.Now()
	if s.cfg.OnJobStart != nil {
		s.cfg.OnJobStart(job)
	}
	proof, err := s.prove(ctx, c, bases, job.Seed)
	if s.cfg.OnJobDone != nil {
		s.cfg.OnJobDone(job)
	}
	sec := time.Since(start).Seconds()

	outcome := outcomeCompleted
	var shed *ShedError
	switch {
	case err == nil:
	case errors.As(err, &shed):
		// A phase-boundary shed (the dequeue sheds never reach runJob):
		// a deadline miss on the wire, a distinct reason in the metrics.
		outcome = outcomeDeadline
	case errors.Is(err, context.DeadlineExceeded):
		outcome = outcomeDeadline
	case errors.Is(err, context.Canceled):
		outcome = outcomeCancelled
	default:
		outcome = outcomeFailed
	}

	s.mu.Lock()
	s.inFlight--
	s.inFlightBy[job.Circuit]--
	s.outstandingBy[job.Circuit]--
	s.memInUse -= c.memEst
	s.stats.InFlight = s.inFlight
	s.stats.MemoryInUse = s.memInUse
	s.metrics.observeOccupancy(s.queued, s.inFlight, s.memInUse)
	switch outcome {
	case outcomeCompleted:
		s.stats.Completed++
	case outcomeDeadline, outcomeCancelled:
		s.stats.Cancelled++
	default:
		s.stats.Failed++
	}
	if shed != nil {
		s.stats.ShedPhase++
	}
	// Every terminal outcome that consumed a worker feeds the
	// completion-time EWMAs (the service-wide one and the circuit's own)
	// — successes, deadline misses and failures alike. Updating it only
	// on success left a deadline-heavy (or fault-heavy) workload with a
	// stale or zero EWMA, so Retry-After hints never converged to the
	// observed job time. Two exclusions: pure client cancellations,
	// whose wall time measures the client's patience, not job cost; and
	// shed jobs, whose truncated wall time would talk the EWMA down and
	// make the shed threshold eat ever-healthier jobs.
	if outcome != outcomeCancelled && shed == nil {
		(*telemetry.EWMA)(&s.ewmaJobSec).Observe(sec)
		c.ewmaSec.Observe(sec)
	}
	// A finished job frees its circuit's in-flight lane: wake workers
	// parked on the quota gate.
	if s.cfg.CircuitQuota > 0 {
		s.cond.Broadcast()
	}
	s.mu.Unlock()
	if shed != nil {
		s.metrics.observeShed(ShedPhase)
	}
	s.metrics.observeJob(outcome, sec)

	if tr != nil {
		// Written before finish so the file is complete by the time a
		// waiting client observes the terminal state. Best-effort: a
		// failed trace write never fails the job.
		path := filepath.Join(s.cfg.TraceDir, fmt.Sprintf("job-%d.trace.json", job.ID))
		_ = tr.WriteChromeTraceFile(path)
	}
	job.finish(proof, err)
}

// prove runs the full pipeline for one job: witness generation, Groth16
// proving with the G1 MSMs on the health-gated multi-GPU cluster, and
// the service's own verification of the result. ctx is honoured at
// every phase boundary of every stage. bases, when non-nil, routes each
// key-column MSM through the circuit's cached fixed-base tables (the
// snapshot taken at dequeue — a concurrent eviction cannot pull the
// immutable tables out from under the job).
func (s *Service) prove(ctx context.Context, c *circuit, bases *circuitBases, seed int64) (*groth16.Proof, error) {
	w, err := c.witness(seed)
	if err != nil {
		return nil, err
	}
	// No pre-flight deadline check here: a job that is already past its
	// deadline must fail from inside groth16.ProveContextWith (its entry
	// cancellation point), proving the context reaches the pipeline.
	pr := groth16.Provers{
		// The phase DAG, as SNARK.ProveContext runs it: the quotient's
		// coset NTTs overlap the witness MSMs, msm-Z starts when h lands,
		// and each G1 phase plans over the whole cluster.
		Pipeline: &groth16.PipelineOptions{OnPhase: s.metrics.observePhase},
		// The ctx-aware form: the DAG passes its per-proof group context,
		// so the first failing phase cancels the other phases' MSMs at
		// their next shard boundary.
		G1Ctx: func(msmCtx context.Context, phase groth16.MSMPhase, points []curve.PointAffine, scalars []bigint.Nat) (*curve.PointXYZZ, error) {
			// Phase-boundary shedding: before launching the phase's MSM,
			// compare the remaining deadline budget against the circuit's
			// EWMA cost of this phase. A job that cannot afford the phase
			// is dropped here — between phases, never inside the MSM
			// scheduler, so the shards, plans and proofs of every job that
			// is NOT shed stay bit-identical to an unshedded run.
			if s.cfg.ShedDoomed {
				if dl, ok := msmCtx.Deadline(); ok {
					s.mu.Lock()
					est := time.Duration(float64(c.phaseEwma[phase]) * float64(time.Second))
					s.mu.Unlock()
					if remaining := time.Until(dl); est > 0 && remaining < est {
						return nil, &ShedError{Reason: ShedPhase, Remaining: remaining, Estimate: est}
					}
				}
			}
			phaseStart := time.Now()
			var fb *core.FixedBase
			if bases != nil {
				fb = bases.g1[phase]
			}
			res, err := core.RunContext(msmCtx, s.eng.P.Curve, s.cluster, points, scalars, s.msmOptions(msmCtx, fb))
			if err != nil {
				return nil, err
			}
			// Calibrate the circuit's per-phase cost model for the shed
			// check above (completed phases only — a cancelled phase's
			// wall time measures the deadline, not the phase).
			sec := time.Since(phaseStart).Seconds()
			s.mu.Lock()
			c.phaseEwma[phase].Observe(sec)
			s.mu.Unlock()
			s.metrics.observeMSM(res.Stats.Faults)
			return res.Point, nil
		},
	}
	if bases != nil && bases.b2 != nil {
		pr.G2Ctx = func(msmCtx context.Context, _ []pairing.G2Affine, scalars []*big.Int) (pairing.G2Affine, error) {
			return bases.b2.MSMContext(msmCtx, scalars)
		}
	}
	proof, err := s.eng.ProveContextWith(ctx, c.cs, c.pk, w, rand.New(rand.NewSource(seed)), pr)
	if err != nil {
		return nil, err
	}
	ok, err := s.eng.Verify(c.vk, proof, w[1:1+c.cs.NPublic])
	if err != nil {
		return nil, err
	}
	if !ok {
		return nil, ErrProofRejected
	}
	return proof, nil
}

// msmOptions is the one core.Options set every G1 MSM of the service
// runs under — a proof's key-column phases and /v1/msm shards alike — so
// the configured fault injection, retry policy and the request's tracer
// cover both. fb, when non-nil, routes the run through resident
// fixed-base tables.
func (s *Service) msmOptions(ctx context.Context, fb *core.FixedBase) core.Options {
	return core.Options{
		WindowSize: s.cfg.WindowSize,
		Engine:     core.EngineConcurrent,
		Faults:     s.cfg.Faults,
		Retry:      s.cfg.Retry,
		Tracer:     telemetry.FromContext(ctx),
		FixedBase:  fb,
	}
}

// VerifyingKey returns the registered circuit's verifying key.
func (s *Service) VerifyingKey(name string) (*groth16.VerifyingKey, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.circuits[name]
	if c == nil {
		return nil, fmt.Errorf("%w: %q", ErrUnknownCircuit, name)
	}
	return c.vk, nil
}

// Stats returns a counters snapshot.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Shutdown stops the service: admission closes immediately (further
// Submits fail with ErrShuttingDown), queued and in-flight jobs drain
// until ctx expires, then everything still running is cancelled and the
// pool is joined unconditionally. Shutdown returns nil on a clean drain
// and ctx.Err() if it had to cancel; either way no service goroutine
// survives the call. Safe to call once.
func (s *Service) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.workersWG.Wait()
		return nil
	}
	s.closed = true
	s.cond.Broadcast() // wake idle workers so they observe the close
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.workersWG.Wait()
		close(drained)
	}()
	var err error
	select {
	case <-drained:
	case <-ctx.Done():
		err = ctx.Err()
		s.baseStop() // cancel every in-flight job
		<-drained
	}
	s.baseStop()
	return err
}
