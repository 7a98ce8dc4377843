package service

import (
	"fmt"
	"time"

	"distmsm/internal/core"
	"distmsm/internal/gpusim"
	"distmsm/internal/telemetry"
)

// serviceMetrics holds the pre-registered metric handles of one service
// instance. Registration happens once in New; the per-job and per-MSM
// paths only touch atomics. Every method is nil-safe so the service can
// call them unconditionally — a Config without a Metrics registry costs
// a nil check per call site.
type serviceMetrics struct {
	reg *telemetry.Registry

	submitted        *telemetry.Counter
	admissionRejects *telemetry.Counter
	jobsCompleted    *telemetry.Counter
	jobsFailed       *telemetry.Counter
	jobsCancelled    *telemetry.Counter
	deadlineMisses   *telemetry.Counter
	queueDepth       *telemetry.Gauge
	inFlight         *telemetry.Gauge
	memoryBytes      *telemetry.Gauge
	jobSeconds       *telemetry.Histogram

	baseCacheHits      *telemetry.Counter
	baseCacheMisses    *telemetry.Counter
	baseCacheEvictions *telemetry.Counter
	baseCacheBytes     *telemetry.Gauge

	jobsShed      map[string]*telemetry.Counter // by shed reason
	queueReorders *telemetry.Counter

	phaseSeconds map[string]*telemetry.Histogram

	shardSeconds   *telemetry.Histogram
	msmRuns        *telemetry.Counter
	faultTransient *telemetry.Counter
	faultStraggler *telemetry.Counter
	faultCorrupt   *telemetry.Counter
	faultDevLost   *telemetry.Counter
	retries        *telemetry.Counter
	steals         *telemetry.Counter
	reassignments  *telemetry.Counter
	specLaunches   *telemetry.Counter
	specWins       *telemetry.Counter
	verifyRuns     *telemetry.Counter
	verifyFailures *telemetry.Counter
}

// newServiceMetrics registers the service's metric families on reg and
// wires per-GPU breaker-state gauges to the health registry. The breaker
// GaugeFuncs read the registry under its own lock at scrape time, so a
// scrape never contends with the service mutex.
func newServiceMetrics(reg *telemetry.Registry, health *gpusim.HealthRegistry, gpus int) *serviceMetrics {
	if reg == nil {
		return nil
	}
	m := &serviceMetrics{reg: reg}

	m.submitted = reg.Counter("distmsm_jobs_submitted_total",
		"Proof jobs submitted (accepted or rejected).", "")
	m.admissionRejects = reg.Counter("distmsm_admission_rejects_total",
		"Submissions rejected by admission control (queue depth or memory budget).", "")
	jobs := func(outcome string) *telemetry.Counter {
		return reg.Counter("distmsm_jobs_total",
			"Terminal job outcomes.", `outcome="`+outcome+`"`)
	}
	m.jobsCompleted = jobs("completed")
	m.jobsFailed = jobs("failed")
	m.jobsCancelled = jobs("cancelled")
	m.deadlineMisses = reg.Counter("distmsm_job_deadline_misses_total",
		"Jobs that blew their end-to-end deadline (in queue or mid-proof).", "")
	m.queueDepth = reg.Gauge("distmsm_queue_depth",
		"Jobs waiting for a proving worker.", "")
	m.inFlight = reg.Gauge("distmsm_inflight_jobs",
		"Jobs currently on a proving worker.", "")
	m.memoryBytes = reg.Gauge("distmsm_memory_inuse_bytes",
		"Summed memory estimate of queued and in-flight jobs.", "")
	m.jobSeconds = reg.Histogram("distmsm_job_seconds",
		"End-to-end job latency (dequeue to terminal state).", "", nil)

	m.baseCacheHits = reg.Counter("distmsm_base_cache_hits_total",
		"Jobs and /v1/msm shards served from resident fixed-base tables.", "")
	m.baseCacheMisses = reg.Counter("distmsm_base_cache_misses_total",
		"Jobs and /v1/msm shards that ran without resident tables (no cache, or its first-sight build).", "")
	m.baseCacheEvictions = reg.Counter("distmsm_base_cache_evictions_total",
		"Resident table sets (circuit or shard) dropped under memory pressure.", "")
	m.baseCacheBytes = reg.Gauge("distmsm_base_cache_bytes",
		"Bytes currently held by resident fixed-base tables.", "")

	// Shed and reorder counters are pre-registered per reason so the
	// dequeue path never takes the registry lock.
	m.jobsShed = make(map[string]*telemetry.Counter, len(shedReasons))
	for _, reason := range shedReasons {
		m.jobsShed[reason] = reg.Counter("distmsm_jobs_shed_total",
			"Jobs shed as doomed before or during proving, by reason.",
			`reason="`+reason+`"`)
	}
	m.queueReorders = reg.Counter("distmsm_queue_reorders_total",
		"Dequeues where EDF picked a job ahead of the strict-FIFO head.", "")

	// One histogram per prover phase, pre-registered so the phase DAG's
	// concurrent OnPhase callbacks only touch atomics.
	m.phaseSeconds = make(map[string]*telemetry.Histogram, len(provePhases))
	for _, phase := range provePhases {
		m.phaseSeconds[phase] = reg.Histogram("distmsm_prove_phase_seconds",
			"Wall time of one Groth16 prover phase (phase-DAG schedule).",
			`phase="`+phase+`"`, nil)
	}

	m.shardSeconds = reg.Histogram("distmsm_msm_shard_seconds",
		"Service time of one /v1/msm shard (table lookup or first-sight build, plus the MSM).", "", nil)
	m.msmRuns = reg.Counter("distmsm_msm_runs_total",
		"MSM executions completed by the multi-GPU scheduler.", "")
	fault := func(class string) *telemetry.Counter {
		return reg.Counter("distmsm_msm_faults_total",
			"Injected/observed GPU faults by class.", `class="`+class+`"`)
	}
	m.faultTransient = fault("transient")
	m.faultStraggler = fault("straggler")
	m.faultCorrupt = fault("corruption")
	m.faultDevLost = fault("device-lost")
	m.retries = reg.Counter("distmsm_msm_retries_total",
		"Shard re-executions queued after a failure.", "")
	m.steals = reg.Counter("distmsm_msm_steals_total",
		"Shards taken from another healthy GPU's queue by an idle worker.", "")
	m.reassignments = reg.Counter("distmsm_msm_reassignments_total",
		"Shards moved to a different GPU (device loss or retry escalation).", "")
	m.specLaunches = reg.Counter("distmsm_msm_speculative_launches_total",
		"Speculative duplicate executions started for overdue shards.", "")
	m.specWins = reg.Counter("distmsm_msm_speculative_wins_total",
		"Speculative executions that committed before the original.", "")
	m.verifyRuns = reg.Counter("distmsm_msm_verification_runs_total",
		"Sampled randomized result verifications.", "")
	m.verifyFailures = reg.Counter("distmsm_msm_verification_failures_total",
		"Verification rejections (each triggers a re-execution).", "")

	for g := 0; g < gpus; g++ {
		g := g
		reg.GaugeFunc("distmsm_gpu_breaker_state",
			"Per-GPU circuit-breaker state (0 closed, 1 open/quarantined, 2 half-open).",
			fmt.Sprintf(`gpu="%d"`, g),
			func() float64 { return float64(health.State(g)) })
	}
	return m
}

// observeAdmission records a Submit outcome (rejected = admission said no).
func (m *serviceMetrics) observeAdmission(rejected bool) {
	if m == nil {
		return
	}
	m.submitted.Inc()
	if rejected {
		m.admissionRejects.Inc()
	}
}

// observeOccupancy mirrors the queue/in-flight/memory gauges.
func (m *serviceMetrics) observeOccupancy(queued, inFlight int, memBytes int64) {
	if m == nil {
		return
	}
	m.queueDepth.Set(float64(queued))
	m.inFlight.Set(float64(inFlight))
	m.memoryBytes.Set(float64(memBytes))
}

// observeJob records one terminal job outcome and its wall time.
func (m *serviceMetrics) observeJob(outcome jobOutcome, seconds float64) {
	if m == nil {
		return
	}
	switch outcome {
	case outcomeCompleted:
		m.jobsCompleted.Inc()
	case outcomeDeadline:
		m.jobsCancelled.Inc()
		m.deadlineMisses.Inc()
	case outcomeCancelled:
		m.jobsCancelled.Inc()
	default:
		m.jobsFailed.Inc()
	}
	m.jobSeconds.Observe(seconds)
}

// observeShard records one /v1/msm shard's service time.
func (m *serviceMetrics) observeShard(seconds float64) {
	if m == nil {
		return
	}
	m.shardSeconds.Observe(seconds)
}

// observeBaseLookup records one job's or shard's base-cache lookup outcome.
func (m *serviceMetrics) observeBaseLookup(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.baseCacheHits.Inc()
	} else {
		m.baseCacheMisses.Inc()
	}
}

// observeBaseSize mirrors the cached-table bytes gauge; evicted also
// counts one cache eviction.
func (m *serviceMetrics) observeBaseSize(bytes int64, evicted bool) {
	if m == nil {
		return
	}
	if evicted {
		m.baseCacheEvictions.Inc()
	}
	m.baseCacheBytes.Set(float64(bytes))
}

// shedReasons are the label values of distmsm_jobs_shed_total.
var shedReasons = []string{ShedExpired, ShedDoomed, ShedPhase}

// observeShed records one shed job by reason.
func (m *serviceMetrics) observeShed(reason string) {
	if m == nil {
		return
	}
	if c := m.jobsShed[reason]; c != nil {
		c.Inc()
	}
}

// observeReorder records one deadline-driven dequeue reorder.
func (m *serviceMetrics) observeReorder() {
	if m == nil {
		return
	}
	m.queueReorders.Inc()
}

// provePhases are the prover's phase names, in DAG order.
var provePhases = []string{"quotient", "msm-A", "msm-B2", "msm-B1", "msm-K", "msm-Z"}

// observePhase records one completed prover phase's wall time. Called
// concurrently from the phase DAG's goroutines — the
// histogram handle only touches atomics.
func (m *serviceMetrics) observePhase(name string, d time.Duration) {
	if m == nil {
		return
	}
	if h := m.phaseSeconds[name]; h != nil {
		h.Observe(d.Seconds())
	}
}

// observeMSM folds one MSM execution's fault-tolerance counters into the
// service-lifetime rates.
func (m *serviceMetrics) observeMSM(f core.FaultStats) {
	if m == nil {
		return
	}
	m.msmRuns.Inc()
	m.faultTransient.Add(uint64(f.TransientErrors))
	m.faultStraggler.Add(uint64(f.Stragglers))
	m.faultCorrupt.Add(uint64(f.Corruptions))
	m.faultDevLost.Add(uint64(f.DevicesLost))
	m.retries.Add(uint64(f.Retries))
	m.steals.Add(uint64(f.Steals))
	m.reassignments.Add(uint64(f.Reassignments))
	m.specLaunches.Add(uint64(f.SpeculativeLaunches))
	m.specWins.Add(uint64(f.SpeculativeWins))
	m.verifyRuns.Add(uint64(f.VerificationRuns))
	m.verifyFailures.Add(uint64(f.VerificationFailures))
}

// jobOutcome classifies a terminal job state for metrics and the EWMA.
type jobOutcome int

const (
	outcomeCompleted jobOutcome = iota
	outcomeDeadline
	outcomeCancelled
	outcomeFailed
)
