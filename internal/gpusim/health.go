package gpusim

import (
	"fmt"
	"sync"
)

// This file is the cross-request GPU health registry: a per-device
// circuit breaker that turns the scheduler's per-run fault observations
// (PR 2's FaultStats, discarded after every MSM) into persistent cluster
// state. A production proving service sees the same GPU fail request
// after request — XID errors that recur until a reset, ECC pages that
// keep corrupting results — and re-discovering that on every MSM wastes
// retries, reassignments and (for silent corruption) verification
// budget. The registry quarantines a device after K breaker-relevant
// faults and re-admits it through half-open probe shards, so one sick
// GPU degrades the cluster by its own share and nothing more.
//
// Each GPU runs the shared Breaker (breaker.go) with the registry's plan
// counter as its tick. Breaker-relevant faults are device losses and
// verification failures (caught corruptions) — the classes that
// indicate a sick device. Transient errors and stragglers are routine
// at scale and never trip the breaker; the in-run scheduler already
// absorbs them.

// HealthConfig tunes the circuit breaker. The zero value selects the
// documented defaults.
type HealthConfig struct {
	// FaultThreshold is how many consecutive breaker-relevant faults
	// (device losses + verification failures) a closed GPU accrues before
	// it is quarantined (default 3).
	FaultThreshold int
	// CooldownRuns is how many plans a quarantined GPU sits out before it
	// is offered a half-open probe shard (default 4).
	CooldownRuns int
	// ProbeBuckets is the size, in bucket units, of the shard offered to
	// a half-open GPU (default 32, clamped to the plan's size).
	ProbeBuckets int
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.FaultThreshold <= 0 {
		c.FaultThreshold = 3
	}
	if c.CooldownRuns <= 0 {
		c.CooldownRuns = 4
	}
	if c.ProbeBuckets <= 0 {
		c.ProbeBuckets = 32
	}
	return c
}

// GPUHealth is one device's registry snapshot.
type GPUHealth struct {
	GPU   int
	State BreakerState
	// ConsecutiveFaults is the current fault streak counting toward the
	// threshold (closed state only).
	ConsecutiveFaults int
	// SitOut is how many plans have passed since the trip while open
	// (zero otherwise).
	SitOut int
	// Trips is how many times the breaker has opened over its lifetime.
	Trips int
	// Shards and Faults are lifetime totals across runs.
	Shards int
	Faults int
}

type gpuHealth struct {
	br     Breaker
	shards int
	faults int
}

// HealthRegistry is the persistent per-GPU breaker state shared across
// MSM runs (and across a proving service's concurrent jobs). It is safe
// for concurrent use. The zero registry is not valid; use
// NewHealthRegistry.
type HealthRegistry struct {
	mu    sync.Mutex
	cfg   HealthConfig
	plans int64 // plans admitted so far: the breakers' tick
	gpus  map[int]*gpuHealth
}

// NewHealthRegistry builds a registry with the given breaker tuning.
func NewHealthRegistry(cfg HealthConfig) *HealthRegistry {
	return &HealthRegistry{cfg: cfg.withDefaults(), gpus: map[int]*gpuHealth{}}
}

// Config returns the default-filled configuration.
func (r *HealthRegistry) Config() HealthConfig { return r.cfg }

func (r *HealthRegistry) gpuLocked(g int) *gpuHealth {
	h := r.gpus[g]
	if h == nil {
		h = &gpuHealth{}
		r.gpus[g] = h
	}
	return h
}

// Admission is the registry's verdict for one plan: the devices that
// receive their full share and the half-open devices limited to a probe
// shard of ProbeBuckets bucket units.
type Admission struct {
	Full   []int
	Probes []int
	// ProbeBuckets is the per-probe shard size carried from the config so
	// the planner does not need the registry again.
	ProbeBuckets int
}

// Admit partitions GPUs [0, n) for the next plan, which advances the
// breakers' tick by one. Quarantined devices whose cooldown has elapsed
// move to half-open and are offered a probe. If every device is open —
// the whole cluster quarantined — the registry fails towards
// availability: all devices are re-admitted as probes rather than
// refusing to plan at all.
func (r *HealthRegistry) Admit(n int) Admission {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.plans++
	cooldown := int64(r.cfg.CooldownRuns)
	adm := Admission{ProbeBuckets: r.cfg.ProbeBuckets}
	for g := 0; g < n; g++ {
		b := &r.gpuLocked(g).br
		if !b.Admit(r.plans, cooldown) {
			continue
		}
		if b.State() == BreakerClosed {
			adm.Full = append(adm.Full, g)
		} else {
			adm.Probes = append(adm.Probes, g)
		}
	}
	if len(adm.Full) == 0 && len(adm.Probes) == 0 {
		for g := 0; g < n; g++ {
			r.gpuLocked(g).br.state = BreakerHalfOpen
			adm.Probes = append(adm.Probes, g)
		}
	}
	return adm
}

// RecordRun folds one run's outcome for GPU g into the breaker: shards
// is how many shard executions the device committed, faults how many
// breaker-relevant faults (device losses + verification failures) it
// produced. Any fault is a failure of that count; a fault-free run with
// at least one committed shard is a success. A run with neither (a
// probe whose shard was stolen) leaves the breaker as it is, so a
// half-open device is probed again next plan; a cancelled run returns
// its idle devices' admissions with ReturnProbe instead.
func (r *HealthRegistry) RecordRun(g, shards, faults int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.gpuLocked(g)
	h.shards += shards
	h.faults += faults
	if faults > 0 {
		h.br.Fail(faults, r.plans, r.cfg.FaultThreshold)
	} else if shards > 0 {
		h.br.Succeed()
	}
}

// ReturnProbe hands back the admission of a GPU whose run was cancelled
// before the device did any work. A half-open breaker goes back to open
// with its trip tick kept: the device stays quarantined on every health
// surface, and a later plan offers it the probe again once its cooldown
// has elapsed (or every device is open). Concurrent runs cancel each
// other routinely — the phase-DAG prover cancels its sibling MSMs when
// one fails — so without this a cancelled run's admission would leave a
// device half-open that no probe ever tested.
func (r *HealthRegistry) ReturnProbe(g int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if b := &r.gpuLocked(g).br; b.state == BreakerHalfOpen {
		b.state = BreakerOpen
	}
}

// State returns GPU g's current breaker state.
func (r *HealthRegistry) State(g int) BreakerState {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gpuLocked(g).br.State()
}

// Snapshot returns the registry state for GPUs [0, n) — the payload of a
// service health endpoint.
func (r *HealthRegistry) Snapshot(n int) []GPUHealth {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]GPUHealth, n)
	for g := 0; g < n; g++ {
		h := r.gpuLocked(g)
		out[g] = GPUHealth{
			GPU:               g,
			State:             h.br.State(),
			ConsecutiveFaults: h.br.Streak(),
			Trips:             h.br.Trips(),
			Shards:            h.shards,
			Faults:            h.faults,
		}
		if h.br.State() == BreakerOpen {
			out[g].SitOut = int(r.plans - h.br.tripped)
		}
	}
	return out
}

// Quarantined returns how many of GPUs [0, n) are currently open.
func (r *HealthRegistry) Quarantined(n int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	q := 0
	for g := 0; g < n; g++ {
		if r.gpuLocked(g).br.State() == BreakerOpen {
			q++
		}
	}
	return q
}

func (h GPUHealth) String() string {
	return fmt.Sprintf("gpu%d %s (streak %d, trips %d, %d shards, %d faults)",
		h.GPU, h.State, h.ConsecutiveFaults, h.Trips, h.Shards, h.Faults)
}
