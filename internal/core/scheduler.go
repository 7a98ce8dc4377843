package core

import (
	"context"
	"fmt"
	"math"
	"sync"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/outsource"
	"distmsm/internal/telemetry"
)

// This file is core's one MSM execution body: the shard scheduler and
// runScheduled, which runs it at full width (EngineConcurrent) or inline
// (EngineSerial). At DGX scale device loss, transient kernel failures,
// stragglers and (rarely) corrupted partial results are routine, so the
// full-width schedule recovers from all four classes while keeping the
// final point bit-identical to the fault-free run:
//
//   - transient-error: per-shard retry with capped exponential backoff;
//   - device-lost: the GPU is marked unhealthy and its remaining shards
//     are rebalanced onto the survivors (rebalanceTargets in plan.go);
//   - straggler: a shard in flight past a deadline (a multiple of its
//     estimated duration) is speculatively re-executed on an idle GPU,
//     first result wins;
//   - corrupted-result: a sampled shard check (verifyShardChallenge)
//     rejects wrong partial bucket sums and re-executes the shard;
//   - all GPUs lost: the plan is re-run on the host with the injector
//     detached (runHost).
//
// Without a fault injector each shard runs once, on its assigned GPU, in
// plan order.

// RetryPolicy tunes the fault-tolerant concurrent scheduler. The zero
// value selects the documented defaults.
type RetryPolicy struct {
	// MaxAttempts is how many consecutive failures a shard accrues on
	// its current owner before being reassigned to another healthy GPU
	// (default 4).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; it doubles per
	// consecutive failure up to MaxBackoff (defaults 200µs and 5ms of
	// host time).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// StragglerMultiple sets the speculation deadline: a shard in flight
	// longer than StragglerMultiple times its estimated duration is
	// speculatively re-executed on an idle GPU (default 8; negative
	// disables speculation).
	StragglerMultiple float64
}

// Validate rejects retry tunings the scheduler cannot honour. The
// policy is checked after default resolution, so only explicitly
// contradictory configurations fail: a MaxBackoff below BaseBackoff
// would silently invert the backoff cap, and a NaN or infinite
// StragglerMultiple would poison every speculation-deadline comparison.
// Errors wrap gpusim.ErrBadFaultConfig so callers match one sentinel
// for every fault-handling misconfiguration.
func (p RetryPolicy) Validate() error {
	d := p.withDefaults()
	if d.MaxBackoff < d.BaseBackoff {
		return fmt.Errorf("%w: MaxBackoff %v < BaseBackoff %v",
			gpusim.ErrBadFaultConfig, d.MaxBackoff, d.BaseBackoff)
	}
	if math.IsNaN(d.StragglerMultiple) || math.IsInf(d.StragglerMultiple, 0) {
		return fmt.Errorf("%w: StragglerMultiple = %v is not finite",
			gpusim.ErrBadFaultConfig, d.StragglerMultiple)
	}
	return nil
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 200 * time.Microsecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 5 * time.Millisecond
	}
	if p.StragglerMultiple == 0 {
		p.StragglerMultiple = 8
	}
	return p
}

// maxShardExecutions bounds the total executions of one shard across
// retries, reassignments and speculation; reaching it fails the MSM
// (it takes a pathological injector — e.g. Corrupt = 1 — to get there).
const maxShardExecutions = 64

// Host wall-time floors keeping the deadline heuristics out of timer
// noise: no shard is declared a straggler before minSpecDeadline, and an
// injected straggler stalls for at least minStragglerWait (capped so
// pathological configurations cannot stall tests indefinitely).
const (
	minSpecDeadline  = 2 * time.Millisecond
	minStragglerWait = 8 * time.Millisecond
	maxStragglerWait = 250 * time.Millisecond
)

// shardTask is the scheduler's state for one planned assignment. All
// fields are guarded by scheduler.mu.
type shardTask struct {
	a     Assignment
	owner int // current preferred GPU (starts as a.GPU)
	// weight is the shard's relative modeled cost — its share of the
	// window's bucket range — used to scale deadlines and delays.
	weight float64

	queued     bool
	done       bool
	running    int // in-flight executions (at most 2: primary + speculative)
	seq        int // executions launched so far (fault-decision attempt index)
	failures   int // consecutive failed executions
	notBefore  time.Time
	start      time.Time // launch time of the oldest in-flight execution
	speculated bool
	specGPU    int
}

// scheduler is the shared shard-dispatch state of one concurrent run.
type scheduler struct {
	mu   sync.Mutex
	cond *sync.Cond

	plan    *Plan
	pol     RetryPolicy
	inject  bool // fault injection configured: stealing/speculation enabled
	verifyP float64
	seed    uint64

	gpus     []int // worker GPUs, in plan order
	queues   map[int][]*shardTask
	healthy  map[int]bool
	nHealthy int
	tasks    []*shardTask
	nDone    int
	fatal    error

	// Online calibration of host seconds per unit of shard weight
	// (EWMA over committed executions), the base of the speculation
	// deadline — the "gpusim-estimated shard cost" scaled to host time.
	ewma telemetry.EWMA

	// Bucket-sum phase wall clock: the span from the first shard launch
	// to the last shard commit (Stats.Phase.BucketSumWall). Distinct
	// from the per-worker busy time summed into Stats.Phase.BucketSum —
	// the wall span never exceeds Σ busy on a saturated multi-GPU run.
	firstStart time.Time
	lastCommit time.Time

	stats FaultStats

	// Per-GPU run outcome for the cross-request health registry:
	// committed counts winning shard executions, breakerFaults the
	// breaker-relevant faults (device losses + verification failures)
	// attributed to the executing device.
	committed     map[int]int
	breakerFaults map[int]int
}

func newScheduler(plan *Plan, opts Options) *scheduler {
	s := &scheduler{
		plan:          plan,
		pol:           opts.Retry.withDefaults(),
		queues:        map[int][]*shardTask{},
		healthy:       map[int]bool{},
		committed:     map[int]int{},
		breakerFaults: map[int]int{},
	}
	s.cond = sync.NewCond(&s.mu)
	if inj := plan.Cluster.Faults; inj != nil {
		s.inject = true
		s.seed = uint64(inj.Config().Seed)
		if inj.Config().Corrupt > 0 && opts.VerifySampling == 0 {
			// Corruption is silent without verification: default to
			// checking every shard unless the caller chose a rate.
			s.verifyP = 1
		}
	}
	if opts.VerifySampling > 0 {
		s.verifyP = opts.VerifySampling
		if s.verifyP > 1 {
			s.verifyP = 1
		}
	}
	tasks := make([]shardTask, len(plan.Assignments)) // one backing array
	s.tasks = make([]*shardTask, 0, len(tasks))
	for i, a := range plan.Assignments {
		if !s.healthy[a.GPU] {
			s.healthy[a.GPU] = true
			s.gpus = append(s.gpus, a.GPU)
		}
		t := &tasks[i]
		*t = shardTask{
			a:      a,
			owner:  a.GPU,
			weight: float64(a.BucketHi-a.BucketLo) / float64(plan.Buckets),
			queued: true,
		}
		s.tasks = append(s.tasks, t)
		s.queues[a.GPU] = append(s.queues[a.GPU], t)
	}
	s.nHealthy = len(s.gpus)
	return s
}

// timed reports whether a worker that found nothing to run can be
// handed work later: shards are requeued, stolen or speculated only
// after a failure or a stall, and those need a fault injector or a
// shard verification that can reject.
func (s *scheduler) timed() bool { return s.inject || s.verifyP > 0 }

func (s *scheduler) wake() {
	s.mu.Lock()
	s.cond.Broadcast()
	s.mu.Unlock()
}

func (s *scheduler) fatalErr() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fatal
}

func (s *scheduler) snapshot() FaultStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// next blocks until GPU g has something to execute. It returns the task
// with its execution index and whether this launch is speculative, or
// (nil, err) on cancellation, or (nil, nil) when g is done for good
// (all shards committed, a fatal error was recorded elsewhere, g
// itself was lost, or g's queue is drained and nothing can refill it).
func (s *scheduler) next(ctx context.Context, g int) (*shardTask, int, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if err := ctx.Err(); err != nil {
			return nil, 0, false, err
		}
		if s.fatal != nil || !s.healthy[g] || s.nDone == len(s.tasks) {
			return nil, 0, false, nil
		}
		now := time.Now()
		if t := s.popLocked(g, now); t != nil {
			seq, spec := s.launchLocked(t, now, false)
			return t, seq, spec, nil
		}
		if s.inject {
			if t := s.stealLocked(g, now); t != nil {
				seq, spec := s.launchLocked(t, now, false)
				return t, seq, spec, nil
			}
			if t := s.overdueLocked(now); t != nil {
				s.stats.SpeculativeLaunches++
				t.speculated = true
				t.specGPU = g
				seq, spec := s.launchLocked(t, now, true)
				return t, seq, spec, nil
			}
		}
		if !s.timed() {
			// Each shard runs once, on its assigned GPU: with its queue
			// drained this worker is done, and parking it would only have
			// every sibling's commit wake it to find that out again.
			return nil, 0, false, nil
		}
		s.cond.Wait()
	}
}

// popLocked removes and returns the first ready task of g's queue.
func (s *scheduler) popLocked(g int, now time.Time) *shardTask {
	q := s.queues[g]
	for i, t := range q {
		if t.notBefore.After(now) {
			continue // in backoff; later entries may still be ready
		}
		s.queues[g] = append(q[:i:i], q[i+1:]...)
		t.queued = false
		return t
	}
	return nil
}

// stealLocked takes the lowest-window ready task queued on another
// healthy GPU — work stealing keeps survivors busy after a device loss
// skews the queues. Queues start window-ordered (the plan emits
// assignments in window order) but do not stay that way: requeueLocked
// appends retried shards at the tail, so the scan must consider every
// ready entry of every queue — stopping at the first ready entry could
// skip a lower-window retried shard and stall the reducer pipeline,
// which consumes windows in order.
func (s *scheduler) stealLocked(g int, now time.Time) *shardTask {
	bestGPU, bestIdx := -1, -1
	for _, g2 := range s.gpus {
		if g2 == g || !s.healthy[g2] {
			continue
		}
		for i, t := range s.queues[g2] {
			if t.notBefore.After(now) {
				continue
			}
			if bestIdx == -1 || t.a.Window < s.queues[bestGPU][bestIdx].a.Window {
				bestGPU, bestIdx = g2, i
			}
		}
	}
	if bestIdx == -1 {
		return nil
	}
	q := s.queues[bestGPU]
	t := q[bestIdx]
	s.queues[bestGPU] = append(q[:bestIdx:bestIdx], q[bestIdx+1:]...)
	t.queued = false
	s.stats.Steals++
	return t
}

// overdueLocked returns an in-flight, not-yet-speculated task past its
// deadline, if any. Deadlines need at least one committed execution to
// calibrate against.
func (s *scheduler) overdueLocked(now time.Time) *shardTask {
	if s.pol.StragglerMultiple <= 0 || !s.ewma.Ready() {
		return nil
	}
	for _, t := range s.tasks {
		if t.done || t.running == 0 || t.speculated {
			continue
		}
		if now.Sub(t.start) > s.deadlineLocked(t) {
			return t
		}
	}
	return nil
}

func (s *scheduler) deadlineLocked(t *shardTask) time.Duration {
	d := time.Duration(s.pol.StragglerMultiple * float64(s.ewma) * t.weight * float64(time.Second))
	if d < minSpecDeadline {
		d = minSpecDeadline
	}
	return d
}

func (s *scheduler) launchLocked(t *shardTask, now time.Time, spec bool) (int, bool) {
	t.running++
	t.seq++
	if t.running == 1 {
		t.start = now
	}
	if s.firstStart.IsZero() {
		s.firstStart = now // bucket-sum phase wall clock starts here
	}
	return t.seq, spec
}

// bucketSumWall returns the bucket-sum phase's wall-clock span: first
// shard launch to last shard commit (zero when nothing ever ran).
func (s *scheduler) bucketSumWall() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.firstStart.IsZero() || s.lastCommit.Before(s.firstStart) {
		return 0
	}
	return s.lastCommit.Sub(s.firstStart)
}

// stragglerWait scales the injected straggler stall to the shard's
// estimated duration times the configured factor.
func (s *scheduler) stragglerWait(t *shardTask, factor float64) time.Duration {
	s.mu.Lock()
	est := float64(s.ewma) * t.weight
	s.mu.Unlock()
	d := time.Duration(factor * est * float64(time.Second))
	if d < minStragglerWait {
		d = minStragglerWait
	}
	if d > maxStragglerWait {
		d = maxStragglerWait
	}
	return d
}

func (s *scheduler) countFault(class gpusim.FaultClass) {
	s.mu.Lock()
	switch class {
	case gpusim.FaultTransient:
		s.stats.TransientErrors++
	case gpusim.FaultStraggler:
		s.stats.Stragglers++
	case gpusim.FaultCorrupt:
		s.stats.Corruptions++
	}
	s.mu.Unlock()
}

func (s *scheduler) countVerifyRun() {
	s.mu.Lock()
	s.stats.VerificationRuns++
	s.mu.Unlock()
}

// fail records a failed execution of t on GPU g (transient error, or a
// rejected verification when verify is true) and requeues it with
// backoff unless a sibling execution already committed or is still
// running. Reaching maxShardExecutions turns the failure fatal.
// Verification failures are breaker-relevant and charged to g in the
// cross-request health report; transient errors are routine and are not.
func (s *scheduler) fail(g int, t *shardTask, verify bool) error {
	s.mu.Lock()
	defer func() {
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	t.running--
	if verify {
		s.stats.VerificationFailures++
		s.breakerFaults[g]++
	}
	if t.done {
		return nil
	}
	t.failures++
	if t.seq >= maxShardExecutions {
		var err error
		if verify {
			err = fmt.Errorf("%w: shard window %d buckets [%d,%d) rejected after %d executions",
				ErrVerificationFailed, t.a.Window, t.a.BucketLo, t.a.BucketHi, t.seq)
		} else {
			err = fmt.Errorf("core: shard window %d buckets [%d,%d) failed %d executions",
				t.a.Window, t.a.BucketLo, t.a.BucketHi, t.seq)
		}
		s.fatal = err
		return err
	}
	if t.running == 0 && !t.queued {
		s.requeueLocked(t, time.Now())
		s.stats.Retries++
	}
	return nil
}

// requeueLocked schedules t for re-execution after its capped
// exponential backoff, on its owner while the per-owner attempt budget
// lasts and the owner survives, otherwise on the least-loaded survivor.
func (s *scheduler) requeueLocked(t *shardTask, now time.Time) {
	backoff := s.pol.BaseBackoff
	for i := 1; i < t.failures && backoff < s.pol.MaxBackoff; i++ {
		backoff *= 2
	}
	if backoff > s.pol.MaxBackoff {
		backoff = s.pol.MaxBackoff
	}
	t.notBefore = now.Add(backoff)
	target := t.owner
	if !s.healthy[target] || t.failures >= s.pol.MaxAttempts {
		if g := s.leastLoadedLocked(t.owner); g >= 0 {
			target = g
		}
	}
	if target != t.owner {
		t.owner = target
		s.stats.Reassignments++
	}
	t.queued = true
	s.queues[target] = append(s.queues[target], t)
}

// leastLoadedLocked returns the healthy GPU with the shortest queue,
// preferring any GPU other than `avoid`; -1 if none are healthy.
func (s *scheduler) leastLoadedLocked(avoid int) int {
	best, bestLoad := -1, 0
	for _, g := range s.gpus {
		if !s.healthy[g] {
			continue
		}
		load := len(s.queues[g])
		if g == avoid {
			load++ // soft preference for moving off the failing device
		}
		if best == -1 || load < bestLoad {
			best, bestLoad = g, load
		}
	}
	return best
}

// loseDevice marks g permanently unhealthy and rebalances its queued
// shards (plus t, the shard whose execution killed it) onto the
// survivors. When no survivor remains and work is outstanding it
// records and returns ErrAllGPUsLost.
func (s *scheduler) loseDevice(g int, t *shardTask) error {
	s.mu.Lock()
	defer func() {
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	t.running--
	if s.healthy[g] {
		s.healthy[g] = false
		s.nHealthy--
		s.stats.DevicesLost++
		s.breakerFaults[g]++
	}
	orphans := s.queues[g]
	delete(s.queues, g)
	if !t.done && !t.queued && t.running == 0 {
		t.queued = true // re-entered below via the orphan path
		orphans = append(orphans, t)
	}
	live := orphans[:0]
	for _, o := range orphans {
		if !o.done {
			live = append(live, o)
		}
	}
	if s.nHealthy == 0 {
		if s.nDone < len(s.tasks) {
			s.fatal = ErrAllGPUsLost
			return ErrAllGPUsLost
		}
		return nil
	}
	load := map[int]int{}
	var healthy []int
	for _, g2 := range s.gpus {
		if s.healthy[g2] {
			healthy = append(healthy, g2)
			load[g2] = len(s.queues[g2])
		}
	}
	for i, target := range rebalanceTargets(len(live), load, healthy) {
		o := live[i]
		o.owner = target
		o.queued = true
		s.queues[target] = append(s.queues[target], o)
		s.stats.Reassignments++
	}
	return nil
}

// commit records a completed execution on GPU g. It returns whether
// this execution won (committed the shard); losing sibling results are
// discarded. compSec (compute-only seconds, injected stalls excluded)
// feeds the deadline calibration.
func (s *scheduler) commit(g int, t *shardTask, isSpec bool, compSec float64) bool {
	s.mu.Lock()
	defer func() {
		s.cond.Broadcast()
		s.mu.Unlock()
	}()
	t.running--
	if t.weight > 0 && compSec > 0 {
		s.ewma.Observe(compSec / t.weight)
	}
	if t.done {
		return false
	}
	t.done = true
	t.failures = 0
	s.nDone++
	s.committed[g]++
	s.lastCommit = time.Now()
	if isSpec {
		s.stats.SpeculativeWins++
	}
	return true
}

// cancelExec retires an execution unwound by run cancellation: the
// in-flight count drops and the shard returns to its owner's queue so
// the scheduler's bookkeeping stays consistent while the workers
// drain, but — unlike fail — no retry or consecutive-failure
// accounting is charged and no backoff is applied. A run being torn
// down is not failing; charging FaultStats.Retries (and pushing the
// shard toward its reassignment budget) for the teardown skewed the
// stats of every cancelled run.
func (s *scheduler) cancelExec(t *shardTask) {
	s.mu.Lock()
	t.running--
	if !t.done && t.running == 0 && !t.queued {
		t.queued = true
		s.queues[t.owner] = append(s.queues[t.owner], t)
	}
	s.cond.Broadcast()
	s.mu.Unlock()
}

// reportHealth folds the run's per-GPU outcome into the cross-request
// health registry. It reports for every worker GPU of the plan — GPUs
// with zero shards and zero faults are a no-op in the breaker state
// machine — and a cancelled run returns the admission of every GPU it
// gave no work, so cancellation never skews the breakers.
func (s *scheduler) reportHealth(ctx context.Context, h *gpusim.HealthRegistry) {
	s.mu.Lock()
	gpus := append([]int(nil), s.gpus...)
	committed := make(map[int]int, len(s.committed))
	for g, v := range s.committed {
		committed[g] = v
	}
	faults := make(map[int]int, len(s.breakerFaults))
	for g, v := range s.breakerFaults {
		faults[g] = v
	}
	s.mu.Unlock()
	for _, g := range gpus {
		if committed[g] == 0 && faults[g] == 0 && ctx.Err() != nil {
			h.ReturnProbe(g)
			continue
		}
		h.RecordRun(g, committed[g], faults[g])
	}
}

// doneWindow carries a fully-accumulated window to the host reducer.
type doneWindow struct {
	j   int
	acc []*curve.PointXYZZ
}

// concExec bundles the shared state of one concurrent execution.
type concExec struct {
	c        *curve.Curve
	plan     *Plan
	points   []curve.PointAffine
	prov     *windowProvider
	sched    *scheduler
	reduceCh chan doneWindow
	tr       *telemetry.Tracer // nil = tracing disabled (zero cost)
}

// workerScratch is the per-GPU-worker reusable state: the bucket-sum
// scratch plus the private result buffer shard executions write into.
// Only the accumulator points escape (into the window entry); the
// pointer slice itself is cleared and reused across shards.
type workerScratch struct {
	sum  *bucketScratch
	priv []*curve.PointXYZZ
}

func (e *concExec) newWorkerScratch() *workerScratch {
	return &workerScratch{
		sum:  newBucketScratch(e.c),
		priv: make([]*curve.PointXYZZ, e.plan.Buckets),
	}
}

// execute runs one shard execution on GPU g: consult the fault
// injector, honour the injected fault, compute the partial bucket sums
// into a private buffer, optionally verify them, and commit (first
// result wins). Failed executions requeue through the scheduler.
func (e *concExec) execute(ctx context.Context, g int, t *shardTask, seq int, isSpec bool, st *GPUStats, ws *workerScratch) error {
	fault := e.plan.Cluster.ShardFault(g, t.a.Window, t.a.BucketLo, seq)
	switch fault.Class {
	case gpusim.FaultDeviceLost:
		return e.sched.loseDevice(g, t)
	case gpusim.FaultTransient:
		e.sched.countFault(fault.Class)
		return e.sched.fail(g, t, false)
	}
	entry, sc, err := e.prov.acquire(t.a.Window)
	if err != nil {
		return err
	}
	if entry == nil {
		// A sibling execution won and the window was fully released while
		// this launch was in flight; just retire the execution.
		e.sched.commit(g, t, false, 0)
		return nil
	}
	if fault.Class == gpusim.FaultStraggler {
		e.sched.countFault(fault.Class)
		if err := sleepCtx(ctx, e.sched.stragglerWait(t, fault.Factor)); err != nil {
			// Cancellation mid-stall tears the run down; it is not a shard
			// failure, so no retry/failure accounting is charged (fail here
			// would increment FaultStats.Retries and the shard's
			// consecutive-failure count for a run that is already ending).
			e.sched.cancelExec(t)
			return err
		}
	}
	priv := ws.priv
	for b := t.a.BucketLo; b < t.a.BucketHi; b++ {
		priv[b] = nil // clear this shard's range; the rest is never read
	}
	t0 := time.Now()
	ops, err := sumBucketRange(e.c, e.points, sc.Buckets, t.a.BucketLo, t.a.BucketHi, priv, ws.sum)
	comp := time.Since(t0)
	st.Busy += comp
	traceShard(e.tr, g, t, seq, isSpec, t0, comp)
	if err != nil {
		return err
	}
	if fault.Class == gpusim.FaultCorrupt {
		e.sched.countFault(fault.Class)
		corruptShard(e.c, priv, t.a.BucketLo, t.a.BucketHi)
	}
	if e.sched.verifyP > 0 &&
		gpusim.HashUnit(e.sched.seed, gpusim.TagVerify,
			uint64(t.a.Window), uint64(t.a.BucketLo), uint64(seq)) < e.sched.verifyP {
		e.sched.countVerifyRun()
		ok, verr := e.verifyShardChallenge(t, seq, priv, sc.Buckets)
		if verr != nil {
			return verr
		}
		if !ok {
			return e.sched.fail(g, t, true)
		}
	}
	if !e.sched.commit(g, t, isSpec, comp.Seconds()) {
		return nil // a sibling execution won the race
	}
	for b := t.a.BucketLo; b < t.a.BucketHi; b++ {
		entry.acc[b] = priv[b]
	}
	st.Shards++
	st.PACCOps += ops
	if e.prov.release(t.a.Window) {
		e.reduceCh <- doneWindow{j: t.a.Window, acc: entry.acc}
	}
	return nil
}

// traceShard records one shard execution's compute span with its
// GPU/attempt/speculative labels. It is the only telemetry touchpoint
// on the shard hot path, and with tracing disabled (nil tracer) it
// must cost zero allocations — TestTraceShardAllocFree pins that, and
// the enabled path is allocation-free too (the span ring is
// pre-allocated).
func traceShard(tr *telemetry.Tracer, g int, t *shardTask, seq int, spec bool, start time.Time, d time.Duration) {
	if tr == nil {
		return
	}
	tr.Record(telemetry.Span{
		Name:        "shard",
		Cat:         "msm",
		Track:       telemetry.TrackGPU(g),
		Start:       start,
		Dur:         d,
		Labeled:     true,
		Window:      int32(t.a.Window),
		BucketLo:    int32(t.a.BucketLo),
		BucketHi:    int32(t.a.BucketHi),
		Attempt:     int32(seq),
		Speculative: spec,
	})
}

// verifyShardChallenge is the engine's one shard check, the engine tier
// of the 2G2T-style protocol in internal/outsource. The shard's references are re-aggregated into ONE
// challenge accumulator with a secret sparse mask — signed point
// references drawn from a seed the executing device never observes —
// shuffled into the stream, and the claim is accepted iff
//
//	challenge == Σ_b claim[b] + Σⱼ ±P_{mⱼ}
//
// The acceptance comparison costs the shard's bucket count plus the
// mask size in point additions, independent of how many references the
// shard aggregates; a corrupted accumulator vector escapes only if its
// per-bucket perturbations cancel exactly in the aggregate, which a
// mask-oblivious corruption cannot arrange. There is no per-bucket
// reference reconstruction — the challenge pass is a plain addition stream shaped exactly like the
// bucket-sum kernel, i.e. work a device could execute, not host-side
// recomputation of the claim.
func (e *concExec) verifyShardChallenge(t *shardTask, seq int, claim []*curve.PointXYZZ, buckets [][]int32) (bool, error) {
	rnd := outsource.NewSeededReader(gpusim.Hash64(e.sched.seed, gpusim.TagChallenge,
		uint64(t.a.Window), uint64(t.a.BucketLo), uint64(seq)))
	mask, err := outsource.NewMask(len(e.points), outsource.DefaultMaskTerms, rnd)
	if err != nil {
		return false, err
	}
	a := e.c.NewAdder()
	negY := e.c.Fp.NewElement()
	acc := func(dst *curve.PointXYZZ, ref int32) error {
		negated := ref < 0
		if negated {
			ref = -ref
		}
		if ref < 1 || int(ref) > len(e.points) {
			return fmt.Errorf("core: challenge references point %d outside the %d-point input", ref, len(e.points))
		}
		pt := &e.points[int(ref)-1]
		if pt.Inf {
			return nil
		}
		if negated {
			e.c.Fp.Neg(negY, pt.Y)
			neg := curve.PointAffine{X: pt.X, Y: negY}
			a.Acc(dst, &neg)
			return nil
		}
		a.Acc(dst, pt)
		return nil
	}
	// Challenge pass: the shard's reference stream plus the mask terms,
	// aggregated into a single accumulator.
	challenge := e.c.NewXYZZ()
	for b := t.a.BucketLo; b < t.a.BucketHi; b++ {
		for _, ref := range buckets[b] {
			if err := acc(challenge, ref); err != nil {
				return false, err
			}
		}
	}
	for _, ref := range mask.Refs {
		if err := acc(challenge, ref); err != nil {
			return false, err
		}
	}
	// Claim side: fold the claimed accumulators and apply the secret
	// mask correction — bucket count + mask size group operations.
	fold := e.c.NewXYZZ()
	for b := t.a.BucketLo; b < t.a.BucketHi; b++ {
		if claim[b] != nil {
			a.Add(fold, claim[b])
		}
	}
	a.Add(fold, mask.Sum(e.c, e.points))
	return e.c.EqualXYZZ(challenge, fold), nil
}

// corruptShard realizes a corrupted-result fault by doubling the first
// nontrivial accumulator — still a valid curve point, but the wrong
// partial sum, exactly what the shard check must catch.
func corruptShard(c *curve.Curve, acc []*curve.PointXYZZ, lo, hi int) bool {
	a := c.NewAdder()
	for b := lo; b < hi; b++ {
		if acc[b] != nil && !acc[b].IsInf() {
			a.Double(acc[b])
			return true
		}
	}
	return false
}

func sleepCtx(ctx context.Context, d time.Duration) error {
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-ctx.Done():
		return ctx.Err()
	case <-timer.C:
		return nil
	}
}

// runHost runs the plan through runScheduled on a cluster copy with the
// fault injector and the health registry detached and shard
// verification off, and reports no per-GPU stats. Under EngineSerial it
// is the serial engine; under EngineConcurrent it is the all-GPUs-lost
// fallback, at full width.
func runHost(ctx context.Context, points []curve.PointAffine, scalars []bigint.Nat, plan *Plan, opts Options) (*Result, error) {
	host := *plan
	host.Cluster = plan.Cluster.WithFaults(nil).WithHealth(nil)
	opts.VerifySampling = 0 // with no injector: never verify
	res, _, err := runScheduled(ctx, points, scalars, &host, opts)
	if err != nil {
		return nil, err
	}
	res.Plan = plan
	res.Stats.PerGPU = nil
	return res, nil
}

// runNext pulls GPU g's next shard from the scheduler and executes it.
// It reports false when g has nothing left to run.
func (e *concExec) runNext(ctx context.Context, g int, st *GPUStats, ws *workerScratch) (bool, error) {
	t, seq, spec, err := e.sched.next(ctx, g)
	if err != nil {
		return false, err
	}
	if t == nil {
		// Finished, lost, or a fatal error elsewhere.
		return false, e.sched.fatalErr()
	}
	return true, e.execute(ctx, g, t, seq, spec, st, ws)
}

// runScheduled is the one engine body; opts.Engine picks its width.
// EngineConcurrent runs one worker goroutine per simulated GPU pulling
// shards from the scheduler, and a host reducer goroutine that
// bucket-reduces each window as soon as its last shard commits —
// overlapping the reduce of window j with the bucket-sum of window j+1
// (§3.2.3). EngineSerial runs the same shards in plan order on the
// caller's goroutine. Cancellation is honoured at shard boundaries, at
// backoff/speculation waits, and every few hundred buckets inside the
// reduce itself.
func runScheduled(ctx context.Context, points []curve.PointAffine, scalars []bigint.Nat, plan *Plan, opts Options) (*Result, FaultStats, error) {
	c := plan.Curve
	res := &Result{Plan: plan}
	prov := newWindowProvider(plan, scalars)
	prov.tr = opts.Tracer
	sched := newScheduler(plan, opts)
	if h := plan.Cluster.Health; h != nil {
		// Report on every exit path — success, fault-induced failure,
		// and cancellation alike — so cross-request breaker state never
		// misses a device loss that also failed the run.
		defer sched.reportHealth(ctx, h)
	}

	windowSums := make([]*curve.PointXYZZ, plan.Windows)
	exec := &concExec{c: c, plan: plan, points: points, prov: prov, sched: sched,
		reduceCh: make(chan doneWindow, plan.Windows), tr: opts.Tracer}
	adder := c.NewAdder()
	reduce := func(ctx context.Context, d doneWindow) error {
		t0 := time.Now()
		pt, ops, err := reduceBuckets(ctx, c, d.acc, adder)
		dur := time.Since(t0)
		res.Stats.Phase.BucketReduce += dur
		res.Stats.ReduceOps += ops
		if err != nil {
			return err
		}
		if tr := opts.Tracer; tr != nil {
			tr.Record(telemetry.Span{Name: "bucket-reduce", Cat: "msm", Track: telemetry.TrackHost,
				Start: t0, Dur: dur, Labeled: true, Window: int32(d.j)})
		}
		windowSums[d.j] = pt
		return nil
	}
	run := exec.runWorkers
	if opts.Engine == EngineSerial {
		run = exec.runInline
	}
	if err := run(ctx, res, reduce); err != nil {
		return nil, sched.snapshot(), err
	}

	res.Stats.Scatter = prov.stats
	res.Stats.Phase.Scatter = prov.scatterTime
	if err := windowReduce(ctx, plan, windowSums, res, opts.Tracer); err != nil {
		return nil, sched.snapshot(), err
	}
	return res, sched.snapshot(), nil
}

// runInline is the width-1 schedule: no worker, reducer or ticker
// goroutines; each window is reduced as soon as its last shard commits.
// Its bucket-sum wall time is its busy time, and it reports no per-GPU
// stats.
func (e *concExec) runInline(ctx context.Context, res *Result, reduce func(context.Context, doneWindow) error) error {
	var st GPUStats
	ws := e.newWorkerScratch()
	for _, a := range e.plan.Assignments {
		// Queues hold each GPU's shards in plan order, so a.GPU's next
		// shard is a itself.
		if _, err := e.runNext(ctx, a.GPU, &st, ws); err != nil {
			return err
		}
		select {
		case d := <-e.reduceCh:
			if err := reduce(ctx, d); err != nil {
				return err
			}
		default:
		}
	}
	res.Stats.PACCOps = st.PACCOps
	res.Stats.Phase.BucketSum = st.Busy
	res.Stats.Phase.BucketSumWall = st.Busy
	return nil
}

// runWorkers is the full-width schedule: one worker goroutine per
// simulated GPU and one reducer goroutine, under one error group.
func (e *concExec) runWorkers(ctx context.Context, res *Result, reduce func(context.Context, doneWindow) error) error {
	sched := e.sched
	grp, gctx := newGroup(ctx)
	var (
		statsMu  sync.Mutex
		workerWG sync.WaitGroup
	)
	res.Stats.PerGPU = make([]GPUStats, len(sched.gpus))
	for slot, g := range sched.gpus {
		workerWG.Add(1)
		slot, g := slot, g
		grp.Go(func() error {
			defer workerWG.Done()
			st := GPUStats{GPU: g}
			ws := e.newWorkerScratch()
			defer func() {
				statsMu.Lock()
				res.Stats.PerGPU[slot] = st
				res.Stats.PACCOps += st.PACCOps
				res.Stats.Phase.BucketSum += st.Busy
				statsMu.Unlock()
			}()
			for {
				if ok, err := e.runNext(gctx, g, &st, ws); !ok || err != nil {
					return err
				}
			}
		})
	}
	workersDone := make(chan struct{})
	go func() {
		workerWG.Wait()
		close(workersDone)
		close(e.reduceCh)
	}()
	// The waker unblocks workers parked in next() so backoff expiries,
	// speculation deadlines and cancellation are all observed promptly;
	// it stops with the last worker. Only a run that can fail or straggle
	// a shard parks workers at all (see next); every other run is spared
	// the timer and its wake-ups.
	if sched.timed() {
		grp.Go(func() error {
			tick := time.NewTicker(500 * time.Microsecond)
			defer tick.Stop()
			for {
				select {
				case <-workersDone:
					return nil
				case <-tick.C:
					sched.wake()
				}
			}
		})
	}
	grp.Go(func() error {
		for d := range e.reduceCh {
			if err := reduce(gctx, d); err != nil {
				return err
			}
		}
		return nil
	})
	if err := grp.Wait(); err != nil {
		return err
	}
	res.Stats.Phase.BucketSumWall = sched.bucketSumWall()
	return nil
}
