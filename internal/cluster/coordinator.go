package cluster

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"distmsm/internal/gpusim"
	"distmsm/internal/telemetry"
)

// WorkerClient is the coordinator's transport to one worker node. The
// production implementation speaks HTTP to the node's
// /v1/cluster/dispatch endpoint (see client.go); tests substitute
// in-process clients, optionally wrapped by the node fault injector.
type WorkerClient interface {
	// Dispatch runs one proof job on the node and returns the marshalled
	// proof. It must honour ctx — a cancelled dispatch must abandon the
	// job on the worker (the HTTP client does this for free: the worker
	// cancels the job when the request context dies).
	Dispatch(ctx context.Context, req DispatchRequest) ([]byte, error)
}

// LocalBackend is the coordinator's in-process fallback and proof
// checker. *service.Service satisfies it; the indirection keeps this
// package free of a dependency on internal/service (which imports this
// package for the worker-side wire handling).
type LocalBackend interface {
	// ProveLocal proves (circuit, seed) in-process and returns the
	// marshalled proof.
	ProveLocal(ctx context.Context, circuit string, seed int64) ([]byte, error)
	// VerifyProof checks a marshalled proof of (circuit, seed). A
	// decode failure or a failed pairing check both report false.
	VerifyProof(circuit string, seed int64, proof []byte) (bool, error)
}

// Config configures a Coordinator. Everything has a documented default;
// a Coordinator without a Local backend cannot verify remote proofs or
// degrade to local proving, and says so in its docs rather than its
// constructor.
type Config struct {
	// Local is the in-process backend: the degrade-to-local prover when
	// every remote node is down, and the verifier of every remote proof
	// (the corrupted-response catch). Optional; without it remote proofs
	// are accepted unverified and an all-nodes-down cluster fails jobs
	// with ErrNoNodes.
	Local LocalBackend
	// Lease is how long a node stays live after its last accepted
	// heartbeat; a node that misses it is marked lost and its in-flight
	// jobs are re-dispatched (default 10s).
	Lease time.Duration
	// SweepInterval is the lease-expiry check cadence (default Lease/4).
	SweepInterval time.Duration
	// Breaker tunes the per-node circuit breakers.
	Breaker BreakerConfig
	// HedgeMultiple launches a speculative duplicate dispatch once the
	// primary has been out HedgeMultiple × the EWMA dispatch latency
	// (default 4; first result wins, the loser is cancelled).
	HedgeMultiple float64
	// HedgeMin floors the hedge delay so cold EWMAs do not hedge every
	// job (default 250ms).
	HedgeMin time.Duration
	// MaxAttempts bounds how many nodes one job may be dispatched to
	// before the coordinator gives up on remotes (default 4). The local
	// fallback is tried regardless when no node admits.
	MaxAttempts int
	// MaxNodes bounds the node table (default 64).
	MaxNodes int
	// DefaultTimeout is the per-job deadline when the request does not
	// set one (default 1 minute).
	DefaultTimeout time.Duration
	// DispatchTimeout caps one dispatch attempt to one node. A
	// partitioned or hung node fails its attempt after this long — a
	// breaker-relevant timeout — and the job re-routes, instead of
	// riding the whole job deadline on a node that will never answer.
	// 0 bounds attempts only by the job deadline (the default).
	DispatchTimeout time.Duration
	// DialWorker builds the transport to a registering node's advertised
	// address (default: the HTTP client of client.go). Tests substitute
	// in-process clients here.
	DialWorker func(addr string) WorkerClient
	// Faults optionally injects deterministic node-level faults into
	// every dispatch (chaos testing); nil injects nothing. The injector
	// wraps whatever DialWorker returns, keyed by registration order.
	Faults *NodeInjector
	// Metrics, when set, receives the coordinator's operational metrics
	// (node states, heartbeat ages, redispatches, hedges, lost-node
	// recoveries). The coordinator's Handler mounts it at /v1/metrics.
	Metrics *telemetry.Registry
	// MSMRandom supplies the secret randomness of the outsourced-MSM
	// checks (see msm.go); nil uses crypto/rand.Reader. It must be safe
	// for concurrent readers — shards derive their checks in parallel.
	// Tests substitute outsource.NewSeededReader for reproducible
	// challenge derivation — the fault schedule stays deterministic
	// either way, this only affects which secrets the checks draw.
	MSMRandom io.Reader
}

// BreakerConfig tunes the per-node circuit breakers. The zero value
// selects the documented defaults.
type BreakerConfig struct {
	// FailThreshold is how many consecutive dispatch failures a closed
	// node accrues before it is quarantined (default 3).
	FailThreshold int
	// Cooldown is how long a quarantined node sits out before it is
	// offered a half-open probe dispatch (default 5s).
	Cooldown time.Duration
}

func (c BreakerConfig) withDefaults() BreakerConfig {
	if c.FailThreshold <= 0 {
		c.FailThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 5 * time.Second
	}
	return c
}

func (c Config) withDefaults() Config {
	if c.Lease <= 0 {
		c.Lease = 10 * time.Second
	}
	if c.SweepInterval <= 0 {
		c.SweepInterval = c.Lease / 4
	}
	c.Breaker = c.Breaker.withDefaults()
	if c.HedgeMultiple <= 0 {
		c.HedgeMultiple = 4
	}
	if c.HedgeMin <= 0 {
		c.HedgeMin = 250 * time.Millisecond
	}
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 4
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 64
	}
	if c.DefaultTimeout <= 0 {
		c.DefaultTimeout = time.Minute
	}
	if c.DialWorker == nil {
		c.DialWorker = func(addr string) WorkerClient { return NewHTTPWorkerClient(addr) }
	}
	return c
}

// node is one registered worker's coordinator-side state.
type node struct {
	id     string
	addr   string
	index  int // registration order; keys the fault injector
	client WorkerClient

	lost     bool // lease expired; revived by heartbeat or re-register
	draining bool // deregistered gracefully; in-flight left to finish
	lastHB   time.Time
	seq      uint64

	// inflight tracks the coordinator-side dispatches outstanding on
	// this node: attempt ID → cancel. A lost lease cancels them all,
	// which unwinds the waiting Prove and MSM calls into redispatch.
	inflight map[uint64]context.CancelFunc

	// br is the node's circuit breaker (gpusim.Breaker), ticked by
	// Coordinator.tick. Breaker-relevant failures are dispatch errors,
	// timeouts and corrupted responses; an admission rejection from a
	// busy-but-healthy worker counts too, because from the router's
	// seat a node that cannot take work should stop being offered it
	// for a while. A half-open node admits one probe dispatch at a
	// time: probing marks it in flight, and is only ever set while the
	// breaker is half-open.
	br      gpusim.Breaker
	probing bool

	dispatches uint64 // lifetime, successful + failed
	failures   uint64 // lifetime failed dispatches
}

// NodeSnapshot is one node's externally visible state, the payload of
// the coordinator's health endpoint.
type NodeSnapshot struct {
	ID       string              `json:"id"`
	Addr     string              `json:"addr"`
	State    string              `json:"state"` // alive | lost | draining
	Breaker  gpusim.BreakerState `json:"-"`
	BreakerS string              `json:"breaker"`
	// HeartbeatAge is the time since the last accepted heartbeat; the
	// wire carries it as whole milliseconds.
	HeartbeatAge   time.Duration `json:"-"`
	HeartbeatAgeMS int64         `json:"heartbeat_age_ms"`
	InFlight       int           `json:"in_flight"`
	Dispatches     uint64        `json:"dispatches"`
	Failures       uint64        `json:"failures"`
	Trips          int           `json:"breaker_trips"`
}

// Stats is a counters snapshot of the coordinator.
type Stats struct {
	Registrations     uint64
	Heartbeats        uint64
	StaleHeartbeats   uint64
	LostNodes         uint64 // lease expiries
	LostJobsRecovered uint64 // in-flight dispatches cancelled by a lost lease
	Redispatches      uint64 // job attempts re-routed after a failure
	Hedges            uint64 // speculative duplicate dispatches launched
	HedgeWins         uint64 // speculative dispatches that finished first
	LocalFallbacks    uint64 // jobs degraded to the local backend
	CorruptProofs     uint64 // remote proofs/claims rejected by verification
	MSMChecks         uint64 // outsourced-MSM constant-size checks run
	MSMRejects        uint64 // outsourced-MSM checks that rejected a claim
	DispatchOK        uint64
	DispatchErrors    uint64
	BreakerTrips      uint64
	JobsCompleted     uint64
	JobsFailed        uint64
}

// Coordinator fronts a fleet of provd worker nodes: it owns the node
// table with its heartbeat leases and per-node breakers, routes jobs
// with circuit affinity plus least-loaded fallback, hedges stragglers,
// re-dispatches the jobs of lost nodes, and degrades to local proving
// when no remote is available. Build with NewCoordinator, stop with
// Close.
type Coordinator struct {
	cfg     Config
	metrics *coordMetrics

	sweepStop context.CancelFunc
	sweepDone chan struct{}

	lastJob   atomic.Uint64
	attemptID atomic.Uint64

	start time.Time // origin of the node breakers' tick

	mu       sync.Mutex
	closed   bool
	nodes    map[string]*node
	order    []string          // registration order: deterministic iteration
	affinity map[string]string // circuit → node that last proved it
	ewmaSec  telemetry.EWMA    // global dispatch-latency EWMA (hedge clock)
	stats    Stats
}

// NewCoordinator validates the configuration and starts the lease
// sweeper.
func NewCoordinator(cfg Config) *Coordinator {
	cfg = cfg.withDefaults()
	c := &Coordinator{
		cfg:      cfg,
		start:    time.Now(),
		nodes:    map[string]*node{},
		affinity: map[string]string{},
	}
	c.metrics = newCoordMetrics(cfg, c)
	sctx, stop := context.WithCancel(context.Background())
	c.sweepStop = stop
	c.sweepDone = make(chan struct{})
	go c.sweep(sctx)
	return c
}

// Close stops the sweeper. In-flight Prove calls keep their already-
// launched dispatches; new Prove/Register calls fail with
// ErrShuttingDown.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		<-c.sweepDone
		return
	}
	c.closed = true
	c.mu.Unlock()
	c.sweepStop()
	<-c.sweepDone
}

// Lease returns the effective heartbeat lease.
func (c *Coordinator) Lease() time.Duration { return c.cfg.Lease }

// Register admits a worker node (or refreshes a known one — a node that
// restarted re-registers under its ID and simply resumes). The response
// carries the lease the node must keep renewing.
func (c *Coordinator) Register(req RegisterRequest) (RegisterResponse, error) {
	if err := validateNodeID(req.NodeID); err != nil {
		return RegisterResponse{}, err
	}
	if req.Addr == "" || len(req.Addr) > maxNodeAddr {
		return RegisterResponse{}, fmt.Errorf("%w: bad addr", ErrBadMessage)
	}
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return RegisterResponse{}, ErrShuttingDown
	}
	n := c.nodes[req.NodeID]
	if n == nil {
		if len(c.nodes) >= c.cfg.MaxNodes {
			c.mu.Unlock()
			return RegisterResponse{}, fmt.Errorf("%w (%d registered)", ErrTooManyNodes, c.cfg.MaxNodes)
		}
		n = &node{id: req.NodeID, index: len(c.order), inflight: map[uint64]context.CancelFunc{}}
		c.nodes[req.NodeID] = n
		c.order = append(c.order, req.NodeID)
	}
	if n.client == nil || n.addr != req.Addr {
		wc := c.cfg.DialWorker(req.Addr)
		n.client = c.cfg.Faults.WrapClient(n.index, wc)
	}
	n.addr = req.Addr
	n.lost = false
	n.draining = false
	n.lastHB = time.Now()
	n.seq = 0
	c.stats.Registrations++
	c.mu.Unlock()
	c.metrics.observeRegistration()
	return RegisterResponse{
		LeaseMS:     c.cfg.Lease.Milliseconds(),
		HeartbeatMS: (c.cfg.Lease / 3).Milliseconds(),
	}, nil
}

// Heartbeat renews a node's lease. A heartbeat from an unknown node
// asks it to re-register (and deliberately does NOT create a node-table
// entry: unauthenticated heartbeats must not grow coordinator state).
// A stale sequence number is a delayed duplicate and never renews.
func (c *Coordinator) Heartbeat(req HeartbeatRequest) (HeartbeatResponse, error) {
	if err := validateNodeID(req.NodeID); err != nil {
		return HeartbeatResponse{}, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[req.NodeID]
	if n == nil {
		return HeartbeatResponse{OK: false, Reregister: true}, nil
	}
	if req.Seq <= n.seq && req.Seq != 0 {
		c.stats.StaleHeartbeats++
		return HeartbeatResponse{OK: false}, fmt.Errorf("%w: seq %d ≤ %d", ErrStaleLease, req.Seq, n.seq)
	}
	n.seq = req.Seq
	n.lastHB = time.Now()
	n.lost = false
	c.stats.Heartbeats++
	c.metrics.observeHeartbeat()
	return HeartbeatResponse{OK: true}, nil
}

// Deregister starts a graceful drain of the node: it stops receiving
// new dispatches, but — unlike a lease expiry — its in-flight jobs are
// left to finish. The entry stays in the table (bounded by MaxNodes) so
// a restart under the same ID re-registers cleanly.
func (c *Coordinator) Deregister(req DeregisterRequest) error {
	if err := validateNodeID(req.NodeID); err != nil {
		return err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	n := c.nodes[req.NodeID]
	if n == nil {
		return fmt.Errorf("%w: %q", ErrUnknownNode, req.NodeID)
	}
	n.draining = true
	return nil
}

// sweep is the lease-expiry loop: a node whose heartbeat is older than
// the lease is marked lost and every dispatch outstanding on it is
// cancelled, which unwinds the waiting Prove calls into redispatch —
// the node-level analogue of shard reassignment after device loss.
func (c *Coordinator) sweep(ctx context.Context) {
	defer close(c.sweepDone)
	t := time.NewTicker(c.cfg.SweepInterval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			c.expireLeases(time.Now())
		}
	}
}

// expireLeases marks overdue nodes lost and cancels their in-flight
// dispatches. Exported to the tests via the package-internal clock
// argument so lease expiry is drivable without real waiting.
//
// A draining node is exempt: it stopped heartbeating because it
// deregistered, and its in-flight work is promised time to finish — a
// drain may outlast the lease. If it really dies, its attempts still
// fail through transport errors or DispatchTimeout and re-dispatch.
func (c *Coordinator) expireLeases(now time.Time) {
	var cancels []context.CancelFunc
	lost, recovered := 0, 0
	c.mu.Lock()
	for _, id := range c.order {
		n := c.nodes[id]
		if n.lost || n.draining || now.Sub(n.lastHB) <= c.cfg.Lease {
			continue
		}
		n.lost = true
		c.stats.LostNodes++
		c.stats.LostJobsRecovered += uint64(len(n.inflight))
		lost++
		recovered += len(n.inflight)
		for _, cancel := range n.inflight {
			cancels = append(cancels, cancel)
		}
	}
	c.mu.Unlock()
	// Metric emission and cancellation happen outside the mutex: the
	// registry's scrape path takes c.mu (the GaugeFuncs), and each cancel
	// unwinds a Prove attempt that will immediately call back into
	// pickNode.
	if lost > 0 {
		c.metrics.observeLostNodes(lost, recovered)
	}
	for _, cancel := range cancels {
		cancel()
	}
}

// tick is the node breakers' clock: nanoseconds since the coordinator
// started, taken from Go's monotonic reading so wall-clock steps
// cannot open or close a breaker.
func (c *Coordinator) tick(now time.Time) int64 { return int64(now.Sub(c.start)) }

// canTake reports whether the node can take a new dispatch at tick now —
// an MSM shard half if msm (read-only; admit commits the admission).
func (n *node) canTake(now int64, cfg BreakerConfig, msm bool) bool {
	_, serves := n.client.(MSMWorkerClient)
	return !n.lost && !n.draining && !n.probing && n.br.Cooled(now, int64(cfg.Cooldown)) && (serves || !msm)
}

// admit commits the breaker admission canTake promised: a cooled open
// breaker turns half-open, and a half-open one hands out its probe slot.
// probe reports that this admission took the slot — the caller then
// owns it and must return it, by recording the dispatch outcome or
// through abandon.
func (n *node) admit(now int64, cfg BreakerConfig) (admitted, probe bool) {
	if n.probing || !n.br.Admit(now, int64(cfg.Cooldown)) {
		return false, false
	}
	n.probing = n.br.State() == gpusim.BreakerHalfOpen
	return true, n.probing
}

// record folds one dispatch outcome into the breaker, which frees the
// probe slot, and reports whether the outcome tripped it.
func (n *node) record(ok bool, now int64, cfg BreakerConfig) (tripped bool) {
	n.probing = false
	if ok {
		n.br.Succeed()
		return false
	}
	return n.br.Fail(1, now, cfg.FailThreshold)
}

// pickNode chooses the next node for a dispatch of either kind and
// admits it on the node's breaker. With an affinity key (a proof job's
// circuit) the node that last settled that key wins if it can take work
// — its per-circuit base caches are warm, the same reason the
// single-node queue coalesces by circuit. Otherwise, and always for MSM
// shards (no key), the least-loaded dispatchable node wins, ties broken
// by registration order for determinism; msm restricts the choice to
// nodes whose client serves MSM shards. Returns nil when no node admits.
// probe reports that the admission took the node's half-open probe
// slot, which the attempt then owns (see attempt).
func (c *Coordinator) pickNode(key string, exclude map[string]bool, msm bool) (n *node, probe bool) {
	now := c.tick(time.Now())
	c.mu.Lock()
	defer c.mu.Unlock()
	eligible := func(n *node) bool {
		return n != nil && !exclude[n.id] && n.canTake(now, c.cfg.Breaker, msm)
	}
	best := c.nodes[c.affinity[key]]
	if key == "" || !eligible(best) {
		best = nil
		for _, id := range c.order {
			if n := c.nodes[id]; eligible(n) && (best == nil || len(n.inflight) < len(best.inflight)) {
				best = n
			}
		}
	}
	if best == nil {
		return nil, false
	}
	admitted, probe := best.admit(now, c.cfg.Breaker)
	if !admitted {
		return nil, false
	}
	return best, probe
}

// abandon ends an attempt without an outcome (the caller gave up on it:
// a hedge loser, the job's own context dying, a deadline already past)
// and gives back the half-open probe slot its admission took, if any.
// Without that the node's breaker would stay HalfOpen with its one probe
// slot consumed forever — permanently unroutable. A late return, after
// an outcome recorded by another dispatch has already moved the breaker
// on, finds the slot free and changes nothing.
func (c *Coordinator) abandon(n *node, probe bool) {
	if probe {
		c.mu.Lock()
		n.probing = false
		c.mu.Unlock()
	}
}

// recordDispatch settles one dispatch outcome into the node's breaker,
// the hedge EWMA and the counters. A success under a non-empty affinity
// key also hands the key to the node.
func (c *Coordinator) recordDispatch(n *node, ok bool, sec float64, key string) {
	now := c.tick(time.Now())
	c.mu.Lock()
	n.dispatches++
	if ok {
		c.stats.DispatchOK++
		if key != "" {
			c.affinity[key] = n.id
		}
		c.ewmaSec.Observe(sec)
	} else {
		n.failures++
		c.stats.DispatchErrors++
	}
	tripped := n.record(ok, now, c.cfg.Breaker)
	if tripped {
		c.stats.BreakerTrips++
	}
	c.mu.Unlock()
	c.metrics.observeDispatch(ok, sec, tripped)
}

// hedgeDelay is how long a dispatch may be outstanding before a
// speculative duplicate is launched: HedgeMultiple × the EWMA dispatch
// latency, floored at HedgeMin (a cold EWMA must not hedge everything).
func (c *Coordinator) hedgeDelay() time.Duration {
	c.mu.Lock()
	ewma := float64(c.ewmaSec)
	c.mu.Unlock()
	d := time.Duration(c.cfg.HedgeMultiple * ewma * float64(time.Second))
	if d < c.cfg.HedgeMin {
		d = c.cfg.HedgeMin
	}
	return d
}

// trackInflight registers a dispatch attempt on the node so a lost
// lease can cancel it; the returned release must run when the attempt
// finishes.
func (c *Coordinator) trackInflight(n *node, cancel context.CancelFunc) (release func()) {
	id := c.attemptID.Add(1)
	c.mu.Lock()
	n.inflight[id] = cancel
	c.mu.Unlock()
	return func() {
		c.mu.Lock()
		delete(n.inflight, id)
		c.mu.Unlock()
	}
}

// attempt sends one dispatch to one node. It is the only way work
// reaches a node: the primary and the hedge of a proof job, and each
// half (real and challenge) of an MSM shard. send puts the request on
// the wire under the attempt's context, with its remaining time in
// whole milliseconds.
//
// The attempt is capped by DispatchTimeout and registered in the node's
// in-flight set, so a lost lease cancels it. It ends in exactly one of
// three ways:
//   - a node failure (transport or worker error, DispatchTimeout, lease
//     expiry), charged to the node's breaker here;
//   - the caller's own cancellation or abandonment of ctx, which records
//     no outcome and gives back a held probe slot (see abandon);
//   - a well-formed answer, returned unsettled with its seconds: the
//     caller settles the node at the verdict — proof verification or
//     the outsourced check — which also returns a held probe slot.
func (c *Coordinator) attempt(ctx context.Context, n *node, probe bool, send func(ctx context.Context, timeoutMS int64) ([]byte, error)) ([]byte, float64, error) {
	var actx context.Context
	var cancel context.CancelFunc
	if c.cfg.DispatchTimeout > 0 {
		actx, cancel = context.WithTimeout(ctx, c.cfg.DispatchTimeout)
	} else {
		actx, cancel = context.WithCancel(ctx)
	}
	defer cancel()
	var timeoutMS int64
	if deadline, ok := actx.Deadline(); ok {
		// Under a millisecond left would put TimeoutMS = 0 on the wire —
		// "use the worker default" — and burn a worker-default timeout of
		// node capacity on work the caller has given up on. Fail fast,
		// sending nothing; the node is not at fault.
		if timeoutMS = time.Until(deadline).Milliseconds(); timeoutMS <= 0 {
			c.abandon(n, probe)
			return nil, 0, context.DeadlineExceeded
		}
	}
	defer c.trackInflight(n, cancel)()
	start := time.Now()
	raw, err := send(actx, timeoutMS)
	sec := time.Since(start).Seconds()
	switch {
	case err == nil:
		return raw, sec, nil
	case ctx.Err() != nil:
		c.abandon(n, probe)
	default:
		c.recordDispatch(n, false, sec, "")
	}
	return nil, sec, err
}

// chargeCorrupt settles a node whose well-formed answer the verdict
// rejected: a breaker failure, counted as a corrupt response.
func (c *Coordinator) chargeCorrupt(n *node) {
	c.recordDispatch(n, false, 0, "")
	c.bump(&c.stats.CorruptProofs)
	c.metrics.observeCorrupt()
}

// bump increments one Stats counter.
func (c *Coordinator) bump(counter *uint64) {
	c.mu.Lock()
	*counter++
	c.mu.Unlock()
}

// startJob admits one client job of either kind: it refuses work after
// Close, applies the job deadline (the coordinator default when timeout
// is 0) and numbers the job.
func (c *Coordinator) startJob(ctx context.Context, timeout time.Duration) (context.Context, context.CancelFunc, uint64, error) {
	c.mu.Lock()
	closed := c.closed
	c.mu.Unlock()
	if closed {
		return nil, nil, 0, ErrShuttingDown
	}
	if timeout <= 0 {
		timeout = c.cfg.DefaultTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	return ctx, cancel, c.lastJob.Add(1), nil
}

// Prove runs one job through the cluster: route, dispatch (hedged),
// verify, and — when routing finds nobody — degrade to the local
// backend. The error of the last failed attempt is preserved in the
// terminal error.
func (c *Coordinator) Prove(ctx context.Context, req ProveRequest) ([]byte, error) {
	if err := validateCircuitName(req.Circuit); err != nil {
		return nil, err
	}
	ctx, cancel, jobID, err := c.startJob(ctx, req.Timeout)
	if err != nil {
		return nil, err
	}
	defer cancel()

	exclude := map[string]bool{}
	var lastErr error
	for try := 0; try < c.cfg.MaxAttempts; try++ {
		n, probe := c.pickNode(req.Circuit, exclude, false)
		if n == nil {
			// Every node is lost, quarantined, draining or already tried:
			// degrade to local in-process proving.
			return c.proveLocal(ctx, jobID, req, lastErr)
		}
		if try > 0 {
			c.bump(&c.stats.Redispatches)
			c.metrics.observeRedispatch()
		}
		proof, winner, sec, err := c.dispatchHedged(ctx, n, probe, jobID, req, exclude)
		if err == nil {
			// The winner is settled here, by the verdict: recording success
			// on delivery would reset a lying node's failure streak and hand
			// it the circuit's affinity before its proof was checked.
			if c.verifyRemote(req, proof) {
				c.recordDispatch(winner, true, sec, req.Circuit)
				c.bump(&c.stats.JobsCompleted)
				return proof, nil
			}
			c.chargeCorrupt(winner)
			lastErr = fmt.Errorf("%w (node %s)", ErrCorruptProof, winner.id)
			continue
		}
		if ctx.Err() != nil {
			// The job's own deadline or the client's cancellation — not the
			// nodes' fault; stop re-dispatching.
			c.bump(&c.stats.JobsFailed)
			return nil, ctx.Err()
		}
		lastErr = err
	}
	c.bump(&c.stats.JobsFailed)
	return nil, fmt.Errorf("cluster: job %d failed after %d dispatch attempts: %w", jobID, c.cfg.MaxAttempts, lastErr)
}

// verifyRemote checks a remote proof against the local backend; without
// one, remote proofs are accepted as-is (documented on Config.Local).
func (c *Coordinator) verifyRemote(req ProveRequest, proof []byte) bool {
	if c.cfg.Local == nil {
		return true
	}
	ok, err := c.cfg.Local.VerifyProof(req.Circuit, req.Seed, proof)
	return err == nil && ok
}

// proveLocal is the degrade-to-local path: every remote is down, so the
// coordinator proves in-process, exactly like the engine's serial
// fallback when every GPU dies. A local admission rejection that
// carries a retry-after hint (the service's QueueFullError, detected
// structurally — this package must not import internal/service) is
// backpressure, not failure: a degraded cluster funnelling a burst into
// the local queue waits its turn under the job deadline rather than
// failing jobs it promised to absorb.
func (c *Coordinator) proveLocal(ctx context.Context, jobID uint64, req ProveRequest, lastErr error) ([]byte, error) {
	if c.cfg.Local == nil {
		c.bump(&c.stats.JobsFailed)
		if lastErr != nil {
			return nil, fmt.Errorf("%w; last dispatch error: %v", ErrNoNodes, lastErr)
		}
		return nil, ErrNoNodes
	}
	c.bump(&c.stats.LocalFallbacks)
	c.metrics.observeLocalFallback()
	for {
		proof, err := c.cfg.Local.ProveLocal(ctx, req.Circuit, req.Seed)
		if err == nil {
			c.bump(&c.stats.JobsCompleted)
			return proof, nil
		}
		var busy interface{ RetryAfterHint() time.Duration }
		if !errors.As(err, &busy) {
			c.bump(&c.stats.JobsFailed)
			return nil, fmt.Errorf("cluster: job %d degraded to local and failed: %w", jobID, err)
		}
		wait := busy.RetryAfterHint()
		if wait < 25*time.Millisecond {
			wait = 25 * time.Millisecond
		}
		if wait > 2*time.Second {
			wait = 2 * time.Second
		}
		select {
		case <-ctx.Done():
			c.bump(&c.stats.JobsFailed)
			return nil, fmt.Errorf("cluster: job %d degraded to local, queue never admitted it: %w", jobID, ctx.Err())
		case <-time.After(wait):
		}
	}
}

// dispatchHedged runs one routing attempt of a proof job: an attempt on
// primary and, if it is still out past the hedge delay, one speculative
// attempt on a different node. The first answer wins and the other
// attempt is abandoned; both failing fails the routing attempt. Every
// node tried is added to exclude so Prove never revisits it for this
// job. primaryProbe says the primary's admission took its half-open
// probe slot (see pickNode). The winner comes back unsettled, with its
// dispatch seconds (see attempt).
func (c *Coordinator) dispatchHedged(ctx context.Context, primary *node, primaryProbe bool, jobID uint64, req ProveRequest, exclude map[string]bool) ([]byte, *node, float64, error) {
	type outcome struct {
		n      *node
		probe  bool
		proof  []byte
		sec    float64
		err    error
		hedged bool
	}
	ch := make(chan outcome, 2) // one per attempt: late losers never block
	var cancels []context.CancelFunc
	launch := func(n *node, probe, hedged bool) {
		actx, cancel := context.WithCancel(ctx)
		cancels = append(cancels, cancel)
		exclude[n.id] = true
		go func() {
			proof, sec, err := c.attempt(actx, n, probe, func(actx context.Context, timeoutMS int64) ([]byte, error) {
				return n.client.Dispatch(actx, DispatchRequest{JobID: jobID, Circuit: req.Circuit, Seed: req.Seed, TimeoutMS: timeoutMS})
			})
			ch <- outcome{n, probe, proof, sec, err, hedged}
		}()
	}
	outstanding := 0
	defer func() {
		// Abandon every attempt still out, which cancels its worker-side
		// job too. It unwinds as an abandonment; one that answered before
		// the cancel landed gives back the probe slot it holds here.
		for _, cancel := range cancels {
			cancel()
		}
		if outstanding > 0 {
			go func(rest int) {
				for ; rest > 0; rest-- {
					if out := <-ch; out.err == nil {
						c.abandon(out.n, out.probe)
					}
				}
			}(outstanding)
		}
	}()
	launch(primary, primaryProbe, false)
	outstanding++

	hedge := time.NewTimer(c.hedgeDelay())
	defer hedge.Stop()
	var lastErr error
	for outstanding > 0 {
		select {
		case out := <-ch:
			outstanding--
			if out.err != nil {
				lastErr = out.err // already settled by attempt
				continue
			}
			if out.hedged {
				c.bump(&c.stats.HedgeWins)
				c.metrics.observeHedgeWin()
			}
			return out.proof, out.n, out.sec, nil
		case <-hedge.C: // fires once
			h, hProbe := c.pickNode(req.Circuit, exclude, false)
			if h == nil {
				continue // nobody to hedge on; keep waiting for the primary
			}
			launch(h, hProbe, true)
			outstanding++
			c.bump(&c.stats.Hedges)
			c.metrics.observeHedge()
		case <-ctx.Done():
			return nil, nil, 0, ctx.Err()
		}
	}
	return nil, nil, 0, lastErr
}

// Snapshot returns the node table's externally visible state, sorted by
// registration order.
func (c *Coordinator) Snapshot() []NodeSnapshot {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]NodeSnapshot, 0, len(c.order))
	for _, id := range c.order {
		n := c.nodes[id]
		state := "alive"
		switch {
		case n.draining:
			state = "draining"
		case n.lost:
			state = "lost"
		}
		out = append(out, NodeSnapshot{
			ID:             n.id,
			Addr:           n.addr,
			State:          state,
			Breaker:        n.br.State(),
			BreakerS:       n.br.State().String(),
			HeartbeatAge:   now.Sub(n.lastHB),
			HeartbeatAgeMS: now.Sub(n.lastHB).Milliseconds(),
			InFlight:       len(n.inflight),
			Dispatches:     n.dispatches,
			Failures:       n.failures,
			Trips:          n.br.Trips(),
		})
	}
	return out
}

// Stats returns a counters snapshot.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.stats
}

// AliveNodes returns how many nodes currently hold a live lease and are
// not draining.
func (c *Coordinator) AliveNodes() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	alive := 0
	for _, n := range c.nodes {
		if !n.lost && !n.draining {
			alive++
		}
	}
	return alive
}

// nodeStates counts nodes by (table state, breaker state) for the
// metrics gauges; called at scrape time.
func (c *Coordinator) nodeStates() (alive, lost, draining, open int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, n := range c.nodes {
		switch {
		case n.draining:
			draining++
		case n.lost:
			lost++
		default:
			alive++
		}
		if n.br.State() == gpusim.BreakerOpen {
			open++
		}
	}
	return
}

// oldestHeartbeatAge returns the age of the stalest live lease, the
// early-warning gauge for the next lease expiry; 0 with no live nodes.
func (c *Coordinator) oldestHeartbeatAge() float64 {
	now := time.Now()
	c.mu.Lock()
	defer c.mu.Unlock()
	var oldest float64
	for _, n := range c.nodes {
		if n.lost || n.draining {
			continue
		}
		if age := now.Sub(n.lastHB).Seconds(); age > oldest {
			oldest = age
		}
	}
	return oldest
}
