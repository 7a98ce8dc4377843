package gpusim

// This file is the one circuit-breaker state machine of the repo. Both
// tiers that protect the paper's split of each window's buckets run it:
// the per-GPU HealthRegistry (health.go) and the cluster coordinator's
// per-node table. They differ only in the unit of time — the caller
// passes its own tick: plans admitted for a GPU, monotonic nanoseconds
// for a node.
//
//	Closed ──threshold consecutive failures──▶ Open ──cooldown ticks──▶ HalfOpen
//	  ▲                                        ▲ ↺ a failure restarts      │
//	  │                                        │   the cooldown            │
//	  │                                        └──────────failure──────────┤
//	  └──────────────────────success, from any state───────────────────────┘
//
// The Breaker holds no lock and no configuration: its owner guards it
// and passes the threshold and cooldown with each call.

// BreakerState is the state of one circuit breaker. Its values and
// strings are what both health endpoints and the breaker gauges print.
type BreakerState int

const (
	// BreakerClosed: healthy; the device or node receives its full share.
	BreakerClosed BreakerState = iota
	// BreakerOpen: quarantined; excluded from plans and routing.
	BreakerOpen
	// BreakerHalfOpen: offered probe work; a success closes the breaker,
	// a failure re-opens it.
	BreakerHalfOpen
)

func (s BreakerState) String() string {
	switch s {
	case BreakerClosed:
		return "closed"
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	}
	return "unknown"
}

// Breaker is one circuit breaker. The zero value is closed.
type Breaker struct {
	state   BreakerState
	streak  int   // consecutive failures while closed
	tripped int64 // tick of the last trip, or of the last failure while open
	trips   int
}

// State returns the breaker's state.
func (b *Breaker) State() BreakerState { return b.state }

// Streak returns the consecutive failures counting toward the threshold.
func (b *Breaker) Streak() int { return b.streak }

// Trips returns how many times the breaker has opened.
func (b *Breaker) Trips() int { return b.trips }

// Cooled reports, without side effects, whether the breaker would admit
// work at tick now: it is not open, or has been open for cooldown ticks.
func (b *Breaker) Cooled(now, cooldown int64) bool {
	return b.state != BreakerOpen || now-b.tripped >= cooldown
}

// Admit is Cooled plus its one transition: a cooled Open breaker moves
// to HalfOpen.
func (b *Breaker) Admit(now, cooldown int64) bool {
	if !b.Cooled(now, cooldown) {
		return false
	}
	if b.state == BreakerOpen {
		b.state = BreakerHalfOpen
	}
	return true
}

// Succeed records a success, which closes the breaker from any state
// and clears the streak.
func (b *Breaker) Succeed() {
	b.state = BreakerClosed
	b.streak = 0
}

// Fail records n ≥ 1 failures observed at tick now and reports whether
// they tripped the breaker. Closed adds n to the streak and trips at
// threshold; HalfOpen trips at once; Open restarts the cooldown (work
// launched before the trip is still reporting).
func (b *Breaker) Fail(n int, now int64, threshold int) (tripped bool) {
	switch b.state {
	case BreakerClosed:
		if b.streak += n; b.streak < threshold {
			return false
		}
	case BreakerOpen:
		b.tripped = now
		return false
	}
	b.state = BreakerOpen
	b.streak = 0
	b.tripped = now
	b.trips++
	return true
}
