package gpusim

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestBreakerTransitions walks one breaker through the whole state
// machine, one row per call: closed under the threshold, tripped open at
// it, quarantined through the cooldown, half-open on the first cooled
// admission, a failed probe straight back to open, a failure landing
// while open restarting the cooldown, failures adding their count to
// the streak, and a success closing the breaker from any state.
func TestBreakerTransitions(t *testing.T) {
	const threshold, cooldown = 3, 10
	cooled := func(now int64) func(*Breaker) bool {
		return func(b *Breaker) bool { return b.Cooled(now, cooldown) }
	}
	admit := func(now int64) func(*Breaker) bool {
		return func(b *Breaker) bool { return b.Admit(now, cooldown) }
	}
	fail := func(n int, now int64) func(*Breaker) bool {
		return func(b *Breaker) bool { return b.Fail(n, now, threshold) }
	}
	succeed := func(b *Breaker) bool { b.Succeed(); return false }

	var b Breaker
	for _, st := range []struct {
		name          string
		do            func(*Breaker) bool
		want          bool
		state         BreakerState
		streak, trips int
	}{
		{"a fresh breaker is cooled", cooled(0), true, BreakerClosed, 0, 0},
		{"a closed breaker admits", admit(0), true, BreakerClosed, 0, 0},
		{"first failure stays closed", fail(1, 0), false, BreakerClosed, 1, 0},
		{"second failure stays closed", fail(1, 0), false, BreakerClosed, 2, 0},
		{"the threshold failure trips", fail(1, 0), true, BreakerOpen, 0, 1},
		{"not cooled before the cooldown", cooled(cooldown / 2), false, BreakerOpen, 0, 1},
		{"no admission before the cooldown", admit(cooldown / 2), false, BreakerOpen, 0, 1},
		{"cooled once the cooldown elapses", cooled(cooldown), true, BreakerOpen, 0, 1},
		{"the cooled admission turns half-open", admit(cooldown), true, BreakerHalfOpen, 0, 1},
		{"half-open keeps admitting", admit(cooldown), true, BreakerHalfOpen, 0, 1},
		{"a failed probe re-trips", fail(1, cooldown), true, BreakerOpen, 0, 2},
		{"a failure while open does not trip", fail(1, 15), false, BreakerOpen, 0, 2},
		{"...but restarts the cooldown", cooled(2 * cooldown), false, BreakerOpen, 0, 2},
		{"the restarted cooldown elapses", admit(15 + cooldown), true, BreakerHalfOpen, 0, 2},
		{"a successful probe closes", succeed, false, BreakerClosed, 0, 2},
		{"failures add their count", fail(2, 30), false, BreakerClosed, 2, 2},
		{"a success clears the streak", succeed, false, BreakerClosed, 0, 2},
		{"a count at the threshold trips at once", fail(threshold, 30), true, BreakerOpen, 0, 3},
		{"a success closes an open breaker", succeed, false, BreakerClosed, 0, 3},
	} {
		if got := st.do(&b); got != st.want {
			t.Fatalf("%s: returned %v, want %v", st.name, got, st.want)
		}
		if b.State() != st.state || b.Streak() != st.streak || b.Trips() != st.trips {
			t.Fatalf("%s: state %v streak %d trips %d, want %v/%d/%d",
				st.name, b.State(), b.Streak(), b.Trips(), st.state, st.streak, st.trips)
		}
	}
}

// TestHealthReportOnOpenGPU pins how a run planned before a trip but
// reported after it (concurrent jobs on the same GPUs) lands on the open
// breaker: a faulty report restarts the cooldown without counting a
// second trip, and a clean report with committed work closes it.
func TestHealthReportOnOpenGPU(t *testing.T) {
	r := NewHealthRegistry(HealthConfig{FaultThreshold: 1, CooldownRuns: 2})
	r.Admit(2)
	r.Admit(2)
	r.RecordRun(0, 0, 1) // the first job's report trips GPU 0 at plan 2
	r.Admit(2)
	if snap := r.Snapshot(2)[0]; snap.State != BreakerOpen || snap.SitOut != 1 {
		t.Fatalf("after one plan open: %+v, want open with SitOut 1", snap)
	}
	r.RecordRun(0, 0, 1) // the second job's report restarts the cooldown at plan 3
	if adm := r.Admit(2); len(adm.Probes) != 0 {
		t.Fatalf("plan 4 admission %+v: the restarted cooldown has one plan left", adm)
	}
	if adm := r.Admit(2); len(adm.Probes) != 1 || adm.Probes[0] != 0 {
		t.Fatalf("plan 5 admission %+v, want GPU 0 probing", adm)
	}
	if snap := r.Snapshot(2)[0]; snap.Trips != 1 || snap.Faults != 2 {
		t.Fatalf("%+v, want 1 trip and 2 lifetime faults", snap)
	}

	r.RecordRun(0, 0, 1) // the probe fails: open again
	r.RecordRun(0, 2, 0) // a clean report from an earlier plan closes it
	if s := r.State(0); s != BreakerClosed {
		t.Fatalf("clean report on an open GPU: state %v, want closed", s)
	}
	if adm := r.Admit(2); len(adm.Full) != 2 || len(adm.Probes) != 0 {
		t.Fatalf("admission %+v after the clean report, want both GPUs full", adm)
	}
}

// TestHealthRegistryConcurrent drives one registry from several
// goroutines at once, as concurrent service jobs do: each admits plans
// and reports runs while another snapshots it. Under -race this checks
// the registry's locking; the lifetime totals check that no report is
// lost.
func TestHealthRegistryConcurrent(t *testing.T) {
	const jobs, runs, gpus = 4, 50, 3
	r := NewHealthRegistry(HealthConfig{FaultThreshold: 2, CooldownRuns: 1})
	var wg sync.WaitGroup
	var recorded atomic.Int64
	for j := 0; j < jobs; j++ {
		wg.Add(1)
		go func(j int) {
			defer wg.Done()
			for i := 0; i < runs; i++ {
				adm := r.Admit(gpus)
				for _, g := range append(adm.Full, adm.Probes...) {
					r.RecordRun(g, 1, (i+j+g)%3/2)
					recorded.Add(1)
				}
				r.Snapshot(gpus)
				r.Quarantined(gpus)
			}
		}(j)
	}
	wg.Wait()
	shards := 0
	for _, h := range r.Snapshot(gpus) {
		shards += h.Shards
	}
	if int64(shards) != recorded.Load() {
		t.Fatalf("registry holds %d shards, %d were reported", shards, recorded.Load())
	}
}
