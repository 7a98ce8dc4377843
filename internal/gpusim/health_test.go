package gpusim

import "testing"

func TestHealthConfigDefaults(t *testing.T) {
	cfg := HealthConfig{}.withDefaults()
	if cfg.FaultThreshold != 3 || cfg.CooldownRuns != 4 || cfg.ProbeBuckets != 32 {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	kept := HealthConfig{FaultThreshold: 7, CooldownRuns: 2, ProbeBuckets: 5}.withDefaults()
	if kept.FaultThreshold != 7 || kept.CooldownRuns != 2 || kept.ProbeBuckets != 5 {
		t.Fatalf("explicit config not kept: %+v", kept)
	}
}

// TestBreakerLifecycle walks one GPU through the full state machine:
// faults accumulate consecutively across runs, a fault-free run resets
// the streak, the threshold opens the breaker, CooldownRuns plans later
// a probe is offered, a faulty probe re-opens, and a fault-free probe
// closes.
func TestBreakerLifecycle(t *testing.T) {
	r := NewHealthRegistry(HealthConfig{})
	// Two faulty runs: below threshold, still closed.
	r.RecordRun(0, 1, 1)
	r.RecordRun(0, 1, 1)
	if s := r.State(0); s != BreakerClosed {
		t.Fatalf("after 2 faults: state %v, want closed", s)
	}
	// A fault-free run with work resets the streak...
	r.RecordRun(0, 3, 0)
	r.RecordRun(0, 1, 1)
	r.RecordRun(0, 1, 1)
	if s := r.State(0); s != BreakerClosed {
		t.Fatalf("streak did not reset: state %v, want closed", s)
	}
	// ...so it takes a third consecutive fault to trip.
	r.RecordRun(0, 0, 1)
	if s := r.State(0); s != BreakerOpen {
		t.Fatalf("after threshold: state %v, want open", s)
	}

	// The open GPU sits out CooldownRuns-1 plans...
	for i := 0; i < 3; i++ {
		adm := r.Admit(2)
		if len(adm.Full) != 1 || adm.Full[0] != 1 || len(adm.Probes) != 0 {
			t.Fatalf("cooldown plan %d: admission %+v, want only GPU 1 full", i, adm)
		}
	}
	// ...and is offered a probe on the CooldownRuns-th.
	adm := r.Admit(2)
	if len(adm.Probes) != 1 || adm.Probes[0] != 0 {
		t.Fatalf("post-cooldown admission %+v, want GPU 0 probing", adm)
	}
	if s := r.State(0); s != BreakerHalfOpen {
		t.Fatalf("post-cooldown state %v, want half-open", s)
	}

	// A fault during the probe re-opens immediately.
	r.RecordRun(0, 0, 1)
	if s := r.State(0); s != BreakerOpen {
		t.Fatalf("faulty probe: state %v, want open", s)
	}

	// Cooldown again, then a fault-free probe with committed work closes.
	for i := 0; i < 4; i++ {
		r.Admit(2)
	}
	if s := r.State(0); s != BreakerHalfOpen {
		t.Fatalf("second cooldown: state %v, want half-open", s)
	}
	r.RecordRun(0, 1, 0)
	if s := r.State(0); s != BreakerClosed {
		t.Fatalf("clean probe: state %v, want closed", s)
	}

	snap := r.Snapshot(2)
	if snap[0].Trips != 2 {
		t.Fatalf("GPU 0 trips = %d, want 2", snap[0].Trips)
	}
	if snap[0].Shards != 8 || snap[0].Faults != 6 {
		t.Fatalf("lifetime totals %d shards / %d faults, want 8/6", snap[0].Shards, snap[0].Faults)
	}
}

// TestBreakerProbeWithoutWorkStaysHalfOpen: a probe whose shard never
// ran (stolen, or the job was cancelled first) is neither evidence of
// health nor of sickness — the GPU is probed again next plan.
func TestBreakerProbeWithoutWorkStaysHalfOpen(t *testing.T) {
	r := NewHealthRegistry(HealthConfig{FaultThreshold: 1, CooldownRuns: 1})
	r.RecordRun(0, 0, 1)
	if s := r.State(0); s != BreakerOpen {
		t.Fatalf("state %v, want open", s)
	}
	r.Admit(2) // cooldown elapses → half-open
	r.RecordRun(0, 0, 0)
	if s := r.State(0); s != BreakerHalfOpen {
		t.Fatalf("empty probe run: state %v, want half-open", s)
	}
	adm := r.Admit(2)
	if len(adm.Probes) != 1 || adm.Probes[0] != 0 {
		t.Fatalf("admission %+v, want GPU 0 probing again", adm)
	}
}

// TestBreakerAllOpenEmergency: with every device quarantined the
// registry fails towards availability and re-admits all of them as
// probes instead of refusing to plan.
func TestBreakerAllOpenEmergency(t *testing.T) {
	r := NewHealthRegistry(HealthConfig{FaultThreshold: 1, CooldownRuns: 100})
	r.RecordRun(0, 0, 1)
	r.RecordRun(1, 0, 1)
	if q := r.Quarantined(2); q != 2 {
		t.Fatalf("quarantined = %d, want 2", q)
	}
	adm := r.Admit(2)
	if len(adm.Full) != 0 || len(adm.Probes) != 2 {
		t.Fatalf("emergency admission %+v, want both GPUs probing", adm)
	}
	if r.State(0) != BreakerHalfOpen || r.State(1) != BreakerHalfOpen {
		t.Fatal("emergency re-admission did not move devices to half-open")
	}
}

func TestBreakerStateString(t *testing.T) {
	for s, want := range map[BreakerState]string{
		BreakerClosed:   "closed",
		BreakerOpen:     "open",
		BreakerHalfOpen: "half-open",
		BreakerState(9): "unknown",
	} {
		if got := s.String(); got != want {
			t.Errorf("BreakerState(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// TestReturnProbe: a cancelled run hands back an unexercised half-open
// admission — the device reads open again, keeps its trip tick (so the
// next plan still offers the probe), and closed devices are untouched.
func TestReturnProbe(t *testing.T) {
	r := NewHealthRegistry(HealthConfig{FaultThreshold: 1, CooldownRuns: 1})
	r.RecordRun(0, 0, 1)
	r.Admit(2) // cooldown elapses → half-open
	if s := r.State(0); s != BreakerHalfOpen {
		t.Fatalf("state %v, want half-open", s)
	}
	r.ReturnProbe(0)
	r.ReturnProbe(1)
	if s := r.State(0); s != BreakerOpen {
		t.Fatalf("returned probe: state %v, want open", s)
	}
	if s := r.State(1); s != BreakerClosed {
		t.Fatalf("closed device after ReturnProbe: state %v, want closed", s)
	}
	adm := r.Admit(2)
	if len(adm.Probes) != 1 || adm.Probes[0] != 0 || len(adm.Full) != 1 || adm.Full[0] != 1 {
		t.Fatalf("admission %+v, want GPU 0 probing again beside GPU 1", adm)
	}
}
