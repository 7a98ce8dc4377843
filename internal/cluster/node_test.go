package cluster

import (
	"testing"
	"time"

	"distmsm/internal/gpusim"
)

// TestNodeBreakerReleaseProbe: a half-open node admits one probe
// dispatch at a time. An abandoned probe (hedge loser, job cancelled
// mid-flight) must give its slot back without recording an outcome, or
// the node would stay half-open and unroutable forever; a release
// arriving after the breaker has already moved on must be a no-op; and
// a recorded outcome frees the slot.
func TestNodeBreakerReleaseProbe(t *testing.T) {
	cfg := BreakerConfig{FailThreshold: 1, Cooldown: time.Second}
	var c Coordinator
	n := &node{}

	n.record(false, 0, cfg) // trip open
	probeAt := int64(cfg.Cooldown)
	if admitted, probe := n.admit(probeAt, cfg); !admitted || !probe {
		t.Fatalf("admission = (%v, probe %v), want a probe", admitted, probe)
	}
	// One probe at a time.
	if n.canTake(probeAt, cfg, false) {
		t.Fatal("half-open node offered a second concurrent probe")
	}
	if admitted, _ := n.admit(probeAt, cfg); admitted {
		t.Fatal("half-open node admitted a second concurrent probe")
	}
	// The probe is abandoned (cancelled), not recorded: the slot comes
	// back and the next admission gets a fresh probe.
	c.abandon(n, true)
	if n.br.State() != gpusim.BreakerHalfOpen || n.probing {
		t.Fatalf("state %v probing %v after release, want half-open with a free slot", n.br.State(), n.probing)
	}
	if admitted, probe := n.admit(probeAt, cfg); !admitted || !probe {
		t.Fatalf("re-admission after release = (%v, probe %v), want a probe", admitted, probe)
	}

	// A failure recorded by a concurrent dispatch re-opens the breaker;
	// a late release from the abandoned probe must not disturb it.
	n.record(false, probeAt, cfg)
	c.abandon(n, true)
	if n.br.State() != gpusim.BreakerOpen || n.probing {
		t.Fatalf("state %v probing %v, want a late release to leave the open breaker alone", n.br.State(), n.probing)
	}

	// A successful probe closes the breaker and frees the slot.
	reprobe := probeAt + int64(cfg.Cooldown)
	if admitted, probe := n.admit(reprobe, cfg); !admitted || !probe {
		t.Fatalf("re-probe admission = (%v, probe %v), want a probe", admitted, probe)
	}
	if tripped := n.record(true, reprobe, cfg); tripped {
		t.Fatal("successful probe reported a trip")
	}
	if n.br.State() != gpusim.BreakerClosed || n.probing {
		t.Fatalf("state %v probing %v after a successful probe, want closed with a free slot", n.br.State(), n.probing)
	}
	if admitted, probe := n.admit(reprobe, cfg); !admitted || probe {
		t.Fatalf("closed admission = (%v, probe %v), want admitted without a probe slot", admitted, probe)
	}
}

// TestBreakerConfigDefaults: the zero config selects the documented
// defaults.
func TestBreakerConfigDefaults(t *testing.T) {
	cfg := BreakerConfig{}.withDefaults()
	if cfg.FailThreshold != 3 || cfg.Cooldown != 5*time.Second {
		t.Fatalf("defaults = %+v, want threshold 3 cooldown 5s", cfg)
	}
}
