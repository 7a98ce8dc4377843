package gpusim

import (
	"errors"
	"fmt"
)

// This file is the fault model of the simulated cluster: a deterministic,
// seedable injector the execution engine consults once per shard
// execution. Production multi-GPU ZKP deployments see exactly these
// failure classes — whole-device loss (XID errors, ECC retirement),
// transient kernel failures, stragglers from clock throttling or
// contention, and (rarely, but catastrophically for a proof) corrupted
// partial results — and the DistMSM scheduler must degrade throughput,
// never correctness, under all of them.

// FaultClass enumerates the injectable fault classes.
type FaultClass int

const (
	// FaultNone: the shard executes normally.
	FaultNone FaultClass = iota
	// FaultDeviceLost permanently removes the executing GPU from the
	// cluster; its queued shards must be reassigned to survivors.
	FaultDeviceLost
	// FaultTransient fails this shard execution; the device survives and
	// a retry (with a fresh attempt index) may succeed.
	FaultTransient
	// FaultStraggler inflates the shard's execution cost by the
	// configured factor without failing it.
	FaultStraggler
	// FaultCorrupt makes the shard return a wrong partial bucket sum
	// (one XYZZ accumulator is perturbed to a different curve point).
	FaultCorrupt
)

func (c FaultClass) String() string {
	switch c {
	case FaultNone:
		return "none"
	case FaultDeviceLost:
		return "device-lost"
	case FaultTransient:
		return "transient-error"
	case FaultStraggler:
		return "straggler"
	case FaultCorrupt:
		return "corrupted-result"
	}
	return "unknown"
}

// Fault is one injection decision.
type Fault struct {
	Class FaultClass
	// Factor is the cost-inflation multiple for FaultStraggler (the
	// configured StragglerFactor); zero otherwise.
	Factor float64
}

// ErrBadFaultConfig reports an invalid FaultConfig.
var ErrBadFaultConfig = errors.New("gpusim: invalid fault configuration")

// FaultConfig describes the per-shard-execution fault probabilities. All
// probabilities are in [0, 1] and their sum must not exceed 1 (at most
// one fault fires per execution). The zero value injects nothing.
type FaultConfig struct {
	// Seed makes every injection decision a pure function of
	// (Seed, gpu, window, bucketLo, attempt): the same seed reproduces
	// the same decision at every decision point regardless of the
	// host's goroutine scheduling.
	Seed int64
	// DeviceLost is the probability a shard execution permanently kills
	// its GPU.
	DeviceLost float64
	// Transient is the probability a shard execution fails recoverably.
	Transient float64
	// Straggler is the probability a shard execution is slowed by
	// StragglerFactor.
	Straggler float64
	// Corrupt is the probability a shard returns a perturbed result.
	Corrupt float64
	// StragglerFactor is the cost-inflation multiple of a straggling
	// shard (default 32 when zero).
	StragglerFactor float64
	// DisableFallback surfaces ErrAllGPUsLost from the engine instead of
	// re-running the plan on the host, faults detached, when every GPU
	// is lost.
	DisableFallback bool
}

// DefaultStragglerFactor is the cost inflation applied to straggling
// shards when FaultConfig.StragglerFactor is unset.
const DefaultStragglerFactor = 32

// FaultProb is one fault class's per-decision probability, named for
// error messages.
type FaultProb struct {
	Name string
	P    float64
}

// FaultPicker maps a uniform draw in [0, 1) onto fault classes: the
// cumulative probability thresholds of the classes, in class order. The
// GPU and node injectors share it, so both validate and pick alike.
type FaultPicker []float64

// NewFaultPicker checks that every probability is in [0, 1] and that
// they sum to at most 1 (at most one fault fires per decision); errors
// wrap bad, the caller's own sentinel.
func NewFaultPicker(bad error, probs ...FaultProb) (FaultPicker, error) {
	th := make(FaultPicker, len(probs))
	sum := 0.0
	for i, p := range probs {
		if p.P < 0 || p.P > 1 {
			return nil, fmt.Errorf("%w: %s = %v outside [0, 1]", bad, p.Name, p.P)
		}
		sum += p.P
		th[i] = sum
	}
	if sum > 1 {
		return nil, fmt.Errorf("%w: probabilities sum to %v > 1", bad, sum)
	}
	return th, nil
}

// Pick returns the 1-based index of the class the draw u falls in, or 0
// when no fault fires.
func (p FaultPicker) Pick(u float64) int {
	for i, th := range p {
		if u < th {
			return i + 1
		}
	}
	return 0
}

// FaultInjector makes deterministic fault decisions from a FaultConfig.
// It is stateless and safe for concurrent use.
type FaultInjector struct {
	cfg  FaultConfig
	pick FaultPicker // classes in FaultClass order, from FaultDeviceLost
}

// NewFaultInjector validates cfg and returns an injector for it.
func NewFaultInjector(cfg FaultConfig) (*FaultInjector, error) {
	pick, err := NewFaultPicker(ErrBadFaultConfig,
		FaultProb{"DeviceLost", cfg.DeviceLost},
		FaultProb{"Transient", cfg.Transient},
		FaultProb{"Straggler", cfg.Straggler},
		FaultProb{"Corrupt", cfg.Corrupt})
	if err != nil {
		return nil, err
	}
	if cfg.StragglerFactor < 0 {
		return nil, fmt.Errorf("%w: StragglerFactor = %v < 0", ErrBadFaultConfig, cfg.StragglerFactor)
	}
	if cfg.StragglerFactor == 0 {
		cfg.StragglerFactor = DefaultStragglerFactor
	}
	return &FaultInjector{cfg: cfg, pick: pick}, nil
}

// Config returns the (default-filled) configuration.
func (f *FaultInjector) Config() FaultConfig { return f.cfg }

// hash-domain tags keeping the decision, verification-sampling and
// challenge-secret streams independent.
const (
	tagDecide uint64 = 0xD1CE
	// TagVerify is the domain of the engine's verification-sampling rolls.
	TagVerify uint64 = 0x5EED
	// TagChallenge is the domain of the outsourced-verification
	// challenge secrets (sparse-mask derivation, internal/outsource).
	TagChallenge uint64 = 0xCA11
)

// Decide returns the fault (if any) injected into the attempt-th
// execution of the (window, bucketLo) shard on the given GPU. Decisions
// are deterministic in the tuple and independent across attempts, so a
// retried or reassigned execution rolls afresh. A nil injector injects
// nothing.
func (f *FaultInjector) Decide(gpu, window, bucketLo, attempt int) Fault {
	if f == nil {
		return Fault{}
	}
	u := HashUnit(uint64(f.cfg.Seed), tagDecide,
		uint64(gpu), uint64(window), uint64(bucketLo), uint64(attempt))
	class := FaultClass(f.pick.Pick(u))
	if class == FaultStraggler {
		return Fault{Class: class, Factor: f.cfg.StragglerFactor}
	}
	return Fault{Class: class}
}

// Mix64 is the SplitMix64 finalizer, the mixing primitive of the
// injector's counter-based randomness.
func Mix64(z uint64) uint64 {
	z += 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Hash64 folds the parts into one well-mixed 64-bit value.
func Hash64(parts ...uint64) uint64 {
	var h uint64 = 0x9e3779b97f4a7c15
	for _, p := range parts {
		h = Mix64(h ^ p)
	}
	return h
}

// HashUnit maps the parts to a uniform float64 in [0, 1).
func HashUnit(parts ...uint64) float64 {
	return float64(Hash64(parts...)>>11) / float64(1<<53)
}
