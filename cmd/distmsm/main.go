// Command distmsm runs a multi-scalar multiplication on a simulated
// multi-GPU system and reports the result digest, the modeled cost
// breakdown and the chosen execution plan.
//
// Usage:
//
//	distmsm -curve BN254 -n 4096 -gpus 8 [-window 0] [-device a100]
//	        [-engine concurrent] [-naive-scatter] [-gpu-reduce]
//	        [-unsigned] [-estimate]
//	        [-inject-faults transient=0.2,straggler=0.1,device-lost=0.05,corrupt=0.1]
//	        [-fault-seed 1]
//
// With -estimate the MSM is priced analytically (paper-scale N allowed);
// otherwise it is computed functionally and verified against the CPU
// Pippenger implementation. Ctrl-C cancels an in-flight execution.
//
// -inject-faults turns on deterministic fault injection on the simulated
// GPUs (concurrent engine): a comma-separated class=probability list
// over transient, straggler, device-lost and corrupt (plus the optional
// straggler-factor=N cost multiple), seeded by -fault-seed. The
// scheduler's recovery actions are reported after the run, and the
// result is still verified against the CPU Pippenger.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"distmsm"
)

func main() {
	var (
		curveName = flag.String("curve", "BN254", "elliptic curve: "+strings.Join(distmsm.Curves(), ", "))
		n         = flag.Int("n", 1<<12, "number of points")
		gpus      = flag.Int("gpus", 8, "simulated GPU count")
		device    = flag.String("device", "a100", "device model: a100, rtx4090, amd6900xt")
		window    = flag.Int("window", 0, "window size s (0 = auto)")
		engine    = flag.String("engine", "concurrent", "execution engine: serial, concurrent")
		naive     = flag.Bool("naive-scatter", false, "disable the hierarchical bucket scatter")
		gpuReduce = flag.Bool("gpu-reduce", false, "keep bucket-reduce on the GPUs")
		unsigned  = flag.Bool("unsigned", false, "disable signed-digit recoding")
		estimate  = flag.Bool("estimate", false, "analytic cost only (no functional execution)")
		seed      = flag.Int64("seed", 42, "workload seed")
		faults    = flag.String("inject-faults", "", "fault injection spec, e.g. transient=0.2,straggler=0.1,device-lost=0.05,corrupt=0.1[,straggler-factor=16]")
		faultSeed = flag.Int64("fault-seed", 1, "fault-injection seed (with -inject-faults)")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, *curveName, *device, *engine, *n, *gpus, *window, *naive, *gpuReduce, *unsigned, *estimate, *seed, *faults, *faultSeed); err != nil {
		fmt.Fprintln(os.Stderr, "distmsm:", err)
		os.Exit(1)
	}
}

// parseFaultSpec turns the -inject-faults class=probability list into a
// FaultConfig (validated later by the injector itself).
func parseFaultSpec(spec string, seed int64) (distmsm.FaultConfig, error) {
	cfg := distmsm.FaultConfig{Seed: seed}
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		key, val, ok := strings.Cut(part, "=")
		if !ok {
			return cfg, fmt.Errorf("bad fault spec entry %q: want class=probability", part)
		}
		p, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return cfg, fmt.Errorf("bad fault probability in %q: %v", part, err)
		}
		switch strings.TrimSpace(key) {
		case "transient":
			cfg.Transient = p
		case "straggler":
			cfg.Straggler = p
		case "device-lost":
			cfg.DeviceLost = p
		case "corrupt":
			cfg.Corrupt = p
		case "straggler-factor":
			cfg.StragglerFactor = p
		default:
			return cfg, fmt.Errorf("unknown fault class %q (want transient, straggler, device-lost, corrupt or straggler-factor)", key)
		}
	}
	return cfg, nil
}

func run(ctx context.Context, curveName, device, engine string, n, gpus, window int, naive, gpuReduce, unsigned, estimate bool, seed int64, faultSpec string, faultSeed int64) error {
	var model distmsm.DeviceModel
	switch strings.ToLower(device) {
	case "a100":
		model = distmsm.A100
	case "rtx4090":
		model = distmsm.RTX4090
	case "amd6900xt":
		model = distmsm.AMD6900XT
	default:
		return fmt.Errorf("unknown device %q", device)
	}
	var eng distmsm.Engine
	switch strings.ToLower(engine) {
	case "serial":
		eng = distmsm.EngineSerial
	case "concurrent":
		eng = distmsm.EngineConcurrent
	default:
		return fmt.Errorf("unknown engine %q", engine)
	}
	c, err := distmsm.Curve(curveName)
	if err != nil {
		return err
	}
	sys, err := distmsm.NewSystem(model, gpus)
	if err != nil {
		return err
	}
	opts := []distmsm.Option{
		distmsm.WithWindowBits(window),
		distmsm.WithEngine(eng),
		distmsm.WithHierarchicalScatter(!naive),
		distmsm.WithGPUReduce(gpuReduce),
		distmsm.WithSignedDigits(!unsigned),
	}
	if faultSpec != "" {
		cfg, err := parseFaultSpec(faultSpec, faultSeed)
		if err != nil {
			return err
		}
		opts = append(opts, distmsm.WithFaultInjection(cfg))
	}

	var res *distmsm.Result
	if estimate {
		res, err = sys.EstimateContext(ctx, c, n, opts...)
	} else {
		points := c.SamplePoints(n, uint64(seed))
		scalars := c.SampleScalars(n, seed)
		res, err = sys.MSMContext(ctx, c, points, scalars, opts...)
		if err != nil {
			return err
		}
		want, err := distmsm.CPUMSM(c, points, scalars)
		if err != nil {
			return err
		}
		if !c.EqualXYZZ(res.Point, want) {
			return fmt.Errorf("verification FAILED: DistMSM result differs from CPU Pippenger")
		}
		aff := c.ToAffine(res.Point)
		fmt.Printf("result     : %s\n", aff)
		fmt.Println("verified   : matches CPU Pippenger")
	}
	if err != nil {
		return err
	}

	p := res.Priced
	fmt.Printf("curve      : %s (λ=%d bits, p=%d bits)\n", c.Name, c.ScalarBits, c.Fp.Bits())
	fmt.Printf("system     : %d x %s (%s engine)\n", sys.GPUs(), sys.DeviceName(), eng)
	fmt.Printf("plan       : priced s=%d executed s=%d windows=%d buckets=%d signed=%v hierarchical=%v cpu-reduce=%v\n",
		p.S, res.Plan.S, p.Windows, p.Buckets, p.Signed, p.Hierarchical, !p.ReduceOnGPU)
	fmt.Printf("modeled ms : total=%.3f scatter=%.3f bucket-sum=%.3f reduce=%.3f transfer=%.3f\n",
		res.Cost.Total()*1e3, res.Cost.Scatter*1e3, res.Cost.BucketSum*1e3,
		res.Cost.BucketReduce*1e3, res.Cost.Transfer*1e3)
	if !estimate {
		for _, g := range res.Stats.PerGPU {
			fmt.Printf("gpu %-6d : %d shards, %d PACC ops, %.3f ms host busy\n",
				g.GPU, g.Shards, g.PACCOps, float64(g.Busy.Microseconds())/1e3)
		}
		if f := res.Stats.Faults; f.Any() {
			fmt.Printf("faults     : lost=%d transient=%d stragglers=%d corruptions=%d\n",
				f.DevicesLost, f.TransientErrors, f.Stragglers, f.Corruptions)
			fmt.Printf("recovery   : retries=%d reassigned=%d speculative=%d (won %d) verified=%d (rejected %d)\n",
				f.Retries, f.Reassignments, f.SpeculativeLaunches, f.SpeculativeWins,
				f.VerificationRuns, f.VerificationFailures)
			if f.DegradedToSerial {
				fmt.Println("degraded   : every GPU lost, completed on the host with faults detached")
			}
		}
	}
	return nil
}
