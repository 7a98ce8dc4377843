// Command bench is the repository's one benchmark: four workloads, two
// clocks. An untraced run reports the end-to-end metrics a user of the
// system sees; a traced run of the same workload reports per-layer
// metrics, measured from outside by timing calls into each layer's
// public functions and reading the values those calls return. The
// metric tables are in metrics.go, the rationale in README.md.
//
//	go run ./cmd/bench -seed 1                 every workload, untraced then traced
//	go run ./cmd/bench -smoke                  the same at a twentieth of the work
//	go run ./cmd/bench --workload msm_varbase --seed 1 --seconds 24 --trace 0
//	go run ./cmd/bench -compare a.jsonl b.jsonl
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}. The exit code is non-zero when
// any output check fails.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds. A smoke run is
// smokeDivisor times shorter and skips warm-up and set-up repetition;
// probes repeat a tenth as often.
const (
	defaultSeconds = 24
	smokeDivisor   = 20
)

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
}

// environment is recorded with every result, so that two result files
// can be told apart.
type environment struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"commit"`
}

var gitCommit = func() string {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown" // not a git checkout
	}
	return strings.TrimSpace(string(out))
}()

func currentEnv() environment {
	return environment{runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit}
}

func main() {
	var (
		name     = flag.String("workload", "", "run this one workload and print its result as the last line; empty runs all, untraced then traced")
		seed     = flag.Int64("seed", 1, "the only workload input: every point, scalar, circuit, schedule and job seed derives from it")
		seconds  = flag.Float64("seconds", defaultSeconds, "length of the timed section")
		trace    = flag.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 per-layer metrics from a traced run")
		smoke    = flag.Bool("smoke", false, "a twentieth of the timed work, no warm-up: checks the plumbing in under 20 s, claims no percentile")
		out      = flag.String("out", "", "append every result as one JSON line to this file (the input of -compare)")
		traceDir = flag.String("tracedir", ".bench_out", "directory for the Chrome trace of each traced run")
		compare  = flag.Bool("compare", false, "compare two -out files given as arguments and exit")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json as the metric tables define it and exit")
	)
	flag.Parse()
	if *manifest {
		os.Stdout.Write(manifestJSON())
		return
	}
	if *compare {
		if flag.NArg() != 2 {
			logf("-compare needs two result files")
			os.Exit(2)
		}
		os.Exit(runCompare(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	o := runOpts{seed: *seed, seconds: *seconds, smoke: *smoke, traceDir: *traceDir}
	if o.smoke {
		o.seconds /= smokeDivisor
	}
	env := currentEnv()
	logf("seed %d, %.1f s per run, nproc %d, GOMAXPROCS %d, %s, commit %s",
		o.seed, o.seconds, env.NProc, env.GOMAXPROCS, env.GoVersion, env.Commit)

	ctx := context.Background()
	ok := true
	emit := func(w workloadDef, traced bool) outcome {
		o.traced = traced
		res, err := runWorkload(ctx, w, o)
		if err != nil {
			logf("%v", err)
			os.Exit(1)
		}
		ok = ok && res.Correct
		if *out != "" {
			if err := appendResult(*out, res); err != nil {
				logf("%v", err)
				os.Exit(1)
			}
		}
		return res
	}

	if *name != "" {
		w, found := workloadByName(*name)
		if !found {
			logf("unknown workload %q", *name)
			os.Exit(2)
		}
		res := emit(w, *trace != 0)
		printResult(res)
		line, _ := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{res.Correct, res.Attempted, res.Failed, res.Metrics})
		fmt.Println(string(line))
	} else {
		for _, w := range workloadDefs {
			printResult(emit(w, false))
			printResult(emit(w, true))
		}
	}
	if !ok {
		logf("an output check failed")
		os.Exit(1)
	}
}

// printResult prints every metric of one run by name, with its unit.
func printResult(res outcome) {
	kind := "end-to-end (untraced)"
	if res.Traced {
		kind = "per-layer (traced)"
	}
	failRatio := float64(res.Failed) / float64(max(1, res.Attempted))
	fmt.Printf("== %s, %s: %d ops, attempted %d, failed %d, fail_ratio %.4f, correct %v\n",
		res.Workload, kind, res.Ops, res.Attempted, res.Failed, failRatio, res.Correct)
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		v := res.Metrics[n]
		if res.Traced {
			if d, _ := layerByName(n); !d.measuredOn(res.Workload) {
				continue // the workload does not enter this layer
			}
		}
		fmt.Printf("   %-34s %16.9g %-6s %s\n", n, v.Value, v.Unit, clockOf(n))
	}
}

func layerByName(name string) (layerDef, bool) {
	for _, d := range layerDefs {
		if d.name == name {
			return d, true
		}
	}
	return layerDef{}, false
}

func endToEndByName(name string) (endToEndDef, bool) {
	for _, d := range endToEndDefs {
		if d.name == name {
			return d, true
		}
	}
	return endToEndDef{}, false
}

// clockOf labels a metric host-clock, modeled-clock, count or memory.
func clockOf(name string) clock {
	if d, ok := endToEndByName(name); ok {
		return d.clock
	}
	d, _ := layerByName(name)
	return d.clock
}

func appendResult(path string, res outcome) error {
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err == nil {
		_, err = f.Write(append(line, '\n'))
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
