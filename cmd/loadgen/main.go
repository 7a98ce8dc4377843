// Command loadgen is an open-loop load generator for the proving
// service: it fires POST /v1/prove requests at a configured Poisson
// arrival rate over a weighted circuit mix and reports per-circuit
// end-to-end latency quantiles (p50/p99/p999) plus reject, timeout and
// deadline-miss rates. Open-loop means arrivals never wait for
// responses — the generator models independent clients, so queueing
// delay shows up as measured latency instead of silently throttling
// the offered load (closed-loop generators hide exactly the tail this
// tool exists to measure).
//
// By default loadgen self-hosts a service in-process on a loopback
// listener, so one command measures a full policy configuration:
//
//	loadgen -rate 6 -duration 20s \
//	    -mix 'interactive:1:1500:64,batch:4:8000:160' \
//	    -queue-policy edf -circuit-quota 0.75 -shed
//
// Point it at a running provd or coordinator instead with -target
// (both serve /v1/prove); the policy and fault flags then have no
// effect — they configure the self-hosted server only.
//
// Determinism: one seed drives the arrival process, the circuit
// choices and the per-job witness seeds, so a scenario replays the
// same offered load every run. Fault injection composes via the
// -fault-* flags (forwarded to internal/gpusim's deterministic
// injector).
//
// -smoke is the CI entry point: a miniature adversarial run that fails
// unless quantiles were recorded, nothing failed unexpectedly, and the
// EDF reorder and shed paths actually fired.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"distmsm/internal/gpusim"
	"distmsm/internal/service"
	"distmsm/internal/telemetry"
)

func main() {
	var (
		target   = flag.String("target", "", "base URL of a running provd/coordinator (default: self-host in-process)")
		mixSpec  = flag.String("mix", "synthetic:1:5000:96", "circuit mix: comma-separated name:weight:timeout_ms[:constraints]")
		rate     = flag.Float64("rate", 4, "offered load, jobs/second (Poisson arrivals)")
		duration = flag.Duration("duration", 15*time.Second, "generation window")
		seed     = flag.Int64("seed", 1, "load seed: arrivals, circuit choices and job seeds")
		out      = flag.String("out", "", "write the JSON report here (default stdout summary only)")
		smoke    = flag.Bool("smoke", false, "run the CI smoke: asserts quantiles recorded, no unexpected failures, live shed/reorder paths")

		gpus    = flag.Int("gpus", 8, "self-host: simulated GPU count")
		workers = flag.Int("workers", 4, "self-host: proving workers")
		queue   = flag.Int("queue", 16, "self-host: queue depth")

		queuePolicy = flag.String("queue-policy", "edf", "self-host: pending-queue order, edf or fifo")
		quota       = flag.Float64("circuit-quota", 0, "self-host: per-circuit admission quota fraction (0 disables)")
		shed        = flag.Bool("shed", false, "self-host: shed doomed jobs")
		slack       = flag.Duration("coalesce-slack", 0, "self-host: EDF slack gate for circuit-affinity coalescing")

		fTransient = flag.Float64("fault-transient", 0, "self-host: per-shard transient fault probability")
		fStraggler = flag.Float64("fault-straggler", 0, "self-host: per-shard straggler probability")
		fCorrupt   = flag.Float64("fault-corrupt", 0, "self-host: per-shard corruption probability")
		fLost      = flag.Float64("fault-device-lost", 0, "self-host: per-shard device-loss probability")
		fSeed      = flag.Int64("fault-seed", 1, "self-host: fault-injection seed")
	)
	flag.Parse()
	if err := run(runOpts{
		target: *target, mixSpec: *mixSpec, rate: *rate, duration: *duration,
		seed: *seed, out: *out, smoke: *smoke,
		srv: serverOpts{
			gpus: *gpus, workers: *workers, queue: *queue,
			policy: *queuePolicy, quota: *quota, shed: *shed, slack: *slack,
			faults: faultOpts{
				transient: *fTransient, straggler: *fStraggler,
				corrupt: *fCorrupt, lost: *fLost, seed: *fSeed,
			},
		},
	}); err != nil {
		fmt.Fprintln(os.Stderr, "loadgen:", err)
		os.Exit(1)
	}
}

type runOpts struct {
	target   string
	mixSpec  string
	rate     float64
	duration time.Duration
	seed     int64
	out      string
	smoke    bool
	srv      serverOpts
}

// mixEntry is one circuit of the offered mix.
type mixEntry struct {
	Name        string  `json:"name"`
	Weight      float64 `json:"weight"`
	TimeoutMS   int64   `json:"timeout_ms"`
	Constraints int     `json:"constraints"`
}

// parseMix parses "name:weight:timeout_ms[:constraints]" entries.
func parseMix(spec string) ([]mixEntry, error) {
	var mix []mixEntry
	for _, part := range strings.Split(spec, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		f := strings.Split(part, ":")
		if len(f) != 3 && len(f) != 4 {
			return nil, fmt.Errorf("mix entry %q: want name:weight:timeout_ms[:constraints]", part)
		}
		w, err := strconv.ParseFloat(f[1], 64)
		if err != nil || w <= 0 {
			return nil, fmt.Errorf("mix entry %q: bad weight", part)
		}
		tmo, err := strconv.ParseInt(f[2], 10, 64)
		if err != nil || tmo <= 0 {
			return nil, fmt.Errorf("mix entry %q: bad timeout_ms", part)
		}
		e := mixEntry{Name: f[0], Weight: w, TimeoutMS: tmo, Constraints: 96}
		if len(f) == 4 {
			if e.Constraints, err = strconv.Atoi(f[3]); err != nil || e.Constraints <= 0 {
				return nil, fmt.Errorf("mix entry %q: bad constraints", part)
			}
		}
		mix = append(mix, e)
	}
	if len(mix) == 0 {
		return nil, fmt.Errorf("empty mix")
	}
	return mix, nil
}

type faultOpts struct {
	transient, straggler, corrupt, lost float64
	seed                                int64
}

func (f faultOpts) config() *gpusim.FaultConfig {
	if f.transient == 0 && f.straggler == 0 && f.corrupt == 0 && f.lost == 0 {
		return nil
	}
	return &gpusim.FaultConfig{
		Seed: f.seed, Transient: f.transient, Straggler: f.straggler,
		Corrupt: f.corrupt, DeviceLost: f.lost,
	}
}

type serverOpts struct {
	gpus, workers, queue int
	policy               string
	quota                float64
	shed                 bool
	slack                time.Duration
	faults               faultOpts
}

// startServer self-hosts a service on a loopback listener and returns
// its base URL plus a shutdown func.
func startServer(ctx context.Context, o serverOpts, mix []mixEntry) (string, func(), error) {
	cl, err := gpusim.NewCluster(gpusim.A100(), o.gpus)
	if err != nil {
		return "", nil, err
	}
	var policy service.QueuePolicy
	switch o.policy {
	case "edf", "":
		policy = service.QueueEDF
	case "fifo":
		policy = service.QueueFIFO
	default:
		return "", nil, fmt.Errorf("unknown queue policy %q", o.policy)
	}
	svc, err := service.New(service.Config{
		Cluster:        cl,
		Workers:        o.workers,
		QueueDepth:     o.queue,
		DefaultTimeout: time.Minute,
		Metrics:        telemetry.NewRegistry(),
		QueuePolicy:    policy,
		CircuitQuota:   o.quota,
		ShedDoomed:     o.shed,
		CoalesceSlack:  o.slack,
		Faults:         o.faults.config(),
	})
	if err != nil {
		return "", nil, err
	}
	registered := map[string]bool{}
	for _, e := range mix {
		if registered[e.Name] {
			continue
		}
		registered[e.Name] = true
		if err := svc.RegisterSynthetic(ctx, e.Name, e.Constraints); err != nil {
			return "", nil, err
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	srv := &http.Server{Handler: svc.Handler()}
	go func() { _ = srv.Serve(ln) }()
	shutdown := func() {
		shCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		_ = srv.Shutdown(shCtx)
		_ = svc.Shutdown(shCtx)
	}
	return "http://" + ln.Addr().String(), shutdown, nil
}

// circuitReport is the measured outcome of one circuit in one scenario.
type circuitReport struct {
	Sent          int     `json:"sent"`
	OK            int     `json:"ok"`
	Rejected      int     `json:"rejected"`
	QuotaRejected int     `json:"quota_rejected"`
	DeadlineMiss  int     `json:"deadline_miss"`
	Errors        int     `json:"errors"`
	MissRate      float64 `json:"miss_rate"` // deadline misses / admitted
	P50ms         float64 `json:"p50_ms"`
	P99ms         float64 `json:"p99_ms"`
	P999ms        float64 `json:"p999_ms"`
}

// serverStats is the subset of GET /v1/stats loadgen interprets.
type serverStats struct {
	Completed        uint64 `json:"Completed"`
	Rejected         uint64 `json:"Rejected"`
	Cancelled        uint64 `json:"Cancelled"`
	Failed           uint64 `json:"Failed"`
	BatchesCoalesced uint64 `json:"BatchesCoalesced"`
	QueueReorders    uint64 `json:"QueueReorders"`
	QuotaRejected    uint64 `json:"QuotaRejected"`
	ShedExpired      uint64 `json:"ShedExpired"`
	ShedDoomed       uint64 `json:"ShedDoomed"`
	ShedPhase        uint64 `json:"ShedPhase"`
	JobSeconds       *struct {
		Count uint64  `json:"count"`
		P50   float64 `json:"p50"`
		P99   float64 `json:"p99"`
		P999  float64 `json:"p999"`
	} `json:"job_seconds"`
}

// scenarioReport is one scenario's full result.
type scenarioReport struct {
	Name        string                    `json:"name"`
	Target      string                    `json:"target"`
	RatePerSec  float64                   `json:"rate_per_sec"`
	DurationSec float64                   `json:"duration_sec"`
	Seed        int64                     `json:"seed"`
	Mix         []mixEntry                `json:"mix"`
	Policy      map[string]any            `json:"policy,omitempty"`
	Faults      map[string]any            `json:"faults,omitempty"`
	Circuits    map[string]*circuitReport `json:"circuits"`
	Overall     *circuitReport            `json:"overall"`
	ServerStats *serverStats              `json:"server_stats,omitempty"`
}

// circuitAgg accumulates one circuit's outcomes during a run. The
// histogram records end-to-end latency of ADMITTED jobs only (proofs
// and deadline misses); instant 429 rejects would drag the quantiles
// down and are reported as a rate instead.
type circuitAgg struct {
	mu   sync.Mutex
	rep  circuitReport
	hist *telemetry.Histogram
	// pooled, when set, receives every admitted-job latency too — the
	// scenario-wide histogram backing the "overall" quantiles.
	pooled *telemetry.Histogram
}

// latencyBuckets is a fine ~x1.22 geometric grid (2ms..150s) so
// Histogram.Quantile resolves 2x latency ratios cleanly — the default
// x2.5 exposition buckets would blur a policy-vs-policy tail comparison.
func latencyBuckets() []float64 {
	var b []float64
	for v := 0.002; v < 150; v *= 1.22 {
		b = append(b, v)
	}
	return b
}

type outcome int

const (
	outOK outcome = iota
	outRejected
	outQuotaRejected
	outDeadlineMiss
	outError
)

func (a *circuitAgg) record(o outcome, latency time.Duration) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.rep.Sent++
	switch o {
	case outOK:
		a.rep.OK++
		a.observe(latency)
	case outRejected:
		a.rep.Rejected++
	case outQuotaRejected:
		a.rep.Rejected++
		a.rep.QuotaRejected++
	case outDeadlineMiss:
		a.rep.DeadlineMiss++
		a.observe(latency)
	case outError:
		a.rep.Errors++
	}
}

func (a *circuitAgg) observe(latency time.Duration) {
	a.hist.Observe(latency.Seconds())
	if a.pooled != nil {
		a.pooled.Observe(latency.Seconds())
	}
}

func (a *circuitAgg) finish() *circuitReport {
	a.mu.Lock()
	defer a.mu.Unlock()
	r := a.rep
	if admitted := r.OK + r.DeadlineMiss; admitted > 0 {
		r.MissRate = float64(r.DeadlineMiss) / float64(admitted)
	}
	if a.hist.Count() > 0 {
		r.P50ms = a.hist.Quantile(0.50) * 1000
		r.P99ms = a.hist.Quantile(0.99) * 1000
		r.P999ms = a.hist.Quantile(0.999) * 1000
	}
	return &r
}

// fire sends one prove request and classifies the response.
func fire(client *http.Client, target string, e mixEntry, jobSeed int64, agg *circuitAgg) {
	body, _ := json.Marshal(map[string]any{
		"circuit": e.Name, "seed": jobSeed, "timeout_ms": e.TimeoutMS,
	})
	// The client deadline sits well past the job deadline: the 504 must
	// come from the server's deadline machinery, not from the transport.
	ctx, cancel := context.WithTimeout(context.Background(),
		time.Duration(e.TimeoutMS)*time.Millisecond+30*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, target+"/v1/prove", bytes.NewReader(body))
	if err != nil {
		agg.record(outError, 0)
		return
	}
	start := time.Now()
	resp, err := client.Do(req)
	lat := time.Since(start)
	if err != nil {
		agg.record(outError, lat)
		return
	}
	respBody, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	_ = resp.Body.Close()
	switch resp.StatusCode {
	case http.StatusOK:
		agg.record(outOK, lat)
	case http.StatusTooManyRequests:
		if bytes.Contains(respBody, []byte("over quota")) {
			agg.record(outQuotaRejected, lat)
		} else {
			agg.record(outRejected, lat)
		}
	case http.StatusGatewayTimeout:
		agg.record(outDeadlineMiss, lat)
	default:
		agg.record(outError, lat)
	}
}

// runScenario drives one open-loop run against target and aggregates
// the results. The single generator goroutine owns the seeded RNG, so
// the (arrival offset, circuit, job seed) sequence is a pure function
// of the seed.
func runScenario(name, target string, mix []mixEntry, rate float64, dur time.Duration, seed int64) *scenarioReport {
	rnd := rand.New(rand.NewSource(seed))
	total := 0.0
	for _, e := range mix {
		total += e.Weight
	}
	hist := func() *telemetry.Histogram {
		return telemetry.NewRegistry().Histogram(
			"loadgen_latency_seconds", "", "", latencyBuckets())
	}
	overall := &circuitAgg{hist: hist()}
	aggs := map[string]*circuitAgg{}
	for _, e := range mix {
		if aggs[e.Name] == nil {
			aggs[e.Name] = &circuitAgg{hist: hist(), pooled: overall.hist}
		}
	}

	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 256}}
	var wg sync.WaitGroup
	start := time.Now()
	for offset := 0.0; offset < dur.Seconds(); offset += rnd.ExpFloat64() / rate {
		// Weighted circuit pick and job seed, both drawn on this
		// goroutine to keep the sequence deterministic.
		pick := rnd.Float64() * total
		e := mix[0]
		for _, c := range mix {
			if pick < c.Weight {
				e = c
				break
			}
			pick -= c.Weight
		}
		jobSeed := rnd.Int63()
		if d := time.Until(start.Add(time.Duration(offset * float64(time.Second)))); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			fire(client, target, e, jobSeed, aggs[e.Name])
		}()
	}
	wg.Wait()
	client.CloseIdleConnections()

	rep := &scenarioReport{
		Name: name, Target: target, RatePerSec: rate,
		DurationSec: dur.Seconds(), Seed: seed, Mix: mix,
		Circuits: map[string]*circuitReport{},
	}
	for cname, a := range aggs {
		r := a.finish()
		rep.Circuits[cname] = r
		overall.mu.Lock()
		overall.rep.Sent += r.Sent
		overall.rep.OK += r.OK
		overall.rep.Rejected += r.Rejected
		overall.rep.QuotaRejected += r.QuotaRejected
		overall.rep.DeadlineMiss += r.DeadlineMiss
		overall.rep.Errors += r.Errors
		overall.mu.Unlock()
	}
	rep.Overall = overall.finish()
	rep.ServerStats = fetchStats(client, target)
	return rep
}

func fetchStats(client *http.Client, target string) *serverStats {
	resp, err := client.Get(target + "/v1/stats")
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	var st serverStats
	if json.NewDecoder(resp.Body).Decode(&st) != nil {
		return nil
	}
	return &st
}

func (o serverOpts) policyJSON() map[string]any {
	return map[string]any{
		"queue_policy":      o.policy,
		"circuit_quota":     o.quota,
		"shed":              o.shed,
		"coalesce_slack_ms": o.slack.Milliseconds(),
		"gpus":              o.gpus,
		"workers":           o.workers,
		"queue_depth":       o.queue,
	}
}

func (f faultOpts) faultsJSON() map[string]any {
	if f.config() == nil {
		return nil
	}
	return map[string]any{
		"transient": f.transient, "straggler": f.straggler,
		"corrupt": f.corrupt, "device_lost": f.lost, "seed": f.seed,
	}
}

// runSelfHosted spins up a server for o.srv, runs one scenario against
// it and tears it down.
func runSelfHosted(name string, o serverOpts, mix []mixEntry, rate float64, dur time.Duration, seed int64) (*scenarioReport, error) {
	ctx := context.Background()
	base, stop, err := startServer(ctx, o, mix)
	if err != nil {
		return nil, err
	}
	rep := runScenario(name, base, mix, rate, dur, seed)
	stop()
	rep.Target = "self-hosted"
	rep.Policy = o.policyJSON()
	rep.Faults = o.faults.faultsJSON()
	return rep, nil
}

// measureServiceTimes runs, on a server of its own configured as o,
// one untimed and smokeWarmups timed jobs of each mix circuit one at a
// time, and returns each circuit's mean latency: its service time on
// an idle server.
func measureServiceTimes(o serverOpts, mix []mixEntry, seed int64) (map[string]time.Duration, error) {
	target, stop, err := startServer(context.Background(), o, mix)
	if err != nil {
		return nil, err
	}
	defer stop()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	out := map[string]time.Duration{}
	for _, e := range mix {
		e.TimeoutMS = time.Minute.Milliseconds()
		agg := &circuitAgg{hist: telemetry.NewRegistry().Histogram("loadgen_warmup_seconds", "", "", latencyBuckets())}
		var total time.Duration
		for i := 0; i <= smokeWarmups; i++ {
			start := time.Now()
			fire(client, target, e, seed+int64(i), agg)
			if i > 0 {
				total += time.Since(start)
			}
		}
		if agg.rep.OK != smokeWarmups+1 {
			return nil, fmt.Errorf("warm-up of %s: %d of %d jobs proved", e.Name, agg.rep.OK, smokeWarmups+1)
		}
		out[e.Name] = total / smokeWarmups
	}
	return out, nil
}

// report is the full JSON document (-out).
type report struct {
	Tool      string            `json:"tool"`
	Go        string            `json:"go"`
	Scenarios []*scenarioReport `json:"scenarios"`
}

func run(o runOpts) error {
	if o.smoke {
		return runSmoke(o)
	}
	mix, err := parseMix(o.mixSpec)
	if err != nil {
		return err
	}
	var rep *scenarioReport
	if o.target != "" {
		rep = runScenario("adhoc", o.target, mix, o.rate, o.duration, o.seed)
	} else {
		if rep, err = runSelfHosted("adhoc", o.srv, mix, o.rate, o.duration, o.seed); err != nil {
			return err
		}
	}
	printScenario(rep)
	if o.out != "" {
		return writeReport(o.out, &report{Tool: "loadgen", Go: runtime.Version(), Scenarios: []*scenarioReport{rep}})
	}
	return nil
}

func printScenario(rep *scenarioReport) {
	fmt.Printf("scenario %s: rate %.2g/s for %.3gs against %s\n",
		rep.Name, rep.RatePerSec, rep.DurationSec, rep.Target)
	for name, c := range rep.Circuits {
		fmt.Printf("  %-14s sent %-5d ok %-5d rej %-4d (quota %d) miss %-4d err %-3d  p50 %7.1fms  p99 %8.1fms  p999 %8.1fms\n",
			name, c.Sent, c.OK, c.Rejected, c.QuotaRejected, c.DeadlineMiss, c.Errors, c.P50ms, c.P99ms, c.P999ms)
	}
	if st := rep.ServerStats; st != nil {
		fmt.Printf("  server: reorders %d, coalesced %d, quota-rejected %d, shed %d/%d/%d (expired/doomed/phase)\n",
			st.QueueReorders, st.BatchesCoalesced, st.QuotaRejected,
			st.ShedExpired, st.ShedDoomed, st.ShedPhase)
	}
}

func writeReport(path string, rep *report) error {
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// tunedOpts is the hardened policy the smoke exercises: EDF order,
// per-circuit quotas, doomed-job shedding and slack-gated coalescing.
func tunedOpts(base serverOpts) serverOpts {
	base.policy = "edf"
	base.quota = 0.75
	base.shed = true
	base.slack = 2 * time.Second
	return base
}

// The smoke's load is derived from the service it runs against, so it
// overloads that service however fast proving gets: the offered rate is
// smokeOverload times the measured capacity (workers ÷ the mix-weighted
// mean service time), and the doomed circuit's deadline is
// smokeDoomedFraction of its own measured prove time.
const (
	smokeWarmups        = 3   // timed warm-up jobs per circuit, after one untimed
	smokeOverload       = 1.5 // offered rate ÷ measured capacity
	smokeDoomedFraction = 0.5 // doomed deadline ÷ its measured prove time
)

// runSmoke is the CI gate: a miniature adversarial run. It fails
// unless (a) the interactive p999 was recorded under the tuned policy,
// (b) nothing failed unexpectedly (transport or 5xx), and (c) the EDF
// reorder and shed paths actually fired — a refactor that silently
// disables either reads as a hard failure here, not as a quietly
// FIFO-shaped latency profile.
func runSmoke(o runOpts) error {
	base := o.srv
	base.gpus, base.workers, base.queue = 4, 2, 8
	srv := tunedOpts(base)
	// Overloaded, plus a trickle circuit whose deadline sits below its
	// own prove time — every one of its queued jobs is provably doomed
	// (expired at dequeue under load, out of budget at a phase boundary
	// otherwise), so the smoke sees the shed path fire rather than
	// passing on an idle system.
	mix := []mixEntry{
		{Name: "batch-heavy", Weight: 6, TimeoutMS: 1400, Constraints: 192},
		{Name: "interactive", Weight: 1, TimeoutMS: 1000, Constraints: 48},
		{Name: "doomed", Weight: 1, Constraints: 192}, // deadline derived below
	}
	serviceTimes, err := measureServiceTimes(srv, mix, o.seed)
	if err != nil {
		return err
	}
	var mean, weights float64
	for _, e := range mix {
		mean += e.Weight * serviceTimes[e.Name].Seconds()
		weights += e.Weight
	}
	mean /= weights
	capacity := float64(srv.workers) / mean
	rate := smokeOverload * capacity
	doomed := &mix[len(mix)-1]
	doomed.TimeoutMS = max(1, int64(smokeDoomedFraction*float64(serviceTimes[doomed.Name].Milliseconds())))
	fmt.Printf("smoke load: mean service %.1fms, capacity %.1f jobs/s over %d workers, offered %.1f jobs/s (×%.1f); doomed deadline %dms (prove %.1fms × %.1f)\n",
		mean*1000, capacity, srv.workers, rate, smokeOverload,
		doomed.TimeoutMS, serviceTimes[doomed.Name].Seconds()*1000, smokeDoomedFraction)

	tuned, err := runSelfHosted("smoke-tuned", srv, mix, rate, 8*time.Second, o.seed)
	if err != nil {
		return err
	}
	printScenario(tuned)

	var fails []string
	inter := tuned.Circuits["interactive"]
	if inter == nil || inter.OK+inter.DeadlineMiss == 0 || inter.P999ms <= 0 {
		fails = append(fails, "interactive p999 not recorded")
	}
	if n := tuned.Overall.Errors; n > 0 {
		fails = append(fails, fmt.Sprintf("%d unexpected failures", n))
	}
	st := tuned.ServerStats
	switch {
	case st == nil:
		fails = append(fails, "no /v1/stats snapshot")
	default:
		if st.QueueReorders == 0 {
			fails = append(fails, "EDF path inert: zero queue reorders under a mixed-deadline load")
		}
		if st.ShedExpired+st.ShedDoomed+st.ShedPhase == 0 {
			fails = append(fails, "shed path inert: zero jobs shed under overload")
		}
		if st.JobSeconds == nil || st.JobSeconds.Count == 0 {
			fails = append(fails, "/v1/stats job_seconds quantiles missing")
		}
	}
	if len(fails) > 0 {
		return fmt.Errorf("smoke failed: %s", strings.Join(fails, "; "))
	}
	fmt.Println("loadgen smoke ok")
	return nil
}
