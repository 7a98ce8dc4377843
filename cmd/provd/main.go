// Command provd runs the long-lived proving service: a worker pool
// proving Groth16 jobs against pre-registered circuits, with bounded
// admission, end-to-end job deadlines and cross-request GPU health
// (see internal/service).
//
// Serve mode (default) exposes the JSON API:
//
//	provd -gpus 8 -listen :8080 -constraints 512
//	curl -s -X POST localhost:8080/v1/prove -d '{"circuit":"synthetic","seed":7}'
//	curl -s localhost:8080/v1/healthz
//
// Cluster mode: -join makes this provd a worker node of a coordinator
// (see internal/cluster and cmd/coordinator) — it registers, heartbeats
// its lease, and serves coordinator dispatches on /v1/cluster/dispatch
// plus outsourced MSM shards on /v1/msm (the worker cannot tell a real
// shard from the coordinator's secret challenge instance, so it cannot
// selectively cheat — see internal/outsource):
//
//	provd -gpus 8 -listen :8081 -join http://coord:9090 -advertise http://10.0.0.7:8081
//
// Shutdown is a bounded graceful drain: on SIGTERM/SIGINT the node
// deregisters from its coordinator (new dispatches stop, in-flight jobs
// finish), stops admission, and drains queued and in-flight jobs for at
// most -drain-timeout before cancelling the stragglers — a node restart
// never dies mid-proof unless the drain budget runs out.
//
// Tail-latency knobs: -queue-policy picks EDF (default) or FIFO
// dequeue order, -circuit-quota bounds any one circuit's share of queue
// slots and workers, -shed drops jobs that cannot meet their deadline
// anyway, and -coalesce-slack arbitrates between deadline order and
// circuit-affinity coalescing (see cmd/loadgen for measuring the
// effect of each).
//
// Smoke mode runs N jobs through the full service lifecycle (submit,
// prove, verify, drain) without a listener and exits non-zero on any
// failure — the CI entry point:
//
//	provd -gpus 4 -constraints 200 -smoke 6
//
// Observability: /v1/metrics serves the Prometheus text exposition (job
// latency, queue depth, fault/retry rates, per-GPU breaker states),
// -trace-dir writes a Chrome trace_event JSON per job (open it in
// chrome://tracing or https://ui.perfetto.dev), and -pprof mounts
// net/http/pprof under /debug/pprof/.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"distmsm/internal/cluster"
	"distmsm/internal/gpusim"
	"distmsm/internal/service"
	"distmsm/internal/telemetry"
)

func main() {
	var (
		gpus        = flag.Int("gpus", 8, "simulated GPU count")
		workers     = flag.Int("workers", 0, "proving workers (0 = one per DGX node)")
		queue       = flag.Int("queue", 0, "queue depth (0 = 2x workers)")
		constraints = flag.Int("constraints", 512, "registered synthetic circuit size")
		listen      = flag.String("listen", ":8080", "HTTP listen address (serve mode)")
		timeout     = flag.Duration("timeout", time.Minute, "default per-job deadline")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "graceful-shutdown drain budget: queued and in-flight jobs get this long to finish before being cancelled")
		join        = flag.String("join", "", "coordinator base URL to join as a cluster worker node (e.g. http://coord:9090)")
		advertise   = flag.String("advertise", "", "dispatch address advertised to the coordinator (default http://<listen>)")
		nodeID      = flag.String("node-id", "", "stable cluster node identifier (default the hostname)")
		queuePolicy = flag.String("queue-policy", "edf", "pending-queue order: edf (earliest deadline first) or fifo (arrival order)")
		quota       = flag.Float64("circuit-quota", 0, "per-circuit admission quota as a fraction of capacity in (0,1]; 0 disables")
		shed        = flag.Bool("shed", false, "shed doomed jobs (expired or EWMA-predicted deadline miss) at dequeue and at prover phase boundaries")
		slack       = flag.Duration("coalesce-slack", 0, "minimum slack on the EDF head before circuit-affinity coalescing may jump the queue (0 = 1s default, negative = always coalesce)")
		smoke       = flag.Int("smoke", 0, "run N smoke jobs and exit instead of serving")
		traceDir    = flag.String("trace-dir", "", "write a Chrome trace JSON per job into this directory")
		pprofOn     = flag.Bool("pprof", false, "mount net/http/pprof under /debug/pprof/")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	opts := options{
		gpus: *gpus, workers: *workers, queue: *queue, constraints: *constraints,
		listen: *listen, timeout: *timeout, drain: *drain,
		join: *join, advertise: *advertise, nodeID: *nodeID,
		smoke: *smoke, traceDir: *traceDir, pprofOn: *pprofOn,
		queuePolicy: *queuePolicy, quota: *quota, shed: *shed, slack: *slack,
	}
	if err := run(ctx, opts); err != nil {
		fmt.Fprintln(os.Stderr, "provd:", err)
		os.Exit(1)
	}
}

type options struct {
	gpus, workers, queue, constraints int
	listen                            string
	timeout, drain                    time.Duration
	join, advertise, nodeID           string
	smoke                             int
	traceDir                          string
	pprofOn                           bool
	queuePolicy                       string
	quota                             float64
	shed                              bool
	slack                             time.Duration
}

// parseQueuePolicy maps the -queue-policy flag onto the service enum.
func parseQueuePolicy(s string) (service.QueuePolicy, error) {
	switch s {
	case "edf", "":
		return service.QueueEDF, nil
	case "fifo":
		return service.QueueFIFO, nil
	}
	return 0, fmt.Errorf("unknown -queue-policy %q (want edf or fifo)", s)
}

func run(ctx context.Context, o options) error {
	cl, err := gpusim.NewCluster(gpusim.A100(), o.gpus)
	if err != nil {
		return err
	}
	if o.traceDir != "" {
		if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
			return err
		}
	}
	policy, err := parseQueuePolicy(o.queuePolicy)
	if err != nil {
		return err
	}
	metrics := telemetry.NewRegistry()
	svc, err := service.New(service.Config{
		Cluster:        cl,
		Workers:        o.workers,
		QueueDepth:     o.queue,
		DefaultTimeout: o.timeout,
		Metrics:        metrics,
		TraceDir:       o.traceDir,
		QueuePolicy:    policy,
		CircuitQuota:   o.quota,
		ShedDoomed:     o.shed,
		CoalesceSlack:  o.slack,
	})
	if err != nil {
		return err
	}
	if err := svc.RegisterSynthetic(ctx, "synthetic", o.constraints); err != nil {
		return err
	}
	fmt.Printf("provd: %d simulated %s GPUs, %d workers, circuit %q (%d constraints)\n",
		o.gpus, cl.Dev.Name, svc.Workers(), "synthetic", o.constraints)
	if o.traceDir != "" {
		fmt.Printf("provd: writing per-job Chrome traces to %s\n", o.traceDir)
	}

	if o.smoke > 0 {
		return runSmoke(ctx, svc, metrics, o.smoke, o.drain)
	}

	mux := http.NewServeMux()
	mux.Handle("/", svc.Handler())
	if o.pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Println("provd: pprof enabled at /debug/pprof/")
	}
	srv := &http.Server{Addr: o.listen, Handler: mux}
	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Printf("provd: listening on %s\n", o.listen)

	// Cluster mode: join the coordinator's fleet and keep the heartbeat
	// lease alive; dispatches arrive on /v1/cluster/dispatch like any
	// other request.
	var agent *cluster.Agent
	if o.join != "" {
		id := o.nodeID
		if id == "" {
			if id, err = os.Hostname(); err != nil || id == "" {
				id = fmt.Sprintf("provd-%d", os.Getpid())
			}
		}
		addr := o.advertise
		if addr == "" {
			addr = "http://" + o.listen
		}
		agent, err = cluster.StartAgent(cluster.AgentConfig{
			Coordinator: o.join,
			NodeID:      id,
			Addr:        addr,
			Circuits:    []string{"synthetic"},
			Workers:     svc.Workers(),
			Load: func() (int, int) {
				st := svc.Stats()
				return st.Queued, st.InFlight
			},
			Logf: func(format string, args ...any) {
				fmt.Printf("provd: "+format+"\n", args...)
			},
		})
		if err != nil {
			return err
		}
	}

	select {
	case err := <-errCh:
		if agent != nil {
			agent.Stop()
		}
		return err
	case <-ctx.Done():
	}
	// Bounded graceful drain: deregister first (the coordinator stops
	// routing here but our in-flight jobs finish), then drain the queue
	// and the pool under the -drain-timeout budget.
	fmt.Printf("provd: shutting down (drain budget %v)\n", o.drain)
	if agent != nil {
		agent.Stop()
	}
	shCtx, cancel := context.WithTimeout(context.Background(), o.drain)
	defer cancel()
	_ = srv.Shutdown(shCtx)
	if err := svc.Shutdown(shCtx); err != nil {
		fmt.Printf("provd: drain budget exhausted, cancelled remaining jobs: %v\n", err)
		return nil
	}
	fmt.Println("provd: drained cleanly")
	return nil
}

// runSmoke pushes n jobs through the service and verifies every proof
// arrived (the service verifies each proof itself before returning it).
// It also fails unless every completed job ran msm-Z under the phase
// DAG: only that schedule reports per-phase latencies, so a service
// quietly back on the sequential schedule fails here.
func runSmoke(ctx context.Context, svc *service.Service, metrics *telemetry.Registry, n int, drain time.Duration) error {
	start := time.Now()
	jobs := make([]*service.Job, 0, n)
	for i := 0; i < n; i++ {
		job, err := svc.Submit(service.Request{Circuit: "synthetic", Seed: int64(i + 1)})
		if err != nil {
			// Admission rejection is expected when n exceeds the queue:
			// back off like a client would.
			var qe *service.QueueFullError
			if errors.As(err, &qe) {
				time.Sleep(qe.RetryAfter)
				i--
				continue
			}
			return err
		}
		jobs = append(jobs, job)
	}
	for _, job := range jobs {
		if _, err := job.Wait(ctx); err != nil {
			return fmt.Errorf("job %d: %w", job.ID, err)
		}
		fmt.Printf("provd: job %d (seed %d) proved and verified\n", job.ID, job.Seed)
	}
	shCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := svc.Shutdown(shCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	st := svc.Stats()
	fmt.Printf("provd: smoke ok — %d completed, %d rejected, %v total\n",
		st.Completed, st.Rejected, time.Since(start).Round(time.Millisecond))
	if st.Completed != uint64(len(jobs)) {
		return fmt.Errorf("completed %d of %d jobs", st.Completed, len(jobs))
	}
	// Registry.Histogram fetches the service's pre-registered series.
	msmZ := metrics.Histogram("distmsm_prove_phase_seconds", "", `phase="msm-Z"`, nil)
	if got := msmZ.Count(); got != st.Completed {
		return fmt.Errorf(`distmsm_prove_phase_seconds_count{phase="msm-Z"} = %d, want %d (one per completed job)`, got, st.Completed)
	}
	return nil
}
