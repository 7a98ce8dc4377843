package main

import "context"

// The metric tables. BENCHMARK.json at the repository root is the
// projection of these tables onto {name, unit, better, bound};
// manifest_test.go keeps the two identical. What BENCHMARK.json cannot
// hold lives only here: which end-to-end metric a layer metric should
// move and on which workload, and whether a value repeats exactly.

// Workload names, in run order.
const (
	wMSM     = "msm_varbase"
	wProve   = "prove_lib"
	wService = "service_open"
	wCluster = "cluster_msm"
)

type workloadDef struct {
	name  string
	why   string
	setup func(ctx context.Context, o runOpts) (instance, error)
}

var workloadDefs = []workloadDef{
	{wMSM, "closed loop, 1 caller: System.MSMContext on BN254, n=2^14, default options. The paper's headline kernel: core bucket-sum over curve/field/bigint 4-limb does nearly all the work.", setupMSM},
	{wProve, "closed loop, 1 caller: SNARK.ProveContext+Verify, 64 constraints, no caches. The un-accelerated remainder: windowed G2 MSM, pairing verify, quotient NTTs, four tiny core MSMs.", setupProve},
	{wService, "open loop, 5 jobs/s on a seeded exponential-gap schedule into an in-process provd service, 3:1 small:large. What an operator sees: queue wait plus cached fixed-base/GLV/G2Precomputed proving.", setupService},
	{wCluster, "closed loop, 1 caller: Coordinator.MSM on BLS12-381, n=2^9, loopback HTTP to 2 workers, outsourced check on. The only path through cluster, wire, outsource and the 6-limb kernels.", setupCluster},
}

// Clock says what a metric's value is made of; the two clocks are never
// mixed in one metric.
type clock int

const (
	host    clock = iota // host wall-clock time (or a ratio of two such times)
	modeled              // gpusim simulated-GPU seconds; repeats exactly
	count                // a count the program returns; repeats exactly
	tally                // a count that depends on timing and does not repeat
	memory               // runtime.MemStats bytes or objects
)

func (c clock) String() string {
	return [...]string{"host", "modeled", "count", "tally", "memory"}[c]
}

// exact reports whether two runs of one commit and seed must agree to
// the last digit, so -compare uses == instead of a bound.
func (c clock) exact() bool { return c == modeled || c == count }

// endToEndDef is one end-to-end metric of the untraced run. bound is
// the share of the parent's median by which it may get worse before a
// change counts as a regression.
type endToEndDef struct {
	name   string
	unit   string
	better string
	bound  float64
	clock  clock
}

var endToEndDefs = []endToEndDef{
	{"setup_s", "s", "lower", 0.25, host},              // set-up before the timed section, done 3 times from scratch, median
	{"op_p50_s", "s", "lower", 0.20, host},             // median host seconds per op (closed loop: of the quietest block; open loop: from the instant the op was due)
	{"op_p90_s", "s", "lower", 0.25, host},             // 90th percentile of the same
	{"ops_per_s", "1/s", "higher", 0.20, host},         // correct ops completed per timed wall second (open loop: inside the deadline)
	{"allocs_per_op", "count", "lower", 0.05, memory},  // runtime.MemStats.Mallocs delta over the timed section per op
	{"alloc_bytes_per_op", "B", "lower", 0.05, memory}, // TotalAlloc delta over the timed section per op
	{"setup_heap_mb", "MB", "lower", 0.05, memory},     // HeapAlloc after a forced GC at the end of set-up: what caches and tables retain
}

// layerDef is one per-layer metric of the traced run. moves names the
// end-to-end metric it should move and on lists the workloads where it
// should; the traced run of a workload measures exactly the metrics
// whose on includes it and reports 0 for the rest (the layer is not
// entered on that workload).
type layerDef struct {
	name   string
	unit   string
	better string
	clock  clock
	moves  string
	on     []string
}

var (
	bn254Users = []string{wMSM, wProve, wService}
	provers    = []string{wProve, wService}
	all        = []string{wMSM, wProve, wService, wCluster}
	onMSM      = []string{wMSM}
	onProve    = []string{wProve}
	onService  = []string{wService}
	onCluster  = []string{wCluster}
)

var layerDefs = []layerDef{
	// bigint: Montgomery.Mul/Square on the base fields.
	{"bigint.mul4_ns", "ns", "lower", host, "op_p50_s", bn254Users},
	{"bigint.sqr4_ns", "ns", "lower", host, "op_p50_s", bn254Users},
	{"bigint.mul6_ns", "ns", "lower", host, "op_p50_s", onCluster},
	{"bigint.sqr6_ns", "ns", "lower", host, "op_p50_s", onCluster},
	// field: BN254 Fp.
	{"field.mul_ns", "ns", "lower", host, "op_p50_s", bn254Users},
	{"field.inv_ns", "ns", "lower", host, "op_p50_s", provers},
	{"field.batchinv_elem_ns", "ns", "lower", host, "op_p50_s", provers},
	// curve: XYZZ point operations.
	{"curve.pacc_ns", "ns", "lower", host, "op_p50_s", bn254Users},
	{"curve.padd_ns", "ns", "lower", host, "op_p50_s", bn254Users},
	{"curve.pdbl_ns", "ns", "lower", host, "op_p50_s", bn254Users},
	{"curve.to_affine_ns", "ns", "lower", host, "op_p50_s", bn254Users},
	{"curve.pacc6_ns", "ns", "lower", host, "op_p50_s", onCluster},
	// msm: the plain CPU Pippenger on the msm_varbase input.
	{"msm.pippenger_s", "s", "lower", host, "op_p50_s", onMSM},
	{"core.vs_pippenger_ratio", "ratio", "lower", host, "op_p50_s", onMSM},
	// core: phases and counts of the msm_varbase ops themselves.
	{"core.scatter_s", "s", "lower", host, "op_p50_s", onMSM},
	{"core.bucket_sum_busy_s", "s", "lower", host, "op_p50_s", onMSM},
	{"core.bucket_sum_wall_s", "s", "lower", host, "op_p50_s", onMSM},
	{"core.bucket_reduce_s", "s", "lower", host, "op_p50_s", onMSM},
	{"core.window_reduce_s", "s", "lower", host, "op_p50_s", onMSM},
	{"core.self_s", "s", "lower", host, "op_p50_s", onMSM},
	{"core.pacc_ops", "count", "lower", count, "op_p50_s", onMSM},
	{"core.reduce_ops", "count", "lower", count, "op_p50_s", onMSM},
	{"core.window_ops", "count", "lower", count, "op_p50_s", onMSM},
	{"core.window_bits", "count", "higher", count, "op_p50_s", onMSM},
	{"core.shards", "count", "lower", count, "op_p50_s", onMSM},
	{"core.gpu_busy_imbalance", "ratio", "lower", host, "op_p90_s", onMSM},
	{"core.retries", "count", "lower", count, "op_p90_s", onMSM},
	{"core.steals", "count", "lower", tally, "op_p90_s", onMSM},
	{"core.verification_runs", "count", "lower", count, "op_p50_s", onMSM},
	// core used differently, on the same points.
	{"core.serial_engine_s", "s", "lower", host, "op_p50_s", onMSM},
	{"core.small_msm_s", "s", "lower", host, "op_p50_s", onProve},
	{"core.fixedbase_precompute_s", "s", "lower", host, "setup_s", onService},
	{"core.fixedbase_glv_msm_s", "s", "lower", host, "op_p50_s", onService},
	// gpusim: the modeled clock.
	{"gpusim.modeled_op_s", "s", "lower", modeled, "op_p50_s", []string{wMSM, wProve}},
	{"gpusim.modeled_scatter_s", "s", "lower", modeled, "op_p50_s", onMSM},
	{"gpusim.modeled_bucket_sum_s", "s", "lower", modeled, "op_p50_s", onMSM},
	{"gpusim.modeled_bucket_reduce_s", "s", "lower", modeled, "op_p50_s", onMSM},
	{"gpusim.modeled_transfer_s", "s", "lower", modeled, "op_p50_s", onMSM},
	{"gpusim.model_real_ratio", "ratio", "higher", host, "op_p50_s", onMSM},
	{"gpusim.analytic_2p26_8gpu_s", "s", "lower", modeled, "op_p50_s", onMSM},
	{"gpusim.analytic_2p26_32gpu_s", "s", "lower", modeled, "op_p50_s", onMSM},
	{"gpusim.estimate_call_ns", "ns", "lower", host, "op_p50_s", onMSM},
	// ntt: BN254 Fr domain of 2^12.
	{"ntt.forward_2p12_s", "s", "lower", host, "op_p50_s", provers},
	{"ntt.coset_roundtrip_2p12_s", "s", "lower", host, "op_p50_s", provers},
	{"ntt.parallel_forward_2p12_s", "s", "lower", host, "op_p50_s", provers},
	// pairing: G2 and the tower.
	{"pairing.g2_msm_s", "s", "lower", host, "op_p50_s", onProve},
	{"pairing.g2_precompute_s", "s", "lower", host, "setup_s", onService},
	{"pairing.g2_precomp_msm_s", "s", "lower", host, "op_p50_s", onService},
	{"pairing.g2_to_affine_ns", "ns", "lower", host, "op_p50_s", onProve},
	{"pairing.e12_mul_ns", "ns", "lower", host, "op_p50_s", provers},
	{"pairing.pairing_s", "s", "lower", host, "op_p50_s", provers},
	// r1cs.
	{"r1cs.witness_s", "s", "lower", host, "op_p50_s", onService},
	// groth16: phases of the prove_lib ops, timed through Provers.
	{"groth16.setup_s", "s", "lower", host, "setup_s", provers},
	{"groth16.prove_s", "s", "lower", host, "op_p50_s", onProve},
	{"groth16.verify_s", "s", "lower", host, "op_p50_s", onProve},
	{"groth16.msm_a_s", "s", "lower", host, "op_p50_s", onProve},
	{"groth16.msm_b1_s", "s", "lower", host, "op_p50_s", onProve},
	{"groth16.msm_b2_s", "s", "lower", host, "op_p50_s", onProve},
	{"groth16.msm_k_s", "s", "lower", host, "op_p50_s", onProve},
	{"groth16.msm_z_s", "s", "lower", host, "op_p50_s", onProve},
	{"groth16.self_s", "s", "lower", host, "op_p50_s", onProve},
	{"groth16.pipelined_prove_s", "s", "lower", host, "op_p50_s", onProve},
	{"groth16.pipeline_speedup", "ratio", "higher", host, "op_p50_s", onProve},
	{"groth16.proof_bytes", "B", "lower", count, "alloc_bytes_per_op", onProve},
	// service: hooks and Stats().
	{"service.queue_wait_p50_s", "s", "lower", host, "op_p50_s", onService},
	{"service.queue_wait_p90_s", "s", "lower", host, "op_p90_s", onService},
	{"service.service_time_p50_s", "s", "lower", host, "op_p50_s", onService},
	{"service.submit_call_ns", "ns", "lower", host, "op_p50_s", onService},
	{"service.register_small_s", "s", "lower", host, "setup_s", onService},
	{"service.register_large_s", "s", "lower", host, "setup_s", onService},
	{"service.base_cache_hits", "count", "higher", count, "op_p50_s", onService},
	{"service.batches_coalesced", "count", "higher", tally, "op_p50_s", onService},
	{"service.queue_reorders", "count", "lower", tally, "op_p90_s", onService},
	{"service.rejected", "count", "lower", tally, "ops_per_s", onService},
	{"service.shed", "count", "lower", tally, "ops_per_s", onService},
	{"service.saturation_proofs_per_s", "1/s", "higher", host, "ops_per_s", onService},
	{"service.uncached_job_s", "s", "lower", host, "op_p50_s", onService},
	// cluster: timing decorator through Config.DialWorker, and Stats().
	{"cluster.dispatch_rtt_p50_s", "s", "lower", host, "op_p50_s", onCluster},
	{"cluster.dispatches_per_op", "count", "lower", count, "op_p50_s", onCluster},
	{"cluster.worker_msm_s", "s", "lower", host, "op_p50_s", onCluster},
	{"cluster.coordinator_self_s", "s", "lower", host, "op_p50_s", onCluster},
	{"cluster.request_bytes", "B", "lower", count, "alloc_bytes_per_op", onCluster},
	{"cluster.msm_checks", "count", "lower", count, "op_p50_s", onCluster},
	{"cluster.msm_rejects", "count", "lower", count, "ops_per_s", onCluster},
	{"cluster.redispatches", "count", "lower", count, "op_p90_s", onCluster},
	{"cluster.hedges", "count", "lower", count, "op_p90_s", onCluster},
	{"cluster.local_fallbacks", "count", "lower", count, "op_p90_s", onCluster},
	{"cluster.prove_s", "s", "lower", host, "op_p50_s", onCluster},
	// outsource.
	{"outsource.derive_s", "s", "lower", host, "op_p50_s", onCluster},
	{"outsource.check_s", "s", "lower", host, "op_p50_s", onCluster},
	{"outsource.challenge_bits", "count", "lower", count, "alloc_bytes_per_op", onCluster},
	// telemetry: the program's own tracer.
	{"telemetry.tracer_overhead_ratio", "ratio", "lower", host, "op_p50_s", onMSM},
	// harness: the benchmark's own behaviour.
	{"harness.trace_overhead_ratio", "ratio", "lower", host, "op_p50_s", all},
	{"harness.op_max_s", "s", "lower", host, "op_p90_s", all},
	{"harness.op_var_ratio", "ratio", "lower", host, "op_p90_s", all},
	{"harness.gen_lag_p90_s", "s", "lower", host, "op_p90_s", onService},
	{"harness.gc_pause_total_s", "s", "lower", host, "op_p90_s", all},
	{"harness.peak_sys_mb", "MB", "lower", memory, "setup_heap_mb", all},
}

// measuredOn reports whether the traced run of workload measures d.
func (d layerDef) measuredOn(workload string) bool {
	for _, w := range d.on {
		if w == workload {
			return true
		}
	}
	return false
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metrics collects values by name; the unit comes from the tables when
// the set is rendered, so a probe cannot report a unit the manifest
// does not declare.
type metrics map[string]float64
