package service

// Tests of the worker's /v1/msm surface: every way the handler can
// evaluate a shard — resident fixed-base tables, their first-sight
// build, the uncached variable-base plan — is held to the double-and-add
// reference, byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"distmsm/internal/bigint"
	"distmsm/internal/cluster"
	"distmsm/internal/core"
	"distmsm/internal/curve"
	"distmsm/internal/gpusim"
	"distmsm/internal/outsource"
	"distmsm/internal/serial"
	"distmsm/internal/telemetry"
)

// newMSMService builds a running service with no circuit registered —
// /v1/msm needs none — on an n-GPU cluster, planner-chosen windows.
func newMSMService(t testing.TB, gpus int, mutate func(*Config)) *Service {
	t.Helper()
	cl, err := gpusim.NewCluster(gpusim.A100(), gpus)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{Cluster: cl}
	if mutate != nil {
		mutate(&cfg)
	}
	svc, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

func testCurve(t testing.TB, name string) *curve.Curve {
	t.Helper()
	c, err := curve.ByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// shardRequest frames scalars as the coordinator would.
func shardRequest(crv *curve.Curve, pointSeed uint64, lo int, scalars []bigint.Nat, bits int) cluster.MSMDispatchRequest {
	return cluster.MSMDispatchRequest{
		JobID: 1, Curve: crv.Name, PointSeed: pointSeed,
		RangeLo: lo, RangeHi: lo + len(scalars),
		ScalarBits: bits, Scalars: cluster.EncodeMSMScalars(scalars, bits),
	}
}

// postShard drives the handler in-process and returns the HTTP status
// and, for a 200 carrying a result, the decoded point bytes.
func postShard(t testing.TB, svc *Service, req cluster.MSMDispatchRequest) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	svc.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/msm", bytes.NewReader(body)))
	if rec.Code != http.StatusOK {
		return rec.Code, nil
	}
	w, point, err := cluster.ParseMSMDispatchResponse(rec.Body.Bytes())
	if err != nil {
		t.Fatalf("malformed /v1/msm response %q: %v", rec.Body.String(), err)
	}
	if w.Error != "" {
		t.Fatalf("/v1/msm terminal error: %s", w.Error)
	}
	return rec.Code, point
}

// referenceShard is the oracle: marshalled curve.MSMReference over the
// same derived range.
func referenceShard(crv *curve.Curve, req cluster.MSMDispatchRequest, scalars []bigint.Nat) []byte {
	points := crv.SamplePoints(req.RangeHi, req.PointSeed)[req.RangeLo:req.RangeHi]
	aff := crv.ToAffine(crv.MSMReference(points, scalars))
	return serial.MarshalPoint(crv, &aff, false)
}

// requireShard posts req and fails unless the bytes equal the oracle's.
func requireShard(t testing.TB, svc *Service, crv *curve.Curve, req cluster.MSMDispatchRequest, scalars []bigint.Nat, what string) {
	t.Helper()
	code, got := postShard(t, svc, req)
	if code != http.StatusOK {
		t.Fatalf("%s: HTTP %d", what, code)
	}
	if want := referenceShard(crv, req, scalars); !bytes.Equal(got, want) {
		t.Fatalf("%s: /v1/msm bytes differ from marshalled MSMReference", what)
	}
}

// TestMSMShardParity: over both pairing curves and every shape of shard
// the coordinator produces — field-width real scalars, ChallengeBits-wide
// challenge instances, all-zero scalars, a single point, a range that
// does not start at 0 — the handler's first answer (table build), its
// repeat (resident tables) and the uncached configurations all equal
// the reference bytes.
func TestMSMShardParity(t *testing.T) {
	services := []struct {
		name string
		svc  *Service
	}{
		{"cached", newMSMService(t, 4, nil)},
		{"cached/s=8", newMSMService(t, 4, func(c *Config) { c.WindowSize = 8 })},
		{"cache disabled", newMSMService(t, 4, func(c *Config) { c.DisableBaseCache = true })},
		{"budget below any table", newMSMService(t, 4, func(c *Config) { c.MemoryBudget = 1 << 10 })},
	}
	for _, s := range services {
		defer shutdownClean(t, s.svc)
	}
	for _, name := range []string{"BN254", "BLS12-381"} {
		crv := testCurve(t, name)
		const n = 24
		real := crv.SampleScalars(n, 31)
		ck, err := outsource.NewCheck(crv, crv.SamplePoints(n, 30), real, outsource.Params{}, outsource.NewSeededReader(32))
		if err != nil {
			t.Fatal(err)
		}
		zeros := make([]bigint.Nat, n)
		for i := range zeros {
			zeros[i] = bigint.New(len(real[0]))
		}
		cases := []struct {
			name    string
			lo      int
			scalars []bigint.Nat
			bits    int
		}{
			{"real at field width", 0, real, crv.ScalarBits},
			{"real padded to challenge width", 0, real, ck.ChallengeBits()},
			{"challenge instance", 0, ck.Challenge(), ck.ChallengeBits()},
			{"all-zero scalars", 0, zeros, crv.ScalarBits},
			{"single point", 0, real[:1], crv.ScalarBits},
			{"range_lo > 0", 17, real[:9], crv.ScalarBits},
		}
		for _, tc := range cases {
			req := shardRequest(crv, 30, tc.lo, tc.scalars, tc.bits)
			for _, s := range services {
				for _, pass := range []string{"first sight", "repeat"} {
					requireShard(t, s.svc, crv, req, tc.scalars, name+"/"+tc.name+"/"+s.name+"/"+pass)
				}
			}
		}
	}
	// The cached services built each distinct (curve, range, width) table
	// once and answered every repeat from it; the uncached ones hold
	// nothing and never hit.
	for _, s := range services {
		st := s.svc.Stats()
		cached := strings.HasPrefix(s.name, "cached")
		switch {
		case cached && (st.BaseCacheMisses != 8 || st.BaseCacheHits != 16 || st.BaseCacheBytes == 0):
			// Per curve: 4 distinct keys (the challenge-width cases share one,
			// as do the field-width full ranges) over 12 requests.
			t.Errorf("%s: hits=%d misses=%d bytes=%d, want 16/8/>0", s.name, st.BaseCacheHits, st.BaseCacheMisses, st.BaseCacheBytes)
		case !cached && (st.BaseCacheHits != 0 || st.BaseCacheMisses != 24 || st.BaseCacheBytes != 0):
			t.Errorf("%s: hits=%d misses=%d bytes=%d, want 0/24/0", s.name, st.BaseCacheHits, st.BaseCacheMisses, st.BaseCacheBytes)
		}
	}
}

// FuzzMSMShardParity holds the handler to the reference on
// fuzzer-chosen shards: curve, seed, range, declared width (from 1 bit
// to well past the scalar field) and scalar bytes. Each shard is asked
// twice so both the table build and the resident-table path are hit.
func FuzzMSMShardParity(f *testing.F) {
	f.Add(false, uint64(1), uint8(0), uint8(4), uint16(254), []byte{0xff, 0x01, 0x80})
	f.Add(true, uint64(2), uint8(3), uint8(1), uint16(320), []byte{})
	f.Add(true, uint64(3), uint8(0), uint8(9), uint16(1), []byte{1, 0, 1, 1})
	f.Add(false, uint64(4), uint8(9), uint8(7), uint16(65), bytes.Repeat([]byte{0xa5}, 64))
	svc := newMSMService(f, 2, nil)
	f.Cleanup(func() { _ = svc.Shutdown(context.Background()) })
	curves := map[bool]*curve.Curve{false: testCurve(f, "BN254"), true: testCurve(f, "BLS12-381")}

	f.Fuzz(func(t *testing.T, bls bool, seed uint64, lo, n uint8, bits uint16, raw []byte) {
		crv := curves[bls]
		count := 1 + int(n)%12
		width := 1 + int(bits)%384
		size := (width + 7) / 8
		scalars := make([]bigint.Nat, count)
		for i := range scalars {
			b := make([]byte, size)
			if len(raw) > 0 {
				for j := range b {
					b[j] = raw[(i*size+j)%len(raw)]
				}
			}
			b[0] &= 0xff >> (8*size - width) // keep within the declared width
			k, err := serial.UnmarshalScalar(b, width)
			if err != nil {
				t.Fatal(err)
			}
			scalars[i] = k
		}
		req := shardRequest(crv, seed%8, int(lo)%16, scalars, width)
		requireShard(t, svc, crv, req, scalars, "first")
		requireShard(t, svc, crv, req, scalars, "repeat")
	})
}

// TestMSMShardConcurrentFirstSight: requests for one range that arrive
// together — as a shard's real and challenge instances do — build its
// tables exactly once, and every answer is right.
func TestMSMShardConcurrentFirstSight(t *testing.T) {
	svc := newMSMService(t, 4, nil)
	defer shutdownClean(t, svc)
	crv := testCurve(t, "BLS12-381")
	const n, callers = 96, 6
	scalars := crv.SampleScalars(n, 41)
	req := shardRequest(crv, 40, 0, scalars, crv.ScalarBits)
	want := referenceShard(crv, req, scalars)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if code, got := postShard(t, svc, req); code != http.StatusOK || !bytes.Equal(got, want) {
				t.Errorf("concurrent first request: HTTP %d, bytes match = %v", code, bytes.Equal(got, want))
			}
		}()
	}
	close(start)
	wg.Wait()
	st := svc.Stats()
	if st.BaseCacheMisses != 1 || st.BaseCacheHits != callers-1 {
		t.Fatalf("hits=%d misses=%d, want %d/1: the range was built more than once", st.BaseCacheHits, st.BaseCacheMisses, callers-1)
	}
	wc := *crv
	tableBytes, err := core.FixedBaseBytes(&wc, n, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if st.BaseCacheBytes != tableBytes || st.MemoryInUse != tableBytes {
		t.Fatalf("resident bytes %d (memory in use %d), want exactly one table of %d", st.BaseCacheBytes, st.MemoryInUse, tableBytes)
	}
}

// TestMSMShardTablesShareTheLRU: shard tables are charged to the same
// budget and evicted by the same LRU as circuit bases. With room for the
// circuit's tables plus one shard table, a second shard range evicts the
// coldest resident set (the circuit's, untouched since registration), a
// third evicts the first shard's, and the first range then rebuilds —
// every answer staying byte-identical.
func TestMSMShardTablesShareTheLRU(t *testing.T) {
	svc := newTestService(t, 2, 32, nil)
	defer shutdownClean(t, svc)
	crv := testCurve(t, "BN254")
	const n = 32
	scalars := crv.SampleScalars(n, 51)
	tableBytes, err := core.FixedBaseBytes(crv, n, core.Options{WindowSize: 8})
	if err != nil {
		t.Fatal(err)
	}
	svc.mu.Lock()
	circuitBytes := svc.circuits["synthetic"].bases.mem
	svc.cfg.MemoryBudget = circuitBytes + tableBytes
	svc.mu.Unlock()
	if circuitBytes < tableBytes {
		t.Fatalf("test sizing: circuit tables (%d B) must cover one shard table (%d B)", circuitBytes, tableBytes)
	}

	reqs := make([]cluster.MSMDispatchRequest, 3)
	for i := range reqs {
		reqs[i] = shardRequest(crv, uint64(50+i), 0, scalars, crv.ScalarBits)
	}
	requireShard(t, svc, crv, reqs[0], scalars, "range 0")
	if st := svc.Stats(); st.BaseCacheEvictions != 0 || st.BaseCacheBytes != circuitBytes+tableBytes {
		t.Fatalf("after range 0: evictions=%d bytes=%d, want 0/%d", st.BaseCacheEvictions, st.BaseCacheBytes, circuitBytes+tableBytes)
	}
	requireShard(t, svc, crv, reqs[1], scalars, "range 1")
	svc.mu.Lock()
	circuitEvicted := svc.circuits["synthetic"].bases == nil
	svc.mu.Unlock()
	if st := svc.Stats(); !circuitEvicted || st.BaseCacheEvictions != 1 || st.BaseCacheBytes != 2*tableBytes {
		t.Fatalf("after range 1: circuit evicted=%v evictions=%d bytes=%d, want true/1/%d", circuitEvicted, st.BaseCacheEvictions, st.BaseCacheBytes, 2*tableBytes)
	}
	// Touch range 1 so range 0 is the coldest, then bring in range 2 with
	// the budget cut to two tables.
	requireShard(t, svc, crv, reqs[1], scalars, "range 1 again")
	svc.mu.Lock()
	svc.cfg.MemoryBudget = 2 * tableBytes
	svc.mu.Unlock()
	requireShard(t, svc, crv, reqs[2], scalars, "range 2")
	requireShard(t, svc, crv, reqs[1], scalars, "range 1 after the eviction")
	st := svc.Stats()
	if st.BaseCacheEvictions != 2 || st.BaseCacheBytes != 2*tableBytes || st.MemoryInUse != 2*tableBytes {
		t.Fatalf("after range 2: evictions=%d bytes=%d in use=%d, want 2/%d/%d", st.BaseCacheEvictions, st.BaseCacheBytes, st.MemoryInUse, 2*tableBytes, 2*tableBytes)
	}
	hits, misses := st.BaseCacheHits, st.BaseCacheMisses
	requireShard(t, svc, crv, reqs[0], scalars, "range 0 after its eviction")
	if st := svc.Stats(); st.BaseCacheMisses != misses+1 || st.BaseCacheHits != hits || st.BaseCacheEvictions != 3 {
		t.Fatalf("evicted range: hits %d→%d misses %d→%d evictions=%d, want a rebuild (one more miss, one more eviction)",
			hits, st.BaseCacheHits, misses, st.BaseCacheMisses, st.BaseCacheEvictions)
	}
}

// TestMSMShardUnderGPUFaults: outsourced shards run under the service's
// configured fault injection exactly like a proof's MSMs — injected
// transient errors and corrupted partial sums are retried and caught by
// the engine, the bytes stay identical to the reference, and the shard
// shows up on the MSM and shard-latency metrics.
func TestMSMShardUnderGPUFaults(t *testing.T) {
	reg := telemetry.NewRegistry()
	svc := newMSMService(t, 4, func(c *Config) {
		c.Faults = &gpusim.FaultConfig{Seed: 9, Transient: 0.3, Corrupt: 0.3}
		c.Metrics = reg
	})
	defer shutdownClean(t, svc)
	crv := testCurve(t, "BLS12-381")
	scalars := crv.SampleScalars(40, 61)
	req := shardRequest(crv, 60, 0, scalars, crv.ScalarBits)
	for _, pass := range []string{"first sight", "repeat", "repeat"} {
		requireShard(t, svc, crv, req, scalars, pass)
	}
	text := reg.WritePrometheus()
	for _, want := range []string{
		"distmsm_msm_runs_total 3",
		"distmsm_msm_shard_seconds_count 3",
		"distmsm_base_cache_hits_total 2",
		"distmsm_base_cache_misses_total 1",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics lack %q", want)
		}
	}
	for _, series := range []string{"distmsm_msm_retries_total", "distmsm_msm_verification_runs_total"} {
		if strings.Contains(text, series+" 0\n") {
			t.Errorf("%s stayed 0: the injected faults never reached the shard's engine run", series)
		}
	}
}

// TestMSMShardHonoursDeadlineAndCancel: the worker reads timeout_ms and
// the request context. A shard whose deadline expires answers 504, one
// whose coordinator hangs up answers 499 — both long before the shard
// would have finished — and nothing is left running.
func TestMSMShardHonoursDeadlineAndCancel(t *testing.T) {
	check := leakCheck(t)
	// Uncached, so the whole request is the interruptible engine run (a
	// first-sight table build is bounded by maxShardTableBytes instead).
	svc := newMSMService(t, 4, func(c *Config) { c.DisableBaseCache = true })
	crv := testCurve(t, "MNT4753") // 753-bit field: a shard long enough to interrupt
	const n = 1 << 11
	scalars := crv.SampleScalars(n, 71)
	req := shardRequest(crv, 70, 0, scalars, crv.ScalarBits)

	type outcome struct {
		code int
		took time.Duration
	}
	done := make(chan outcome, 1)
	handler := svc.Handler()
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		start := time.Now()
		handler.ServeHTTP(rec, r)
		done <- outcome{rec.Code, time.Since(start)}
	}))
	post := func(ctx context.Context, req cluster.MSMDispatchRequest) {
		body, err := json.Marshal(req)
		if err != nil {
			t.Error(err)
			return
		}
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, srv.URL+"/v1/msm", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(hreq); err == nil {
			resp.Body.Close()
		}
	}

	// The full shard, for scale: the two interrupted requests must come
	// back in a fraction of this.
	post(context.Background(), req)
	full := <-done
	if full.code != http.StatusOK {
		t.Fatalf("uninterrupted shard: HTTP %d", full.code)
	}

	expiring := req
	expiring.TimeoutMS = 1
	post(context.Background(), expiring)
	if out := <-done; out.code != http.StatusGatewayTimeout || out.took > full.took/2 {
		t.Errorf("timeout_ms=1: HTTP %d after %v, want 504 well inside the full shard's %v", out.code, out.took, full.took)
	}

	// Hang up once the request is inside the handler (its cache miss is
	// counted just before the points are derived and the engine starts).
	misses := svc.Stats().BaseCacheMisses
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		post(ctx, req)
	}()
	for svc.Stats().BaseCacheMisses == misses {
		time.Sleep(time.Millisecond)
	}
	time.Sleep(full.took / 4) // into the engine's shard loop
	cancel()
	wg.Wait()
	if out := <-done; out.code != 499 || out.took > 3*full.took/4 {
		t.Errorf("abandoned shard: HTTP %d after %v, want 499 well inside the full shard's %v", out.code, out.took, full.took)
	}

	srv.Close()
	shutdownClean(t, svc)
	check()
}
