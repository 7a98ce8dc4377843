package service

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

// TestHTTPProveRoundTrip drives the JSON API end to end: submit over
// HTTP, decode the hex proof, unmarshal and verify it out of band.
func TestHTTPProveRoundTrip(t *testing.T) {
	check := leakCheck(t)
	svc := newTestService(t, 2, 64, nil)
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/prove", "application/json",
		strings.NewReader(`{"circuit":"synthetic","seed":11}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/prove: status %d", resp.StatusCode)
	}
	var out struct {
		JobID uint64 `json:"job_id"`
		Proof string `json:"proof"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	raw, err := hex.DecodeString(out.Proof)
	if err != nil {
		t.Fatal(err)
	}
	proof, err := svc.eng.UnmarshalProof(raw)
	if err != nil {
		t.Fatal(err)
	}
	vk, err := svc.VerifyingKey("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	w, err := svc.circuits["synthetic"].witness(11)
	if err != nil {
		t.Fatal(err)
	}
	ok, err := svc.eng.Verify(vk, proof, w[1:1+svc.circuits["synthetic"].cs.NPublic])
	if err != nil || !ok {
		t.Fatalf("HTTP-delivered proof failed verification: ok=%v err=%v", ok, err)
	}

	// Error mapping: unknown circuit → 404, malformed body → 400.
	resp, err = http.Post(srv.URL+"/v1/prove", "application/json", strings.NewReader(`{"circuit":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown circuit: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Post(srv.URL+"/v1/prove", "application/json", strings.NewReader(`{`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body: status %d, want 400", resp.StatusCode)
	}

	// Health and stats endpoints respond with JSON.
	for _, path := range []string{"/v1/healthz", "/v1/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
	}

	srv.Close()
	shutdownClean(t, svc)
	check()
}

// TestHTTPBatchRoundTrip drives POST /v1/batch end to end: the response
// lists one entry per job in request order, each proof verifies, and
// the batch shows up as base-cache hits. Also pins the batch error
// mapping and that the API is served only under /v1/.
func TestHTTPBatchRoundTrip(t *testing.T) {
	check := leakCheck(t)
	// A 2-GPU cluster is one scheduling node → 1 worker and a depth-2
	// queue by default; give the batch room to be admitted whole.
	svc := newTestService(t, 2, 64, func(c *Config) {
		c.Workers = 2
		c.QueueDepth = 8
	})
	srv := httptest.NewServer(svc.Handler())
	defer srv.Close()

	const n = 4
	body := `{"jobs":[`
	for i := 0; i < n; i++ {
		if i > 0 {
			body += ","
		}
		body += fmt.Sprintf(`{"circuit":"synthetic","seed":%d}`, 100+i)
	}
	body += `]}`
	resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /v1/batch: status %d", resp.StatusCode)
	}
	var out struct {
		Jobs []struct {
			JobID uint64 `json:"job_id"`
			Proof string `json:"proof"`
			Error string `json:"error"`
		} `json:"jobs"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Jobs) != n {
		t.Fatalf("got %d batch entries, want %d", len(out.Jobs), n)
	}
	vk, err := svc.VerifyingKey("synthetic")
	if err != nil {
		t.Fatal(err)
	}
	for i, entry := range out.Jobs {
		if entry.Error != "" {
			t.Fatalf("batch entry %d failed: %s", i, entry.Error)
		}
		raw, err := hex.DecodeString(entry.Proof)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		proof, err := svc.eng.UnmarshalProof(raw)
		if err != nil {
			t.Fatalf("entry %d: %v", i, err)
		}
		// Entries come back in request order: entry i proves seed 100+i.
		w, err := svc.circuits["synthetic"].witness(int64(100 + i))
		if err != nil {
			t.Fatal(err)
		}
		ok, err := svc.eng.Verify(vk, proof, w[1:1+svc.circuits["synthetic"].cs.NPublic])
		if err != nil || !ok {
			t.Fatalf("entry %d proof failed verification: ok=%v err=%v", i, ok, err)
		}
	}
	if st := svc.Stats(); st.BaseCacheHits != n {
		t.Fatalf("BaseCacheHits = %d after HTTP batch, want %d", st.BaseCacheHits, n)
	}

	// The unversioned paths are not served.
	resp, err = http.Post(srv.URL+"/prove", "application/json",
		strings.NewReader(`{"circuit":"synthetic","seed":9}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("POST /prove: status %d, want 404", resp.StatusCode)
	}
	for _, path := range []string{"/healthz", "/stats"} {
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", path, resp.StatusCode)
		}
	}

	// Error mapping: empty batch and an over-cap batch are both 400;
	// an unknown circuit anywhere rejects the whole batch with 404.
	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"jobs":[]}`, http.StatusBadRequest},
		{`{"jobs":[` + strings.Repeat(`{"circuit":"x"},`, maxBatchJobs) + `{"circuit":"x"}]}`, http.StatusBadRequest},
		{`{"jobs":[{"circuit":"synthetic","seed":1},{"circuit":"nope","seed":2}]}`, http.StatusNotFound},
	} {
		resp, err := http.Post(srv.URL+"/v1/batch", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != tc.want {
			t.Fatalf("batch %q: status %d, want %d", tc.body[:min(len(tc.body), 40)], resp.StatusCode, tc.want)
		}
	}

	srv.Close()
	shutdownClean(t, svc)
	check()
}
