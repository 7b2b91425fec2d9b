package netserve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

// httpTier wraps a small frontend in a live test server.
func httpTier(t *testing.T, cfg Config) (*Frontend, [][]*tierDevice, *httptest.Server) {
	t.Helper()
	f, devs := newTier(t, 2, 1, cfg)
	ts := httptest.NewServer(f.Handler())
	t.Cleanup(func() { ts.Close(); f.Close() })
	return f, devs, ts
}

func postInfer(t *testing.T, ts *httptest.Server, body string, hdr map[string]string) (*http.Response, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/infer", bytes.NewBufferString(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		t.Fatalf("undecodable response body: %v", err)
	}
	return resp, decoded
}

func inferBody(tenant string, rows, width int) string {
	row := make([]float64, width)
	for i := range row {
		row[i] = 0.25
	}
	input := make([][]float64, rows)
	for i := range input {
		input[i] = row
	}
	b, _ := json.Marshal(map[string]any{"tenant": tenant, "input": input})
	return string(b)
}

func TestHTTPHappyPath(t *testing.T) {
	_, _, ts := httpTier(t, Config{})
	resp, body := postInfer(t, ts, inferBody("alice", 2, 16), nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d, body %v", resp.StatusCode, body)
	}
	probs, ok := body["probs"].([]any)
	if !ok || len(probs) != 2 {
		t.Fatalf("bad probs in %v", body)
	}
	if body["shard"] == "" || body["device"] == "" {
		t.Fatalf("response names no placement: %v", body)
	}
	if served := resp.Header.Get("X-Served-By"); served == "" {
		t.Fatal("no X-Served-By header")
	}
	if body["status"] != "HEALTHY" {
		t.Fatalf("status %v, want HEALTHY", body["status"])
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	_, _, ts := httpTier(t, Config{MaxRows: 4, Quota: QuotaConfig{Rate: 0.001, Burst: 2}})

	// 400: bad JSON, bad width, oversized batch, out-of-range input, bad
	// priority, bad deadline
	huge := strings.Replace(inferBody("t", 1, 16), "0.25", "1e300", 1)
	for i, c := range []struct {
		body string
		hdr  map[string]string
	}{
		{"{not json", nil},
		{inferBody("t", 1, 7), nil},
		{huge, nil},
		{inferBody("t", 5, 16), nil},
		{`{"tenant":"t","priority":"turbo","input":[[1]]}`, nil},
		{inferBody("t", 1, 16), map[string]string{DeadlineHeader: "soon"}},
		{inferBody("t", 1, 16), map[string]string{DeadlineHeader: "-5"}},
	} {
		resp, body := postInfer(t, ts, c.body, c.hdr)
		if resp.StatusCode != http.StatusBadRequest || body["error"] != "invalid" {
			t.Fatalf("case %d: status %d error %v, want 400 invalid", i, resp.StatusCode, body["error"])
		}
	}

	// 429 quota after the burst is gone, with Retry-After
	for i := 0; i < 2; i++ {
		if resp, body := postInfer(t, ts, inferBody("q", 1, 16), nil); resp.StatusCode != 200 {
			t.Fatalf("in-quota request %d: %d %v", i, resp.StatusCode, body)
		}
	}
	resp, body := postInfer(t, ts, inferBody("q", 1, 16), nil)
	if resp.StatusCode != http.StatusTooManyRequests || body["error"] != "quota" {
		t.Fatalf("over-quota: status %d error %v, want 429 quota", resp.StatusCode, body["error"])
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}

	// 405-equivalent: GET on /v1/infer is invalid
	getResp, err := ts.Client().Get(ts.URL + "/v1/infer")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("GET /v1/infer = %d", getResp.StatusCode)
	}
}

func TestHTTPDeadlinePropagation(t *testing.T) {
	_, devs, ts := httpTier(t, Config{})
	for _, row := range devs {
		row[0].set(func(d *tierDevice) { d.delay = 300 * time.Millisecond })
	}
	start := time.Now()
	resp, body := postInfer(t, ts, inferBody("t", 1, 16), map[string]string{DeadlineHeader: "25"})
	elapsed := time.Since(start)
	if resp.StatusCode != http.StatusGatewayTimeout || body["error"] != "deadline" {
		t.Fatalf("status %d error %v, want 504 deadline", resp.StatusCode, body["error"])
	}
	if elapsed > 250*time.Millisecond {
		t.Fatalf("504 took %v — the header deadline did not propagate", elapsed)
	}
}

func TestHTTPFaultedShardMaps502(t *testing.T) {
	f, devs, ts := httpTier(t, Config{NoRetry: true})
	tenant := tenantFor(t, f, "shard-0")
	devs[0][0].set(func(d *tierDevice) { d.crash = true })
	resp, body := postInfer(t, ts, inferBody(tenant, 1, 16), nil)
	if resp.StatusCode != http.StatusBadGateway || body["error"] != "faulted" {
		t.Fatalf("status %d error %v, want 502 faulted", resp.StatusCode, body["error"])
	}
}

func TestHTTPHealthzAndStats(t *testing.T) {
	f, _, ts := httpTier(t, Config{})
	if _, err := f.Do(context.Background(), Request{Tenant: "t", X: tierBatch(1)}); err != nil {
		t.Fatal(err)
	}

	resp, err := ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Closed bool `json:"closed"`
		Shards []struct {
			Name     string   `json:"name"`
			Draining bool     `json:"draining"`
			Serving  []string `json:"serving"`
		} `json:"shards"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(health.Shards) != 2 {
		t.Fatalf("healthz: %d %+v", resp.StatusCode, health)
	}

	resp, err = ts.Client().Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var st Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if st.Completed != 1 || st.Admitted != st.Terminal() {
		t.Fatalf("stats over the wire: %+v", st)
	}

	// drain everything: healthz flips to 503
	f.DrainShard("shard-0")
	f.DrainShard("shard-1")
	resp, err = ts.Client().Get(ts.URL + "/v1/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("healthz with every shard draining = %d, want 503", resp.StatusCode)
	}
}
