package netserve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"reramtest/internal/reram"
	"reramtest/internal/serve"
	"reramtest/internal/tensor"
)

// The HTTP/JSON wire protocol.
//
//	POST /v1/infer
//	  headers: X-Deadline-Ms: <int>   request deadline, clamped to MaxDeadline
//	  body:    {"tenant":"t", "priority":"bulk"|"monitor", "input":[[...]]}
//	  200:     {"probs":[[...]], "shard":"s0", "device":"accel-00",
//	            "status":"healthy", "degraded":false, "hedged":false,
//	            "retried":false, "attempts":1}
//	  4xx/5xx: {"error":"<kind>", "message":"..."}  (kind ∈ KnownKinds)
//	GET /v1/healthz   per-shard serving/quarantined/retired/draining snapshot
//	GET /v1/stats     the tier's lifetime counters
//	GET /statsz       full telemetry: lifetime counters, per-tenant/per-shard
//	                  response-granular hardware cost, and every device's live
//	                  per-class counter snapshot
//
// Degraded answers are 200s: the paper's economics keep drifting silicon in
// service, so the flag rides in the body and the X-Degraded header and the
// caller decides what the answer is worth.

// inferRequest is the POST /v1/infer body.
type inferRequest struct {
	Tenant   string      `json:"tenant"`
	Priority string      `json:"priority,omitempty"`
	Input    [][]float64 `json:"input"`
}

// inferResponse is the 200 body.
type inferResponse struct {
	Probs    [][]float64 `json:"probs"`
	Shard    string      `json:"shard"`
	Device   string      `json:"device"`
	Status   string      `json:"status"`
	Degraded bool        `json:"degraded"`
	Hedged   bool        `json:"hedged,omitempty"`
	Retried  bool        `json:"retried,omitempty"`
	Attempts int         `json:"attempts"`
	// Cost is the measured hardware spend of the attempt that served this
	// answer; clients summing it across completed requests reproduce the
	// tier's per-tenant figure exactly (see CostStats).
	Cost reram.Cost `json:"cost"`
}

// errorResponse is every non-200 body.
type errorResponse struct {
	Error   string `json:"error"`
	Message string `json:"message"`
}

// DeadlineHeader carries the client's end-to-end deadline in milliseconds;
// it is clamped to Config.MaxDeadline and propagated through context into
// the shard, the fleet router and the device attempt.
const DeadlineHeader = "X-Deadline-Ms"

// Handler returns the tier's HTTP handler.
func (f *Frontend) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/infer", f.handleInfer)
	mux.HandleFunc("/v1/healthz", f.handleHealthz)
	mux.HandleFunc("/v1/stats", f.handleStats)
	mux.HandleFunc("/statsz", f.handleStatsz)
	return mux
}

// writeError renders one typed error as its mapped status + JSON body.
func writeError(w http.ResponseWriter, err error) {
	code, kind := StatusFor(err)
	if code == http.StatusTooManyRequests {
		w.Header().Set("Retry-After", "1")
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(errorResponse{Error: kind, Message: err.Error()})
}

// handleInfer is the request path: decode, build the deadline context, run
// the tier, encode.
func (f *Frontend) handleInfer(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, fmt.Errorf("netserve: %s not allowed on /v1/infer: %w", r.Method, ErrInvalid))
		return
	}
	var body inferRequest
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<22))
	if err := dec.Decode(&body); err != nil {
		f.received.Add(1)
		f.invalid.Add(1)
		writeError(w, fmt.Errorf("netserve: undecodable body: %v: %w", err, ErrInvalid))
		return
	}
	x, err := tensorFromRows(body.Input, f.inDim)
	if err != nil {
		f.received.Add(1)
		f.invalid.Add(1)
		writeError(w, err)
		return
	}
	prio := serve.Bulk
	switch body.Priority {
	case "", "bulk":
	case "monitor":
		prio = serve.Monitor
	default:
		f.received.Add(1)
		f.invalid.Add(1)
		writeError(w, fmt.Errorf("netserve: unknown priority %q: %w", body.Priority, ErrInvalid))
		return
	}

	ctx := r.Context()
	if raw := r.Header.Get(DeadlineHeader); raw != "" {
		ms, perr := strconv.Atoi(raw)
		if perr != nil || ms <= 0 {
			f.received.Add(1)
			f.invalid.Add(1)
			writeError(w, fmt.Errorf("netserve: bad %s %q: %w", DeadlineHeader, raw, ErrInvalid))
			return
		}
		// clamp before scaling: a huge header value would overflow the
		// Duration into a negative, already-expired deadline
		d := f.cfg.MaxDeadline
		if int64(ms) < int64(d/time.Millisecond) {
			d = time.Duration(ms) * time.Millisecond
		}
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}

	res, err := f.Do(ctx, Request{Tenant: body.Tenant, Priority: prio, X: x})
	if err != nil {
		writeError(w, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Served-By", res.Shard+"/"+res.Device)
	if res.Degraded {
		w.Header().Set("X-Degraded", "true")
	}
	json.NewEncoder(w).Encode(inferResponse{
		Probs:    rowsFromTensor(res.Probs),
		Shard:    res.Shard,
		Device:   res.Device,
		Status:   res.Status.String(),
		Degraded: res.Degraded,
		Hedged:   res.Hedged,
		Retried:  res.Retried,
		Attempts: res.Attempts,
		Cost:     res.Cost,
	})
}

// handleHealthz reports per-shard operational state; 200 while any shard is
// live, 503 once every shard is draining or the tier is closed.
func (f *Frontend) handleHealthz(w http.ResponseWriter, r *http.Request) {
	type shardHealth struct {
		Name        string   `json:"name"`
		Draining    bool     `json:"draining"`
		InFlight    int64    `json:"in_flight"`
		Unjournaled bool     `json:"unjournaled"`
		Precision   string   `json:"precision"`
		Serving     []string `json:"serving"`
		Quarantined []string `json:"quarantined"`
		Retired     []string `json:"retired"`
	}
	statuses := f.Status()
	out := struct {
		Closed bool          `json:"closed"`
		Shards []shardHealth `json:"shards"`
	}{Closed: f.closed.Load()}
	anyLive := false
	for _, st := range statuses {
		if !st.Draining {
			anyLive = true
		}
		out.Shards = append(out.Shards, shardHealth{
			Name: st.Name, Draining: st.Draining, InFlight: st.InFlight,
			Unjournaled: st.Unjournaled, Precision: st.Precision,
			Serving: st.Serving, Quarantined: st.Quarantined, Retired: st.Retired,
		})
	}
	w.Header().Set("Content-Type", "application/json")
	if !anyLive || out.Closed {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	json.NewEncoder(w).Encode(out)
}

// handleStats dumps the tier's lifetime counters.
func (f *Frontend) handleStats(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(f.Stats())
}

// handleStatsz dumps the full telemetry surface in one scrape: the tier's
// lifetime counters, the response-granular cost table (tenant/shard/fleet,
// internally consistent by construction) and every device's live per-class
// counter snapshot (which additionally carries monitor/repair spend and the
// serving spend of abandoned hedges). Shards that lost their journal and run
// memory-only are listed under "unjournaled" so scrapers can alert on
// durability loss without parsing per-shard health.
func (f *Frontend) handleStatsz(w http.ResponseWriter, r *http.Request) {
	var unjournaled []string
	precisions := make(map[string]string)
	for _, st := range f.Status() {
		if st.Unjournaled {
			unjournaled = append(unjournaled, st.Name)
		}
		precisions[st.Name] = st.Precision
	}
	out := struct {
		Stats       Stats                                     `json:"stats"`
		Cost        CostStats                                 `json:"cost"`
		Devices     map[string]map[string]reram.CostBreakdown `json:"devices"`
		Precisions  map[string]string                         `json:"precisions"`
		Unjournaled []string                                  `json:"unjournaled,omitempty"`
	}{Stats: f.Stats(), Cost: f.CostStats(), Devices: f.DeviceCosts(), Precisions: precisions, Unjournaled: unjournaled}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(out)
}

// tensorFromRows validates and packs the wire input into an (N, inDim)
// batch.
func tensorFromRows(rows [][]float64, inDim int) (*tensor.Tensor, error) {
	if len(rows) == 0 {
		return nil, fmt.Errorf("netserve: empty input batch: %w", ErrInvalid)
	}
	x := tensor.New(len(rows), inDim)
	data := x.Data()
	for i, row := range rows {
		if len(row) != inDim {
			return nil, fmt.Errorf("netserve: input row %d has %d values, want %d: %w",
				i, len(row), inDim, ErrInvalid)
		}
		copy(data[i*inDim:(i+1)*inDim], row)
	}
	return x, nil
}

// rowsFromTensor unpacks an (N, K) batch for the wire.
func rowsFromTensor(t *tensor.Tensor) [][]float64 {
	if t == nil {
		return nil
	}
	n, k := t.Dim(0), t.Dim(1)
	data := t.Data()
	out := make([][]float64, n)
	for i := range out {
		out[i] = append([]float64(nil), data[i*k:(i+1)*k]...)
	}
	return out
}
