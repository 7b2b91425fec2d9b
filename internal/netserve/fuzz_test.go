package netserve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
	"time"

	"reramtest/internal/engine"
	"reramtest/internal/fleet"
	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/rng"
	"reramtest/internal/serve"
)

// engineDevice is a tier device whose readout is a compiled engine plan, as
// the stock serving devices are.
type engineDevice struct {
	*tierDevice
	eng *engine.Engine
}

func (d engineDevice) Infer() monitor.Infer { return d.eng.Probs }

// FuzzInferHandler sends arbitrary bodies and X-Deadline-Ms values to
// POST /v1/infer on a live two-shard tier. Every input must come back as a
// typed 4xx, or as a 200 whose probs equal a direct engine.Probs call on the
// decoded input bit for bit. A client deadline under a second may also
// expire into a typed 504. After every input both accounting identities
// hold: Received == Invalid + QuotaRejected + ClosedRejected + Admitted,
// and Admitted == Terminal with no untyped error.
func FuzzInferHandler(f *testing.F) {
	net := models.MLP(rng.New(1), 16, []int{12}, 5)
	ref := engine.MustCompile(net.Clone(), engine.Options{Workers: 1})
	specs := make([]ShardSpec, 2)
	for s := range specs {
		d := &tierDevice{id: fmt.Sprintf("s%d-dev0", s), net: net.Clone(), patterns: tierPatterns()}
		specs[s] = ShardSpec{
			Name:    fmt.Sprintf("shard-%d", s),
			Devices: []fleet.Device{engineDevice{d, engine.MustCompile(d.net, engine.Options{Workers: 1})}},
			Fleet:   tierFleetConfig(),
			Serve:   serve.Config{Workers: 2, HedgeAfter: time.Hour},
		}
	}
	tier, err := New(specs, Config{MaxRows: 8, DefaultDeadline: 30 * time.Second})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { tier.Close() })
	h := tier.Handler()

	f.Add([]byte(inferBody("alice", 2, 16)), "")
	f.Add([]byte(inferBody("bob", 1, 16)), "250")
	f.Add([]byte(`{"tenant":"t","priority":"monitor","input":[[0,1,0,1,0,1,0,1,0,1,0,1,0,1,0,1]]}`), "1")
	f.Add([]byte(`{"tenant":"t","input":[[1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308,1e308]]}`), "")
	f.Add([]byte(inferBody("", 1, 16)), "")
	f.Add([]byte(inferBody("t", 9, 16)), "")
	f.Add([]byte(inferBody("t", 1, 15)), "")
	f.Add([]byte(`{"tenant":"t","priority":"turbo","input":[[1]]}`), "")
	f.Add([]byte(`{"tenant":"t","input":[]}`), "")
	f.Add([]byte(`{not json`), "")
	f.Add([]byte(inferBody("t", 1, 16)), "-5")
	f.Add([]byte(inferBody("t", 1, 16)), "soon")

	f.Fuzz(func(t *testing.T, body []byte, deadline string) {
		req := httptest.NewRequest(http.MethodPost, "/v1/infer", bytes.NewReader(body))
		if deadline != "" {
			req.Header.Set(DeadlineHeader, deadline)
		}
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)

		switch code := rec.Code; {
		case code == http.StatusOK:
			// the handler's own decoder; it accepted the body, so this must too
			var in inferRequest
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&in); err != nil {
				t.Fatalf("200 for a body the decoder rejects: %v", err)
			}
			x, err := tensorFromRows(in.Input, 16)
			if err != nil {
				t.Fatalf("200 for an input the validator rejects: %v", err)
			}
			var out inferResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil {
				t.Fatalf("200 with an undecodable body %q: %v", rec.Body.String(), err)
			}
			want := rowsFromTensor(ref.Probs(x))
			if len(out.Probs) != len(want) {
				t.Fatalf("200 with %d prob rows, want %d", len(out.Probs), len(want))
			}
			for i := range want {
				if len(out.Probs[i]) != len(want[i]) {
					t.Fatalf("row %d: %d probs, want %d", i, len(out.Probs[i]), len(want[i]))
				}
				for j := range want[i] {
					if math.Float64bits(out.Probs[i][j]) != math.Float64bits(want[i][j]) {
						t.Fatalf("probs[%d][%d] = %v, engine.Probs gives %v", i, j, out.Probs[i][j], want[i][j])
					}
				}
			}
		case code >= 400 && code < 500, code == http.StatusGatewayTimeout && shortDeadline(deadline):
			var e errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
				t.Fatalf("%d with an undecodable body %q: %v", code, rec.Body.String(), err)
			}
			if c, _ := StatusFor(kindErr(e.Error)); c != code || e.Error == "internal" {
				t.Fatalf("%d carries kind %q (%s)", code, e.Error, e.Message)
			}
		default:
			t.Fatalf("status %d, body %q", code, rec.Body.String())
		}

		st := tier.Stats()
		if st.Received != st.Invalid+st.QuotaRejected+st.ClosedRejected+st.Admitted {
			t.Fatalf("admission accounting broken: %+v", st)
		}
		if st.Admitted != st.Terminal() || st.Internal != 0 {
			t.Fatalf("terminal accounting broken: %+v", st)
		}
	})
}

// shortDeadline reports whether the header asked for a deadline under a
// second, which a busy host may legitimately miss.
func shortDeadline(raw string) bool {
	ms, err := strconv.Atoi(raw)
	return err == nil && ms > 0 && ms < 1000
}

// kindErr maps a wire kind back onto the sentinel StatusFor keys on.
func kindErr(kind string) error {
	switch kind {
	case "invalid":
		return ErrInvalid
	case "quota":
		return ErrQuota
	case "deadline":
		return serve.ErrDeadline
	}
	return fmt.Errorf("unexpected kind %q", kind)
}
