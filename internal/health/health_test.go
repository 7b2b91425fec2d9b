package health

import (
	"context"
	"errors"
	"math"
	"testing"
	"time"

	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// testRuntime builds a runtime over a tiny MLP monitor with no real backoff
// sleeping.
func testRuntime(t *testing.T, cfg Config) (*Runtime, *nn.Network) {
	t.Helper()
	net := models.MLP(rng.New(1), 16, []int{12}, 5)
	patterns := &testgen.PatternSet{
		Name: "t", Method: "plain",
		X:      tensor.RandUniform(rng.New(2), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
	mon := monitor.MustNew(net, patterns, nil, monitor.DefaultConfig())
	cfg.Sleep = func(time.Duration) {}
	rt, err := New(mon, cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return rt, net
}

// shiftInfer fabricates confidences at an exact distance from golden by
// running the clean model and shifting every confidence.
func shiftInfer(net *nn.Network, dist float64) monitor.Infer {
	return func(x *tensor.Tensor) *tensor.Tensor {
		probs := nn.Softmax(net.Forward(x))
		probs.Apply(func(v float64) float64 { return v + dist + 1e-9 })
		return probs
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.EscalateAfter = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("EscalateAfter=0 accepted")
	}
	bad = DefaultConfig()
	bad.VerifyRounds = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("VerifyRounds=0 accepted")
	}
	if _, err := New(nil, DefaultConfig()); err == nil {
		t.Fatal("nil monitor accepted")
	}
}

func TestHysteresisSuppressesTransientFlap(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 2
	rt, net := testRuntime(t, cfg)

	clean := shiftInfer(net, 0)
	noisy := shiftInfer(net, 0.04) // raw Degraded for one round

	r1 := rt.Check(clean)
	r2 := rt.Check(noisy) // single-round glitch
	r3 := rt.Check(clean)
	if r2.Raw != monitor.Degraded {
		t.Fatalf("glitch round raw=%s, want DEGRADED (the raw monitor flaps here)", r2.Raw)
	}
	for i, r := range []Round{r1, r2, r3} {
		if r.Confirmed != monitor.Healthy {
			t.Fatalf("round %d confirmed=%s, want HEALTHY (debounce must absorb 1-round glitch)", i+1, r.Confirmed)
		}
	}
	if rt.StatusFlips() != 0 {
		t.Fatalf("confirmed status flapped %d times on a transient", rt.StatusFlips())
	}
}

func TestHysteresisConfirmsPersistentDamage(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 2
	rt, net := testRuntime(t, cfg)
	bad := shiftInfer(net, 0.12) // raw Critical

	r1 := rt.Check(bad)
	if r1.Confirmed != monitor.Healthy {
		t.Fatalf("confirmed after 1 round: %s", r1.Confirmed)
	}
	r2 := rt.Check(bad)
	if r2.Confirmed != monitor.Critical || !r2.Changed {
		t.Fatalf("persistent critical not confirmed after K rounds: %+v", r2)
	}
}

func TestHysteresisOscillatingElevatedEvidence(t *testing.T) {
	// raw alternating Impaired/Critical must still escalate (to the level
	// every round agreed on), not reset the streak forever
	cfg := DefaultConfig()
	cfg.EscalateAfter = 2
	rt, net := testRuntime(t, cfg)
	if rt.Check(shiftInfer(net, 0.12)).Changed { // Critical
		t.Fatal("escalated after one round")
	}
	r2 := rt.Check(shiftInfer(net, 0.07)) // Impaired
	if r2.Confirmed != monitor.Impaired {
		t.Fatalf("oscillating elevated evidence confirmed %s, want IMPAIRED", r2.Confirmed)
	}
}

func TestDeescalationIsSlower(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 2
	cfg.DeescalateAfter = 3
	rt, net := testRuntime(t, cfg)
	bad, clean := shiftInfer(net, 0.12), shiftInfer(net, 0)
	rt.Check(bad)
	rt.Check(bad) // confirmed Critical
	if rt.Confirmed() != monitor.Critical {
		t.Fatal("setup failed")
	}
	rt.Check(clean)
	rt.Check(clean)
	if rt.Confirmed() != monitor.Critical {
		t.Fatalf("de-escalated after only 2 clean rounds")
	}
	r := rt.Check(clean)
	if r.Confirmed != monitor.Healthy {
		t.Fatalf("not de-escalated after 3 clean rounds: %s", r.Confirmed)
	}
}

func TestPoisonedInferNaN(t *testing.T) {
	rt, net := testRuntime(t, DefaultConfig())
	nan := func(x *tensor.Tensor) *tensor.Tensor {
		probs := nn.Softmax(net.Forward(x))
		probs.Data()[3] = math.NaN()
		return probs
	}
	r := rt.Check(nan)
	if r.ReadoutOK {
		t.Fatal("NaN readout accepted")
	}
	if !r.SensorFault || r.Status() == monitor.Healthy {
		t.Fatalf("poisoned readout round: %+v (status %s)", r, r.Status())
	}
	if r.Rejected != 1+DefaultConfig().MaxReadRetries {
		t.Fatalf("rejected %d attempts, want %d", r.Rejected, 1+DefaultConfig().MaxReadRetries)
	}
}

func TestPoisonedInferShapeAndNil(t *testing.T) {
	rt, _ := testRuntime(t, DefaultConfig())
	r := rt.Check(func(x *tensor.Tensor) *tensor.Tensor { return tensor.New(2, 2) })
	if r.ReadoutOK || r.Status() == monitor.Healthy {
		t.Fatalf("wrong-shape readout: %+v", r)
	}
	r = rt.Check(func(x *tensor.Tensor) *tensor.Tensor { return nil })
	if r.ReadoutOK || r.Status() == monitor.Healthy {
		t.Fatalf("nil readout: %+v", r)
	}
}

func TestPoisonedInferPanicRecovered(t *testing.T) {
	rt, _ := testRuntime(t, DefaultConfig())
	r := rt.Check(func(x *tensor.Tensor) *tensor.Tensor { panic("dead sensor") })
	if r.ReadoutOK || r.Status() == monitor.Healthy {
		t.Fatalf("panicking readout: %+v", r)
	}
	_, panics := rt.RejectedReadouts()
	if panics != 1+DefaultConfig().MaxReadRetries {
		t.Fatalf("recovered %d panics, want %d", panics, 1+DefaultConfig().MaxReadRetries)
	}
}

func TestRetryRecoversFlakyReadout(t *testing.T) {
	rt, net := testRuntime(t, DefaultConfig())
	calls := 0
	flaky := func(x *tensor.Tensor) *tensor.Tensor {
		calls++
		if calls == 1 {
			panic("transient")
		}
		return nn.Softmax(net.Forward(x))
	}
	r := rt.Check(flaky)
	if !r.ReadoutOK || r.Rejected != 1 {
		t.Fatalf("flaky readout not recovered by retry: %+v", r)
	}
	if r.Raw != monitor.Healthy {
		t.Fatalf("recovered readout classified %s", r.Raw)
	}
}

func TestBackoffIsBoundedExponential(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxReadRetries = 4
	cfg.BackoffBase = 10 * time.Millisecond
	cfg.BackoffMax = 25 * time.Millisecond
	rt, _ := testRuntime(t, cfg)
	var slept []time.Duration
	rt.cfg.Sleep = func(d time.Duration) { slept = append(slept, d) }
	rt.Check(func(x *tensor.Tensor) *tensor.Tensor { return nil })
	want := []time.Duration{10 * time.Millisecond, 20 * time.Millisecond, 25 * time.Millisecond, 25 * time.Millisecond}
	if len(slept) != len(want) {
		t.Fatalf("slept %v, want %v", slept, want)
	}
	for i := range want {
		if slept[i] != want[i] {
			t.Fatalf("slept %v, want %v", slept, want)
		}
	}
}

func TestHistoryRingBounded(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxHistory = 4
	rt, net := testRuntime(t, cfg)
	clean := shiftInfer(net, 0)
	for i := 0; i < 10; i++ {
		rt.Check(clean)
	}
	hist := rt.History()
	if len(hist) != 4 {
		t.Fatalf("history kept %d rounds, want 4", len(hist))
	}
	for i, r := range hist {
		if r.Seq != 7+i {
			t.Fatalf("history out of order: %+v", hist)
		}
	}
}

// stepRepairer simulates hardware whose damage only the given action level
// can clear, repaired over the fixed reprogram → retrain → replace tiers.
// With err set every application fails with it.
type stepRepairer struct {
	needs   repair.Action
	applied []repair.Action
	fixed   bool
	err     error
}

func (s *stepRepairer) Strategies() []repair.Strategy {
	var out []repair.Strategy
	for _, a := range []repair.Action{repair.Reprogram, repair.Retrain, repair.Replace} {
		out = append(out, repair.Tier(a, func(context.Context, repair.Diagnosis) (repair.Report, error) {
			s.applied = append(s.applied, a)
			if s.err != nil {
				return repair.Report{}, s.err
			}
			if a >= s.needs {
				s.fixed = true
			}
			return repair.Report{}, nil
		}))
	}
	return out
}

func (s *stepRepairer) Diagnose(confirmed monitor.Status) repair.Diagnosis {
	return repair.Diagnosis{Status: confirmed}
}

func TestSuperviseEscalatesUntilVerified(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1 // confirm immediately: this test targets the repair loop
	rt, net := testRuntime(t, cfg)
	sr := &stepRepairer{needs: repair.Retrain}
	infer := func(x *tensor.Tensor) *tensor.Tensor {
		d := 0.04 // Degraded until fixed
		if sr.fixed {
			d = 0
		}
		probs := nn.Softmax(net.Forward(x))
		probs.Apply(func(v float64) float64 { return v + d + 1e-9 })
		return probs
	}
	ep := rt.Supervise(infer, sr)
	if !ep.Recovered || ep.GaveUp {
		t.Fatalf("episode did not recover: %s", ep)
	}
	wantLadder := []repair.Action{repair.Reprogram, repair.Retrain}
	if len(sr.applied) != len(wantLadder) {
		t.Fatalf("applied %v, want %v", sr.applied, wantLadder)
	}
	for i := range wantLadder {
		if sr.applied[i] != wantLadder[i] {
			t.Fatalf("applied %v, want %v", sr.applied, wantLadder)
		}
	}
	if rt.Confirmed() != monitor.Healthy {
		t.Fatalf("confirmed %s after verified repair", rt.Confirmed())
	}
}

func TestSuperviseGivesUpGracefully(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	cfg.MaxRepairAttempts = 3
	rt, net := testRuntime(t, cfg)
	bad := shiftInfer(net, 0.12) // Critical, unrepairable
	sr := &stepRepairer{needs: repair.Action(99)}
	ep := rt.Supervise(bad, sr)
	if ep.Recovered || !ep.GaveUp {
		t.Fatalf("unrepairable damage not given up: %s", ep)
	}
	if len(ep.Attempts) == 0 || ep.Recommendation == "none" {
		t.Fatalf("give-up episode carries no escalation advice: %s", ep)
	}
	if rt.Confirmed() == monitor.Healthy {
		t.Fatal("gave up but reports Healthy")
	}
}

func TestSuperviseRepairApplyError(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	cfg.MaxRepairAttempts = 2
	rt, net := testRuntime(t, cfg)
	bad := shiftInfer(net, 0.04)
	failing := &stepRepairer{needs: repair.Replace, err: errors.New("actuator offline")}
	ep := rt.Supervise(bad, failing)
	if !ep.GaveUp || len(ep.Attempts) != 2 {
		t.Fatalf("failing repairer episode: %s", ep)
	}
	if ep.Attempts[0].ApplyErr == nil {
		t.Fatal("apply error not recorded")
	}
}

func TestCheckCtxCanceledSkipsBackoffSchedule(t *testing.T) {
	cfg := DefaultConfig()
	cfg.MaxReadRetries = 5
	rt, _ := testRuntime(t, cfg)
	sleeps, attempts := 0, 0
	rt.cfg.Sleep = func(time.Duration) { sleeps++ }
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := rt.CheckCtx(ctx, func(x *tensor.Tensor) *tensor.Tensor { attempts++; return nil })
	if attempts != 1 {
		t.Fatalf("canceled ctx ran %d attempts, want exactly the first", attempts)
	}
	if sleeps != 0 {
		t.Fatalf("canceled ctx still slept %d times", sleeps)
	}
	if !r.SensorFault || !errors.Is(r.Err, context.Canceled) {
		t.Fatalf("aborted round must be a sensor fault wrapping ctx.Err(): %+v", r)
	}
	if r.Status() == monitor.Healthy {
		t.Fatalf("aborted readout round reports %s", r.Status())
	}
}

func TestCheckCtxCancelCutsRealBackoffSleep(t *testing.T) {
	net := models.MLP(rng.New(1), 16, []int{12}, 5)
	patterns := &testgen.PatternSet{
		Name: "t", Method: "plain",
		X:      tensor.RandUniform(rng.New(2), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
	cfg := DefaultConfig()
	cfg.BackoffBase = 30 * time.Second // would dominate the test if not cut
	cfg.BackoffMax = 30 * time.Second
	rt, err := New(monitor.MustNew(net, patterns, nil, monitor.DefaultConfig()), cfg)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	r := rt.CheckCtx(ctx, func(x *tensor.Tensor) *tensor.Tensor { return nil })
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("cancellation did not cut the 30s backoff sleep: took %v", elapsed)
	}
	if !errors.Is(r.Err, context.DeadlineExceeded) {
		t.Fatalf("round error %v does not wrap the deadline", r.Err)
	}
}

func TestSuperviseCtxCanceledStartsNoRepair(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	rt.Check(shiftInfer(net, 0.12))
	if rt.Confirmed() != monitor.Critical {
		t.Fatalf("setup: confirmed %s", rt.Confirmed())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sr := &stepRepairer{needs: repair.Reprogram}
	ep := rt.SuperviseCtx(ctx, shiftInfer(net, 0.12), sr)
	if len(sr.applied) != 0 {
		t.Fatalf("canceled episode still applied repairs: %v", sr.applied)
	}
	if ep.GaveUp {
		t.Fatalf("drain-time cancellation must not condemn the device: %s", ep)
	}
}

func TestSuperviseHealthyNoRepair(t *testing.T) {
	rt, net := testRuntime(t, DefaultConfig())
	sr := &stepRepairer{}
	ep := rt.Supervise(shiftInfer(net, 0), sr)
	if ep.Repaired() || len(sr.applied) != 0 {
		t.Fatalf("healthy device was repaired: %s", ep)
	}
}
