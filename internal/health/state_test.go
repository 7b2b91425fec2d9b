package health

import (
	"testing"
	"time"

	"reramtest/internal/models"
	"reramtest/internal/monitor"
	"reramtest/internal/repair"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// TestStateRoundTrip drives a runtime into a non-trivial hysteresis state,
// exports it into a fresh runtime over an identically commissioned monitor,
// and requires the two to agree on every subsequent confirmed status —
// the single-runtime version of crash/restart equivalence.
func TestStateRoundTrip(t *testing.T) {
	rt, net := testRuntime(t, DefaultConfig())

	healthy := monitor.NetworkInfer(net)
	bad := shiftInfer(net, 0.2)
	// one degraded round: an in-flight escalation streak, not yet confirmed
	rt.Check(healthy)
	rt.Check(bad)

	snap := rt.ExportState()
	if snap.Seq != 2 || snap.UpStreak != 1 {
		t.Fatalf("unexpected snapshot: %+v", snap)
	}

	// "restart": a second runtime commissioned exactly like the first
	rt2, _ := testRuntime(t, DefaultConfig())
	if rt.Monitor().Fingerprint() != rt2.Monitor().Fingerprint() {
		t.Fatal("identically commissioned monitors disagree on Fingerprint")
	}
	if err := rt2.RestoreState(snap); err != nil {
		t.Fatal(err)
	}

	for i, infer := range []monitor.Infer{bad, bad, healthy, healthy, healthy, healthy} {
		a, b := rt.Check(infer), rt2.Check(infer)
		if a.Confirmed != b.Confirmed || a.Changed != b.Changed || a.Seq != b.Seq {
			t.Fatalf("round %d diverged after restore: %+v vs %+v", i, a, b)
		}
	}
	if rt.ExportState() != rt2.ExportState() {
		t.Fatalf("final states diverged:\n%+v\n%+v", rt.ExportState(), rt2.ExportState())
	}
}

func TestFingerprintDistinguishesCommissions(t *testing.T) {
	rt, _ := testRuntime(t, DefaultConfig())
	other := models.MLP(rng.New(77), 16, []int{12}, 5)
	patterns := &testgen.PatternSet{
		Name: "t", Method: "plain",
		X:      tensor.RandUniform(rng.New(2), 0, 1, 8, 16),
		Labels: make([]int, 8),
	}
	mon2 := monitor.MustNew(other, patterns, nil, monitor.DefaultConfig())
	if rt.Monitor().Fingerprint() == mon2.Fingerprint() {
		t.Fatal("different reference models hashed to the same fingerprint")
	}
}

func TestRestoreRejectsInvalidState(t *testing.T) {
	rt, _ := testRuntime(t, DefaultConfig())
	bad := []State{
		{Seq: -1},
		{Confirmed: monitor.Status(9)},
		{UpStreak: -2},
		{Rejects: 1, Panics: 2},
		{DownMax: monitor.Status(-1)},
	}
	for i, s := range bad {
		if err := rt.RestoreState(s); err == nil {
			t.Fatalf("invalid state %d accepted: %+v", i, s)
		}
	}
	if rt.Confirmed() != monitor.Healthy || rt.ExportState().Seq != 0 {
		t.Fatal("failed restore mutated the runtime")
	}
}

// TestProbe: a probe is one attempt — no retries, no hysteresis movement —
// and rejected probes are counted.
func TestProbe(t *testing.T) {
	rt, net := testRuntime(t, DefaultConfig())
	calls := 0
	poisoned := func(*tensor.Tensor) *tensor.Tensor { calls++; panic("probe: dead sensor") }
	if err := rt.Probe(poisoned); err == nil {
		t.Fatal("probe of a panicking sensor succeeded")
	}
	if calls != 1 {
		t.Fatalf("probe made %d attempts, want exactly 1 (no retries)", calls)
	}
	if rej, pan := rt.RejectedReadouts(); rej != 1 || pan != 1 {
		t.Fatalf("probe accounting: rejects=%d panics=%d", rej, pan)
	}
	if rt.ExportState().Seq != 0 {
		t.Fatal("probe advanced the round sequence")
	}
	if err := rt.Probe(monitor.NetworkInfer(net)); err != nil {
		t.Fatalf("healthy probe failed: %v", err)
	}
	if rt.Confirmed() != monitor.Healthy {
		t.Fatal("probe moved the confirmed status")
	}
}

// TestSuperviseBudgetZero: with no budget left, a confirmed-damaged round
// gives up immediately instead of attempting repairs.
func TestSuperviseBudgetZero(t *testing.T) {
	cfg := DefaultConfig()
	cfg.EscalateAfter = 1
	rt, net := testRuntime(t, cfg)
	rep := &stepRepairer{needs: repair.Action(99)}
	ep := rt.SuperviseBudget(shiftInfer(net, 0.2), rep, 0)
	if ep.Repaired() || len(rep.applied) != 0 {
		t.Fatalf("zero-budget episode ran repairs: attempts=%d applied=%d", len(ep.Attempts), len(rep.applied))
	}
	if !ep.GaveUp {
		t.Fatal("zero-budget episode on confirmed damage did not give up")
	}
	// a positive budget below MaxRepairAttempts caps the episode
	ep = rt.SuperviseBudget(shiftInfer(net, 0.2), rep, 1)
	if len(ep.Attempts) > 1 {
		t.Fatalf("budget 1 episode ran %d attempts", len(ep.Attempts))
	}
}

func TestConfigValidateBackoff(t *testing.T) {
	cfg := DefaultConfig()
	cfg.BackoffBase = 100 * time.Millisecond
	cfg.BackoffMax = 10 * time.Millisecond
	if err := cfg.Validate(); err == nil {
		t.Fatal("BackoffBase > BackoffMax accepted")
	}
}
