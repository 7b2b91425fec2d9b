package campaign

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// traceHash is the FNV-1a hash of a trace's %+v rendering: every round
// record, event outcome, fidelity bit and (for fleets) every device's final
// durable snapshot, including its journaled RepairDecision list.
func traceHash(v any) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%+v", v)
	return h.Sum64()
}

// TestRepairDispatchGolden freezes what the supervised repair loop does on
// the default plant: which rounds repair, recover or give up, what the
// repaired hardware scores afterwards, and which rungs each fleet device
// spent its lifetime budget on. Seeds 4–6 of the fleet run at a 2-unit
// lifetime budget and a 2-attempt episode cap, so budget exhaustion and
// retirement are pinned too. Any change to how repairs are dispatched must
// leave every constant here untouched.
func TestRepairDispatchGolden(t *testing.T) {
	wantRun := [20]uint64{
		0xbcf65631a106de7, 0x55cd41e96f884a31, 0x27d9eddcec8460ea, 0x7dd3cb41830c46e,
		0x48aca0fd4728dcfe, 0x56980e42e38c7b19, 0xaec19b366481d8f, 0x54f600372f5a0b1e,
		0x1ccd073d3fd0a4ab, 0x52e4185bb5506114, 0x2d40ce0e70194f5d, 0x70b9d5cbfcdce147,
		0x6a1cb372cfadc0be, 0x674f7f34410b9e1a, 0x8a5cbd73aee54330, 0xf02d690e2a00b40,
		0x74b0eb7ef7195cba, 0xd749378e5a5e2592, 0xb650e7848272dddc, 0x864366b567066262,
	}
	wantFleet := [6]uint64{
		0x21f90744d6e686ef, 0x37698b42cbb98746, 0xcf61996167b0f398,
		0x10c3060b979768c5, 0xc2cb4f7202c51733, 0x6ee04c89d0bb463f,
	}
	const wantRepairedRounds, wantRetired = 44, 11

	repaired := 0
	for i := range wantRun {
		seed := int64(i + 1)
		res, err := Run(seed, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		for _, rec := range res.Rounds {
			if rec.Repaired {
				repaired++
			}
		}
		if got := traceHash(res); got != wantRun[i] {
			t.Errorf("campaign seed %d: trace hash %#x, want %#x", seed, got, wantRun[i])
		}
	}

	retired, decisions := 0, 0
	for i := range wantFleet {
		seed := int64(i + 1)
		cfg := DefaultFleetSoakConfig()
		if seed >= 4 {
			cfg.Fleet.RepairBudget = 2
			cfg.Fleet.Health.MaxRepairAttempts = 2
		}
		res, err := RunFleet(seed, cfg)
		if err != nil {
			t.Fatal(err)
		}
		retired += res.Retired
		for _, snap := range res.FinalSnapshot {
			decisions += len(snap.Decisions)
		}
		if got := traceHash(res); got != wantFleet[i] {
			t.Errorf("fleet seed %d: trace hash %#x, want %#x", seed, got, wantFleet[i])
		}
	}

	if repaired != wantRepairedRounds || retired != wantRetired {
		t.Errorf("repaired rounds %d, retired devices %d; want %d, %d",
			repaired, retired, wantRepairedRounds, wantRetired)
	}
	if decisions == 0 {
		t.Error("no fleet device journaled a repair decision: the fixture pins nothing")
	}
}
