package serve_test

import (
	"context"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"reramtest/internal/campaign"
	"reramtest/internal/fleet"
	"reramtest/internal/health"
	"reramtest/internal/journal"
	"reramtest/internal/repair"
	"reramtest/internal/serve"
)

// ladderPlant is a campaign plant with the scrub → remap → retrain ladder,
// served as a fleet device. Each rung's Apply probes the station the device
// sits behind: a readout started during the repair must not get through
// before the rung returns.
type ladderPlant struct {
	*campaign.Plant
	id      string
	station *serve.Station // the station this device is served behind
	t       *testing.T
	applied int
	probes  sync.WaitGroup // probe readouts still waiting on the station
}

func (d *ladderPlant) ID() string                { return d.id }
func (d *ladderPlant) Repairer() health.Repairer { return d }

func (d *ladderPlant) Strategies() []repair.Strategy {
	rungs := d.Plant.Strategies()
	out := make([]repair.Strategy, len(rungs))
	for i, s := range rungs {
		out[i] = repair.Func{
			StrategyName: s.Name(), StrategyCost: s.Cost(), When: s.Applicable,
			Do: func(ctx context.Context, dg repair.Diagnosis) (repair.Report, error) {
				d.applied++
				probed := make(chan struct{})
				d.probes.Add(1)
				go func() {
					defer d.probes.Done()
					defer close(probed)
					d.station.Infer()(d.Patterns().X)
				}()
				select {
				case <-probed:
					d.t.Errorf("rung %s: a station readout ran during the repair", s.Name())
				case <-time.After(20 * time.Millisecond):
				}
				return s.Apply(ctx, dg)
			},
		}
	}
	return out
}

// TestServedLadderRepairsThroughStation: a device served behind a Station
// keeps its strategy ladder — a station that exposed only fixed actions
// would silently repair every served device off the ladder. The fleet's
// journaled decisions must name ladder rungs only, and every rung must run
// under the station lock.
func TestServedLadderRepairsThroughStation(t *testing.T) {
	pcfg := campaign.DefaultPlantConfig()
	pcfg.Ladder = true
	dev := &ladderPlant{Plant: campaign.NewPlant(3, pcfg), id: "ladder-0", t: t}
	dev.station = serve.NewStation(dev)

	fcfg := fleet.DefaultConfig()
	fcfg.Health = campaign.DefaultConfig().Health
	fcfg.RepairBudget = 40
	path := filepath.Join(t.TempDir(), "fleet.wal")
	jw, err := journal.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New([]fleet.Device{dev.station}, fcfg, serve.Config{}, jw)
	if err != nil {
		t.Fatal(err)
	}

	tick := func(rounds int) {
		for r := 0; r < rounds; r++ {
			if _, err := s.Tick(); err != nil {
				t.Fatal(err)
			}
		}
	}
	tick(2)
	dev.Accelerator().AdvanceTime(1200) // drift: the scrub rung's fault class
	tick(6)
	dev.Accelerator().InjectStuckAt(0.03, 0.015) // stuck-at: remap and retrain
	tick(6)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	dev.probes.Wait()
	if err := jw.Close(); err != nil {
		t.Fatal(err)
	}

	payloads, _, err := journal.Replay(path)
	if err != nil {
		t.Fatal(err)
	}
	snaps, _, err := fleet.ReplayRecords(payloads)
	if err != nil {
		t.Fatal(err)
	}
	decisions := snaps[dev.id].Decisions
	if len(decisions) == 0 {
		t.Fatal("no repair decision journaled: the damage never reached the repairer")
	}
	t.Logf("journaled decisions: %+v", decisions)
	seen := map[string]bool{}
	for _, d := range decisions {
		switch d.Strategy {
		case "scrub", "remap", "retrain":
			seen[d.Strategy] = true
		default:
			t.Errorf("decision %+v: not a ladder rung", d)
		}
	}
	if !seen["scrub"] && !seen["remap"] {
		t.Errorf("decisions %+v: no scrub or remap rung ran", decisions)
	}
	if dev.applied != len(decisions) {
		t.Errorf("%d rung applications, %d journaled decisions", dev.applied, len(decisions))
	}
}
