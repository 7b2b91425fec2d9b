package reram

import (
	"hash"
	"hash/fnv"
	"math"
	"testing"

	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// goldenRun is what TestAnalogPathGolden pins for one accelerator: a hash of
// every Infer output bit, a hash of every RefreshReadout weight, and the
// exact per-class cost ledger, plus the repair tallies that show the
// remap and scrub paths really ran.
type goldenRun struct {
	infer, readout                 uint64
	rewritten, remapped, corrected int
	ledger                         CostBreakdown
}

// hashFloats folds the IEEE bits of every value into h.
func hashFloats(h hash.Hash64, xs []float64) {
	var b [8]byte
	for _, v := range xs {
		u := math.Float64bits(v)
		for k := range b {
			b[k] = byte(u >> (8 * k))
		}
		h.Write(b[:])
	}
}

// agedRun ages accel over several rounds of drift, soft-error showers,
// field stuck-at injection, scrub and remap, and runs the analog path and a
// weight readout after every round.
func agedRun(accel *Accelerator, x *tensor.Tensor, rounds int) goldenRun {
	hi, hr := fnv.New64a(), fnv.New64a()
	var run goldenRun
	ctr := accel.Counter()
	for round := 0; round < rounds; round++ {
		accel.AdvanceTime(30)
		accel.InjectSoftErrors(2e-3)
		accel.InjectStuckAt(1e-3, 5e-4)

		prev := ctr.SetClass(ClassMonitor)
		hashFloats(hi, accel.Infer(x).Data())
		ctr.SetClass(ClassRepair)
		_, w := accel.ScrubSoftErrors(0.05)
		m, c, _ := accel.RemapStuck(2, 0.05)
		run.rewritten += w
		run.remapped += m
		run.corrected += c
		ctr.SetClass(prev)

		hashFloats(hi, accel.Infer(x).Data())
		for _, p := range accel.RefreshReadout().Params() {
			hashFloats(hr, p.Value.Data())
		}
	}
	run.infer, run.readout, run.ledger = hi.Sum64(), hr.Sum64(), ctr.Snapshot()
	return run
}

// goldenDevice is a noisy, fault-prone part: programming variation, both
// fabrication stuck-at polarities at rates sa0 and sa0/2, spare word-lines
// for the remap tier.
func goldenDevice(sa0 float64) DeviceParams {
	dev := DefaultDeviceParams()
	dev.ProgramSigma = 0.05
	dev.SA0Rate, dev.SA1Rate = sa0, sa0/2
	dev.SoftErrorRate = 1e-4
	dev.SpareRows = 2
	return dev
}

// TestAnalogPathGolden freezes the analog path's observable behaviour —
// output bits, readout weights and hardware cost counts — on a fixed-seed
// LeNet-5 on the default 128×128 organisation and on a ragged MLP whose
// dimensions straddle several 16×16 tiles. Any change to the crossbar,
// converter or tiling loops must leave every constant here untouched.
func TestAnalogPathGolden(t *testing.T) {
	cases := []struct {
		name  string
		net   func() *nn.Network
		cfg   Config
		batch int
		want  goldenRun
	}{
		{
			name:  "lenet5-128",
			net:   func() *nn.Network { return models.LeNet5(rng.New(501)) },
			cfg:   Config{TileRows: 128, TileCols: 128, DACBits: 8, ADCBits: 8, Device: goldenDevice(2e-3)},
			batch: 2,
			want: goldenRun{
				infer: 0xf6c9e2158a9da694, readout: 0x218eeb5ce4a51f57,
				rewritten: 29293, remapped: 32, corrected: 829,
				ledger: CostBreakdown{
					Serving: Cost{ComputeCycles: 7920, DACConversions: 281632, ADCConversions: 2027520, CrossbarReads: 54856688, CrossbarWrites: 0, EnergyFJ: 88423536, BufferBytes: 4637248},
					Monitor: Cost{ComputeCycles: 7920, DACConversions: 281632, ADCConversions: 2027520, CrossbarReads: 54758144, CrossbarWrites: 0, EnergyFJ: 88324992, BufferBytes: 2670208},
					Repair:  Cost{ComputeCycles: 0, DACConversions: 0, ADCConversions: 0, CrossbarReads: 1172056, CrossbarWrites: 35047, EnergyFJ: 1452432, BufferBytes: 0},
				},
			},
		},
		{
			name:  "mlp-ragged-16",
			net:   func() *nn.Network { return models.MLP(rng.New(502), 37, []int{23}, 19) },
			cfg:   Config{TileRows: 16, TileCols: 16, DACBits: 6, ADCBits: 7, Device: goldenDevice(2e-2)},
			batch: 5,
			want: goldenRun{
				infer: 0x1374f14c27ca2f06, readout: 0xd1340b4a131541,
				rewritten: 907, remapped: 6, corrected: 50,
				ledger: CostBreakdown{
					Serving: Cost{ComputeCycles: 200, DACConversions: 1200, ADCConversions: 6400, CrossbarReads: 65728, CrossbarWrites: 0, EnergyFJ: 172928, BufferBytes: 57536},
					Monitor: Cost{ComputeCycles: 200, DACConversions: 1200, ADCConversions: 6400, CrossbarReads: 55232, CrossbarWrites: 0, EnergyFJ: 162432, BufferBytes: 16320},
					Repair:  Cost{ComputeCycles: 0, DACConversions: 0, ADCConversions: 0, CrossbarReads: 19824, CrossbarWrites: 1103, EnergyFJ: 28648, BufferBytes: 0},
				},
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			net := tc.net()
			accel := NewAccelerator(net, tc.cfg, 503)
			r := rng.New(504)
			x := tensor.New(tc.batch, net.InDim())
			xd := x.Data()
			for i := range xd {
				if r.Intn(5) != 0 { // exact zeros idle their word-lines
					xd[i] = r.Float64()
				}
			}
			got := agedRun(accel, x, 4)
			if got != tc.want {
				t.Fatalf("analog path moved:\n got  %#v\n want %#v", got, tc.want)
			}
		})
	}
}
