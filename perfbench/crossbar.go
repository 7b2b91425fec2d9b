package main

import (
	"context"
	"math"
	"time"

	"reramtest/internal/detect"
	"reramtest/internal/health"
	"reramtest/internal/monitor"
	"reramtest/internal/nn"
	"reramtest/internal/repair"
	"reramtest/internal/reram"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
	"reramtest/internal/testgen"
)

// The crossbar workload runs LeNet-5 on the device-level simulator: its
// dense layers on 128×128 crossbars behind 8-bit DACs and ADCs. Each round
// ages the device on the seeded schedule, runs one concurrent test through
// health.Runtime and, on a fixed schedule, repairs it with the public
// scrub and remap strategies.
const (
	xbarPatterns    = 2   // C-TP patterns per check (the simulator costs ≈13 ms per pattern)
	xbarGroup       = 100 // rounds per group: a p90 needs ≥ 10 samples beyond it
	xbarFixedRounds = 64  // simulated counts and status flips are read over this prefix
	xbarSeed        = 1   // programming noise of the simulated part
	scrubEvery      = 4
	remapEvery      = 16
	scrubTol        = 0.10 // as the repair ladder's default
	remapPerLine    = 2
)

// xbar is one commissioned simulated accelerator under its monitor.
type xbar struct {
	accel *reram.Accelerator
	ctr   *reram.Counter
	rt    *health.Runtime
	pats  *testgen.PatternSet
}

func commission(l *lenet) (*xbar, error) {
	pats := l.ctp.Head(xbarPatterns)
	mon, err := monitor.New(l.net, pats, nil, monitor.DefaultConfig())
	if err != nil {
		return nil, err
	}
	hcfg := health.DefaultConfig()
	hcfg.Sleep = func(time.Duration) {} // no readout is ever rejected; never wait
	rt, err := health.New(mon, hcfg)
	if err != nil {
		return nil, err
	}
	x := &xbar{accel: reram.NewAccelerator(l.net, reram.DefaultConfig(), xbarSeed), ctr: reram.NewCounter(), rt: rt, pats: pats}
	x.accel.SetCounter(x.ctr)
	rt.SetCostCounter(x.ctr)
	return x, nil
}

// round is what one monitoring round left for the checks.
type round struct {
	probs            *tensor.Tensor // the last readout the check scored
	allDist, topDist float64
	readoutOK        bool
}

// xbarWindow is one measured window over a freshly commissioned device.
type xbarWindow struct {
	gs     groupStats
	rounds []round
	// simulated totals over the first xbarFixedRounds rounds
	fixed       reram.Cost
	flips       int
	cellsWrites int
}

func runCrossbar(cfg runConfig) (*outcome, error) {
	tr := traceFor(cfg)
	var l *lenet
	x, times, err := repeatSetup(func() (*xbar, *lenet, error) {
		var err error
		if l, err = buildLeNet(false); err != nil {
			return nil, nil, err
		}
		x, err := commission(l)
		return x, l, err
	})
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.trace = tr
	plain, err := x.run(cfg, nil)
	if err != nil {
		return nil, err
	}
	o.endToEnd(times.total, plain.gs)
	last := plain
	if cfg.trace {
		// the traced window starts from the same commissioned state and the
		// same aging schedule, so its simulated counts repeat exactly
		if x, err = commission(l); err != nil {
			return nil, err
		}
		tr.enable()
		last, err = x.run(cfg, tr)
		tr.disable()
		if err != nil {
			return nil, err
		}
		tr.linkByID("reram.infer", "monitor.check")
		tr.linkByID("monitor.check", "bench.round")
		tr.linkByID("reram.write", "bench.round")
		o.layer("monitor.check_self_ms", "ms", tr.meanSelfMs("monitor.check"))
		o.layer("monitor.status_flips", "count", float64(last.flips))
		o.layer("reram.infer_ms", "ms", tr.meanMs("reram.infer"))
		o.layer("reram.write_ms", "ms", tr.meanMs("reram.write"))
		o.layer("reram.cells_rewritten", "count", float64(last.cellsWrites))
		n := float64(xbarFixedRounds)
		o.layer("hwcost.cycles_per_round", "count", float64(last.fixed.ComputeCycles)/n)
		o.layer("hwcost.adc_per_round", "count", float64(last.fixed.ADCConversions)/n)
		o.layer("hwcost.reads_per_round", "count", float64(last.fixed.CrossbarReads)/n)
		o.layer("hwcost.writes_per_round", "count", float64(last.fixed.CrossbarWrites)/n)
		o.layer("hwcost.energy_fj_per_round", "fJ", float64(last.fixed.EnergyFJ)/n)
		o.runtimeLayers(last.gs.whole, len(last.rounds))
		o.setupLayers(times)
		o.layer("bench.trace_overhead", "ratio", plain.gs.opsPerS/last.gs.opsPerS)
	}
	observeUs := checkRounds(o, l, x.pats, last.rounds)
	if cfg.trace {
		o.layer("detect.observe_us", "us", observeUs)
	}
	o.say("LeNet-5 test accuracy %.1f%%; %d rounds, %d status flips and %d cells rewritten in the first %d",
		100*l.acc, len(last.rounds), last.flips, last.cellsWrites, xbarFixedRounds)
	return o, nil
}

// run measures rounds for at least cfg.seconds and minGroups groups.
func (x *xbar) run(cfg runConfig, tr *tracer) (xbarWindow, error) {
	var (
		out xbarWindow
		lat []float64
	)
	r := rng.New(cfg.seed)
	ctx := context.Background()
	scrub := repair.NewScrub(x.accel, scrubTol)
	remap := repair.NewRemap(x.accel, remapPerLine, scrubTol)
	rec := newRecorder(xbarGroup)
	deadline := rec.start.wall.Add(cfg.seconds)
	for i := int64(1); time.Now().Before(deadline) || rec.groups() < minGroups; i++ {
		start := time.Now()
		rs := tr.now()

		// aging: hours of drift, and now and then soft errors or new stuck cells
		x.accel.AdvanceTime(20 + 40*r.Float64())
		if r.Float64() < 0.25 {
			x.accel.InjectSoftErrors(5e-4)
		}
		if r.Float64() < 0.04 {
			x.accel.InjectStuckAt(2e-4, 1e-4)
		}

		var last *tensor.Tensor
		infer := func(in *tensor.Tensor) *tensor.Tensor {
			s := tr.now()
			logits := x.accel.Infer(in)
			tr.addN("reram.infer", i, -1, s, 0, in.Dim(0))
			last = nn.Softmax(logits)
			return last
		}
		cs := tr.now()
		rd := x.rt.Check(infer)
		tr.add("monitor.check", i, -1, cs, 0)

		for _, rp := range []struct {
			every int64
			s     repair.Strategy
		}{{scrubEvery, scrub}, {remapEvery, remap}} {
			if i%rp.every != 0 {
				continue
			}
			ws := tr.now()
			prev := x.ctr.SetClass(reram.ClassRepair)
			rep, err := rp.s.Apply(ctx, repair.Diagnosis{})
			x.ctr.SetClass(prev)
			tr.addN("reram.write", i, -1, ws, 0, rep.Cells)
			if err == nil && i <= xbarFixedRounds {
				out.cellsWrites += rep.Cells
			}
		}
		lat = append(lat, ms(time.Since(start)))
		rec.done(i)
		tr.add("bench.round", i, -1, rs, 0)
		out.rounds = append(out.rounds, round{probs: last, allDist: rd.Report.AllDist,
			topDist: rd.Report.TopDist, readoutOK: rd.ReadoutOK})
		if i == xbarFixedRounds {
			out.fixed = x.ctr.Snapshot().Total()
			out.flips = x.rt.StatusFlips()
		}
	}
	var err error
	out.gs, err = rec.stats(lat, 0.90)
	return out, err
}

// checkRounds verifies, outside the timed window, that every round's
// distances equal a direct Golden.ObserveProbs on the same readout. It
// returns the mean ObserveProbs time in µs.
func checkRounds(o *outcome, l *lenet, pats *testgen.PatternSet, rounds []round) float64 {
	golden := detect.Capture(l.net, pats)
	var spent time.Duration
	for i, rd := range rounds {
		o.attempted++
		if !rd.readoutOK || rd.probs == nil {
			o.failed++
			o.fail("round %d: readout rejected", i+1)
			continue
		}
		t := time.Now()
		obs := golden.ObserveProbs(rd.probs)
		spent += time.Since(t)
		if math.Float64bits(obs.AllDist) != math.Float64bits(rd.allDist) ||
			math.Float64bits(obs.TopDist) != math.Float64bits(rd.topDist) {
			o.failed++
			o.fail("round %d: monitor distances (%v, %v) differ from ObserveProbs (%v, %v)",
				i+1, rd.allDist, rd.topDist, obs.AllDist, obs.TopDist)
		}
	}
	if len(rounds) == 0 {
		return 0
	}
	return 1e6 * spent.Seconds() / float64(len(rounds))
}
