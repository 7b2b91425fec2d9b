package main

import (
	"math"
	"time"

	"reramtest/internal/detect"
	"reramtest/internal/engine"
	"reramtest/internal/faults"
	"reramtest/internal/nn"
)

// The fault sweep is the paper's evaluation loop on LeNet-5: fault models
// built with faults.MakeFaulty over the programming-error grid, each scored
// with detect.Golden.Observe against the C-TP and the O-TP patterns.
const (
	sweepPerSigma = 10                          // models per σ behind the detection rates
	sweepFixed    = sweepPerSigma * len(sigmas) // the detection rates' fixed prefix
	sweepGroup    = 100                         // models per group: a p90 needs ≥ 10 samples beyond it
	engineReplays = 20                          // pattern-batch engine calls timed after the window
)

// sigmas is the paper's LeNet-5 programming-error grid (Table I).
var sigmas = [...]float64{0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35, 0.40, 0.45, 0.50}

// sweepModel is fault model i of a sweep: its σ and seed follow from the
// workload seed and i alone.
func sweepModel(net *nn.Network, seed int64, i int) *nn.Network {
	return faults.MakeFaulty(net, faults.LogNormal{Sigma: sigmas[i%len(sigmas)]}, seed*1_000_003+int64(i))
}

// sweeper holds the golden references the sweep scores against.
type sweeper struct {
	l        *lenet
	ctp, otp *detect.Golden
}

// scored is one fault model's observations.
type scored struct{ ctp, otp detect.Observation }

func runSweep(cfg runConfig) (*outcome, error) {
	tr := traceFor(cfg)
	sw, times, err := repeatSetup(func() (*sweeper, *lenet, error) {
		l, err := buildLeNet(true)
		if err != nil {
			return nil, nil, err
		}
		return &sweeper{l: l, ctp: detect.Capture(l.net, l.ctp), otp: detect.Capture(l.net, l.otp)}, l, nil
	})
	if err != nil {
		return nil, err
	}
	o := newOutcome()
	o.trace = tr
	plain, gs, err := sw.run(cfg, nil)
	if err != nil {
		return nil, err
	}
	o.endToEnd(times.total, gs)
	last := plain
	if cfg.trace {
		tr.enable()
		var tgs groupStats
		last, tgs, err = sw.run(cfg, tr)
		tr.disable()
		if err != nil {
			return nil, err
		}
		o.layer("faults.make_ms", "ms", tr.meanMs("faults.make"))
		o.layer("detect.observe_us", "us", 1e3*tr.meanMs("detect.observe"))
		o.layer("engine.rows", "count", float64(len(last)*(sw.l.ctp.M()+sw.l.otp.M())))
		o.layer("engine.patterns_ms", "ms", sw.enginePatterns(cfg.seed))
		o.layer("testgen.otp_s", "s", median(times.otp))
		o.layer("testgen.otp_iters", "count", float64(sw.l.otpIters))
		o.runtimeLayers(tgs.whole, len(last))
		o.setupLayers(times)
		nnLayers(o, sw.l)
		o.layer("bench.trace_overhead", "ratio", gs.opsPerS/tgs.opsPerS)
	}
	rc, ro := detectRates(last[:sweepFixed])
	if cfg.trace {
		o.layer("detect.rate_ctp", "ratio", rc)
		o.layer("detect.rate_otp", "ratio", ro)
	}
	sw.check(o, cfg.seed, last[:sweepFixed])
	o.say("LeNet-5 test accuracy %.1f%%; O-TP ran %d iterations; SDC-A3%% detection over the σ grid: C-TP %.3f, O-TP %.3f",
		100*sw.l.acc, sw.l.otpIters, rc, ro)
	return o, nil
}

// run scores fault models 0, 1, 2, … for at least cfg.seconds and
// minGroups groups, returning their observations.
func (sw *sweeper) run(cfg runConfig, tr *tracer) ([]scored, groupStats, error) {
	var (
		out []scored
		lat []float64
	)
	rec := newRecorder(sweepGroup)
	deadline := rec.start.wall.Add(cfg.seconds)
	for i := 0; time.Now().Before(deadline) || rec.groups() < minGroups; i++ {
		start := time.Now()
		s := tr.now()
		fm := sweepModel(sw.l.net, cfg.seed, i)
		tr.add("faults.make", int64(i), -1, s, 0)
		s = tr.now()
		oc := sw.ctp.Observe(fm)
		tr.add("detect.observe", int64(i), -1, s, 0)
		s = tr.now()
		oo := sw.otp.Observe(fm)
		tr.add("detect.observe", int64(i), -1, s, 0)
		out = append(out, scored{oc, oo})
		lat = append(lat, ms(time.Since(start)))
		rec.done(int64(i + 1))
	}
	gs, err := rec.stats(lat, 0.90)
	return out, gs, err
}

// detectRates is the SDC-A3% detection rate per σ, averaged over the grid,
// for each pattern set (the paper's Table III entry).
func detectRates(obs []scored) (ctp, otp float64) {
	var hitC, hitO [len(sigmas)]int
	for i, s := range obs {
		if s.ctp.Detect(detect.SDCA3) {
			hitC[i%len(sigmas)]++
		}
		if s.otp.Detect(detect.SDCA3) {
			hitO[i%len(sigmas)]++
		}
	}
	per := float64(len(obs) / len(sigmas))
	for k := range sigmas {
		ctp += float64(hitC[k]) / per
		otp += float64(hitO[k]) / per
	}
	return ctp / float64(len(sigmas)), otp / float64(len(sigmas))
}

// enginePatterns times the engine alone at pattern batch: Rebind onto a
// fault model, then Probs over the C-TP set, as Observe does inside.
func (sw *sweeper) enginePatterns(seed int64) float64 {
	eng := engine.MustCompile(sw.l.net.Clone(), engine.Options{})
	var spent time.Duration
	for i := 0; i < engineReplays; i++ {
		fm := sweepModel(sw.l.net, seed, i)
		t := time.Now()
		if err := eng.Rebind(fm); err != nil {
			return 0
		}
		eng.Probs(sw.l.ctp.X)
		spent += time.Since(t)
	}
	return ms(spent) / engineReplays
}

// check recomputes the fixed prefix serially, outside the timed window:
// each fault model rebuilt from its seed, its confidences taken from the
// training-path nn.Forward (no engine, no cached plan), scored by fresh
// golden references. Every observation must match the sweep's bit for bit.
func (sw *sweeper) check(o *outcome, seed int64, obs []scored) {
	gc, gotp := detect.Capture(sw.l.net, sw.l.ctp), detect.Capture(sw.l.net, sw.l.otp)
	for i, s := range obs {
		o.attempted++
		fm := sweepModel(sw.l.net, seed, i)
		c := gc.ObserveProbs(nn.Softmax(fm.Forward(sw.l.ctp.X)))
		p := gotp.ObserveProbs(nn.Softmax(fm.Forward(sw.l.otp.X)))
		if !sameObs(c, s.ctp) || !sameObs(p, s.otp) {
			o.failed++
			o.fail("fault model %d: sweep observation differs from the serial recomputation", i)
		}
	}
}

// sameObs compares two observations bit for bit.
func sameObs(a, b detect.Observation) bool {
	eq := func(x, y []float64) bool {
		if len(x) != len(y) {
			return false
		}
		for i := range x {
			if math.Float64bits(x[i]) != math.Float64bits(y[i]) {
				return false
			}
		}
		return true
	}
	return math.Float64bits(a.TopDist) == math.Float64bits(b.TopDist) &&
		math.Float64bits(a.AllDist) == math.Float64bits(b.AllDist) &&
		a.Top1Changes == b.Top1Changes && a.Top5Changes == b.Top5Changes && a.NonFinite == b.NonFinite &&
		eq(a.PerPatternTop, b.PerPatternTop) && eq(a.PerPatternAll, b.PerPatternAll)
}
