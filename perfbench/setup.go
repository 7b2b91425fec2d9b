package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"runtime"
	"time"

	"reramtest/internal/dataset"
	"reramtest/internal/faults"
	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/testgen"
)

// Set-up is the same for every workload seed: the model is part of the
// system under test, the workload seed only shapes the traffic and the
// faults. Nothing is read from testdata/; every run trains from scratch.
const (
	seedDigitsTrain = 1001
	seedDigitsTest  = 1002
	seedLeNetInit   = 3001
	seedOTPRef      = 4001
	seedOTPNoise    = 4002

	trainN   = 2000 // one epoch over these, batch 32
	testN    = 1000 // held-out split: accuracy, C-TP pool and request rows
	ctpM     = 50   // the paper's C-TP set size
	otpIters = 150  // O-TP optimisation budget (the library default is 600)
	otpSigma = 0.3  // programming error of the O-TP reference fault model

	minAccuracy = 0.90 // a trained LeNet-5 below this is a set-up failure

	// setup_s is the median over repeated set-ups: at least setupReps, and
	// more while they have taken under setupSpan, so a set-up of a few
	// milliseconds is still sampled enough to give a steady median.
	setupReps    = 3
	setupSpan    = time.Second
	setupMaxReps = 100
)

// lenet is one trained LeNet-5 with the test patterns selected for it.
type lenet struct {
	train, test *dataset.Dataset
	net         *nn.Network
	acc         float64
	ctp, otp    *testgen.PatternSet
	otpIters    int

	synth, training, ctpTime, otpTime time.Duration
}

// buildLeNet synthesises the digit datasets, trains LeNet-5 on a fixed
// one-epoch schedule and selects the C-TP patterns; withOTP also synthesises
// the O-TP patterns.
func buildLeNet(withOTP bool) (*lenet, error) {
	l := &lenet{}
	t := time.Now()
	l.train = dataset.SynthDigits(seedDigitsTrain, dataset.DefaultDigitsConfig(trainN))
	l.test = dataset.SynthDigits(seedDigitsTest, dataset.DefaultDigitsConfig(testN))
	l.synth = time.Since(t)

	t = time.Now()
	l.net = models.LeNet5(rng.New(seedLeNetInit))
	cfg := models.DefaultTrainConfig()
	cfg.Epochs = 1
	cfg.LR = 0.01
	l.acc = models.Train(l.net, l.train, l.test, cfg)
	l.training = time.Since(t)
	if l.acc < minAccuracy {
		return nil, fmt.Errorf("set-up: LeNet-5 reached %.1f%% test accuracy, want ≥ %.0f%%", 100*l.acc, 100*minAccuracy)
	}

	t = time.Now()
	l.ctp = testgen.SelectCTP(l.net, l.test, ctpM)
	l.ctpTime = time.Since(t)

	if withOTP {
		t = time.Now()
		ref := faults.MakeFaulty(l.net, faults.LogNormal{Sigma: otpSigma}, seedOTPRef)
		ocfg := testgen.DefaultOTPConfig()
		ocfg.MaxIters = otpIters
		var res testgen.OTPResult
		l.otp, res = testgen.GenerateOTP(l.net, ref, l.test.Classes, ocfg, rng.New(seedOTPNoise))
		l.otpIters = res.Iters
		l.otpTime = time.Since(t)
	}
	return l, nil
}

// fingerprint hashes the trained weights and the selected patterns, so
// repeated set-ups can be checked to be bit-identical.
func (l *lenet) fingerprint() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(xs []float64) {
		for _, v := range xs {
			binary.LittleEndian.PutUint64(b[:], math.Float64bits(v))
			h.Write(b[:])
		}
	}
	for _, p := range l.net.Params() {
		put(p.Value.Data())
	}
	put(l.ctp.X.Data())
	if l.otp != nil {
		put(l.otp.X.Data())
	}
	return h.Sum64()
}

// setupTimes collects the durations of repeated set-ups.
type setupTimes struct {
	total, synth, training, ctp, otp []float64 // seconds
}

func (s *setupTimes) addLeNet(l *lenet) {
	s.synth = append(s.synth, l.synth.Seconds())
	s.training = append(s.training, l.training.Seconds())
	s.ctp = append(s.ctp, l.ctpTime.Seconds())
	s.otp = append(s.otp, l.otpTime.Seconds())
}

// repeatSetup runs build repeatedly (see setupReps), timing each whole run,
// and returns the last result; earlier results that hold resources
// (io.Closer) are closed. Every LeNet-5 set-up must reproduce the first one bit for bit;
// build reports its lenet (nil for workloads without one) so that can be
// checked.
func repeatSetup[T any](build func() (T, *lenet, error)) (T, setupTimes, error) {
	var (
		out   T
		times setupTimes
		first uint64
	)
	begin := time.Now()
	for i := 0; i < setupReps || (time.Since(begin) < setupSpan && i < setupMaxReps); i++ {
		t := time.Now()
		v, l, err := build()
		if err != nil {
			return out, times, err
		}
		times.total = append(times.total, time.Since(t).Seconds())
		runtime.GC() // drop the previous set-up before the next, so peak RSS does not depend on GC timing
		if l != nil {
			times.addLeNet(l)
			fp := l.fingerprint()
			if i == 0 {
				first = fp
			} else if fp != first {
				return out, times, fmt.Errorf("set-up %d trained a different LeNet-5 than set-up 1", i+1)
			}
		}
		if c, ok := any(out).(io.Closer); ok && i > 0 {
			if err := c.Close(); err != nil {
				return v, times, fmt.Errorf("close set-up %d: %w", i, err)
			}
		}
		out = v
	}
	return out, times, nil
}
