package main

import (
	"time"

	"reramtest/internal/nn"
	"reramtest/internal/tensor"
)

// nnReps bounds how long each operator replay runs: enough calls for a
// stable mean, few enough that the replay stays a small part of a run.
const nnReps = 40

// nnLayers replays the trained LeNet-5 forward pass operator by operator
// through each layer's public ForwardBatchRange, at batch 1 (the serving
// case) and batch ctpM (the pattern case), and reports each operator's mean
// time per call. Its MFLOP and KiB per sample are computed from the layer
// shapes, not measured: a multiply-add counts two FLOPs, an activation or
// max comparison one, and bytes are float64 inputs, outputs and parameters.
func nnLayers(o *outcome, l *lenet) {
	x1 := tensor.FromSlice(append([]float64(nil), l.test.X.Data()[:l.test.SampleDim()]...), 1, l.test.SampleDim())
	xb := l.ctp.X
	shape := []int{l.test.C, l.test.H, l.test.W}
	for _, layer := range l.net.Layers() {
		shape = layer.OutputShape(shape)
		bi, ok := layer.(nn.BatchInfer)
		if !ok {
			continue // Flatten: the engine elides it
		}
		inVol, outVol := x1.Dim(1), volume(shape)
		scratch := make([]float64, bi.InferScratch())
		y1 := tensor.New(1, outVol)
		yb := tensor.New(xb.Dim(0), outVol)
		name := "nn." + layer.Name()
		o.layer(name+".b1_us", "us", 1e6*timeCalls(func() { bi.ForwardBatchRange(y1, x1, 0, 1, scratch) }).Seconds())
		o.layer(name+".b50_us", "us", 1e6*timeCalls(func() { bi.ForwardBatchRange(yb, xb, 0, xb.Dim(0), scratch) }).Seconds())
		flops, params := opCost(layer, inVol, outVol)
		o.layer(name+".mflop", "MFLOP", flops/1e6)
		o.layer(name+".kbytes", "KiB", 8*float64(inVol+outVol+params)/1024)
		x1, xb = y1, yb
	}
}

// timeCalls returns the mean duration of nnReps calls of f after one warm-up
// call.
func timeCalls(f func()) time.Duration {
	f()
	start := time.Now()
	for i := 0; i < nnReps; i++ {
		f()
	}
	return time.Since(start) / nnReps
}

// opCost computes one sample's FLOPs and parameter count for a layer.
func opCost(layer nn.Layer, inVol, outVol int) (flops float64, params int) {
	for _, p := range layer.Params() {
		params += p.Value.Len()
	}
	switch l := layer.(type) {
	case *nn.Conv2D:
		g := l.Geom()
		return 2 * float64(outVol*g.InC*g.KH*g.KW), params
	case *nn.Dense:
		return 2 * float64(l.In()*l.Out()), params
	case *nn.MaxPool2D:
		// non-overlapping windows: every input is compared once
		return float64(inVol), params
	default:
		return float64(outVol), params
	}
}

func volume(shape []int) int {
	v := 1
	for _, d := range shape {
		v *= d
	}
	return v
}
