package engine

import (
	"errors"
	"math"
	"strings"
	"testing"

	"reramtest/internal/models"
	"reramtest/internal/nn"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// f32ULPBound is the documented F32-tier acceptance envelope, in row-scaled
// float32 ULPs: for every logit, |f32 − f64| ≤ bound · 2⁻²⁴ · max|row|.
// The row scale makes the bound meaningful for outputs produced by
// cancellation, where a raw ULP distance explodes on correct kernels.
// Forward error through an L-layer stack is O(Σ kᵢ) ULPs; the deepest seed
// model sums ~350 inner elements, so 1024 leaves honest headroom while still
// catching any real defect (a transposed weight, a dropped bias, a stale
// cache are all millions of scaled ULPs out).
const f32ULPBound = 1024

// maxScaledULP measures the largest per-row scaled-ULP error of got versus
// the f64 reference want, both (n, k) tensors.
func maxScaledULP(got, want *tensor.Tensor) float64 {
	n, k := want.Dim(0), want.Dim(1)
	gd, wd := got.Data(), want.Data()
	worst := 0.0
	for i := 0; i < n; i++ {
		scale := 1e-12
		for j := 0; j < k; j++ {
			if a := math.Abs(wd[i*k+j]); a > scale {
				scale = a
			}
		}
		for j := 0; j < k; j++ {
			e := math.Abs(gd[i*k+j]-wd[i*k+j]) / (0x1p-24 * scale)
			if e > worst {
				worst = e
			}
		}
	}
	return worst
}

// TestEngineF32WithinULPOfReference runs every seed model on the F32 tier
// and gates each batch against the documented scaled-ULP envelope of the F64
// reference arm; pooled and serial F32 plans must agree bit-for-bit (rows
// are partition-independent).
func TestEngineF32WithinULPOfReference(t *testing.T) {
	pool := tensor.NewPool(4)
	defer pool.Close()
	for _, m := range seedModels() {
		m := m
		t.Run(m.name, func(t *testing.T) {
			net := m.build(rng.New(11))
			ref := MustCompile(net, Options{Workers: 1})
			serial := MustCompile(net, Options{Workers: 1, Precision: tensor.F32})
			pooled := MustCompile(net, Options{Pool: pool, Precision: tensor.F32})
			if serial.Precision() != tensor.F32 {
				t.Fatal("Precision() does not report the compiled tier")
			}
			for _, n := range []int{1, 3, 7} {
				x := tensor.RandUniform(rng.New(int64(300+n)), 0, 1, n, net.InDim())
				want := mustForward(t, ref, nil, x)
				got := mustForward(t, serial, nil, x)
				if ulp := maxScaledULP(got, want); ulp > f32ULPBound {
					t.Fatalf("n=%d: f32 tier is %.0f scaled ULPs from the reference, bound %d", n, ulp, f32ULPBound)
				}
				pgot := mustForward(t, pooled, nil, x)
				if !pgot.Equal(got) {
					t.Fatalf("n=%d: pooled f32 differs from serial f32", n)
				}
			}
		})
	}
}

// i8Oracle is the model-level quantize-then-f64 oracle: dense layers
// quantize activations and weights with the SAME tensor helpers the engine
// uses, run the integer matmul through the f64 reference kernel (exact — the
// values are integers far below 2⁵³), and dequantize through the SAME shared
// expression; every other layer runs its ordinary f64 forward. The I8 tier
// must match this bitwise.
func i8Oracle(net *nn.Network, x *tensor.Tensor) *tensor.Tensor {
	cur := x
	for _, l := range net.Layers() {
		d, isDense := l.(*nn.Dense)
		if !isDense {
			cur = l.Forward(cur)
			continue
		}
		n := cur.Dim(0)
		in, out := d.In(), d.Out()
		wqT := make([]int8, in*out)
		sw := make([]float64, out)
		rowSum := make([]int32, out)
		tensor.QuantizeWeightsI8(wqT, sw, rowSum, d.Params()[0].Value.Data(), in, out)
		bias := d.Params()[1].Value.Data()
		// integer matmul in f64: xq64 (n×in) · wq64 (in×out), exact
		xq := make([]int8, in)
		xq64 := make([]float64, n*in)
		rqs := make([]tensor.RowQuantI8, n)
		cd := cur.Data()
		for i := 0; i < n; i++ {
			rqs[i] = tensor.QuantizeRowI8(xq, cd[i*in:(i+1)*in])
			for k, q := range xq {
				xq64[i*in+k] = float64(q)
			}
		}
		wq64 := make([]float64, in*out)
		for j := 0; j < out; j++ {
			for k := 0; k < in; k++ {
				wq64[k*out+j] = float64(wqT[j*in+k])
			}
		}
		acc64 := make([]float64, n*out)
		tensor.MatMulSlices(acc64, xq64, wq64, n, in, out)
		y := tensor.New(n, out)
		yd := y.Data()
		for i := 0; i < n; i++ {
			for j := 0; j < out; j++ {
				yd[i*out+j] = tensor.DequantI8(int32(acc64[i*out+j]), rqs[i], sw[j], bias[j], rowSum[j])
			}
		}
		cur = y
	}
	return cur
}

// TestEngineI8ExactVsQuantOracle: the quantized tier must equal the
// quantize-then-f64 oracle bit for bit — the int8 kernels change the
// arithmetic domain, not the arithmetic — for dense stacks including mixed
// stacks with non-dense stages, serial and pooled.
func TestEngineI8ExactVsQuantOracle(t *testing.T) {
	pool := tensor.NewPool(4)
	defer pool.Close()
	nets := []struct {
		name  string
		build func(r *rng.RNG) *nn.Network
	}{
		{"mlp", func(r *rng.RNG) *nn.Network { return models.MLP(r, 16, []int{24, 16}, 6) }},
		{"mlp-deep", func(r *rng.RNG) *nn.Network { return models.MLP(r, 32, []int{40, 32, 20}, 8) }},
		{"tanh-sigmoid", func(r *rng.RNG) *nn.Network {
			return nn.NewNetwork("ts", 12,
				nn.NewDense("fc1", r, 12, 20), nn.NewTanh("t1"),
				nn.NewDense("fc2", r, 20, 10), nn.NewSigmoid("s1"),
				nn.NewDense("fc3", r, 10, 4),
			)
		}},
	}
	for _, m := range nets {
		m := m
		t.Run(m.name, func(t *testing.T) {
			net := m.build(rng.New(17))
			serial := MustCompile(net, Options{Workers: 1, Precision: tensor.I8})
			pooled := MustCompile(net, Options{Pool: pool, Precision: tensor.I8})
			for _, n := range []int{1, 5, 9} {
				x := tensor.RandUniform(rng.New(int64(400+n)), -1, 1, n, net.InDim())
				want := i8Oracle(m.build(rng.New(17)), x)
				got := mustForward(t, serial, nil, x)
				if !got.Equal(want) {
					t.Fatalf("n=%d: i8 tier differs from the quantize-then-f64 oracle", n)
				}
				if !mustForward(t, pooled, nil, x).Equal(want) {
					t.Fatalf("n=%d: pooled i8 differs from the oracle", n)
				}
			}
		})
	}
}

// TestForwardBatchEmptyBatch: the N=0 regression for the typed sentinel —
// both the reference tier and the fast tiers must refuse an empty batch with
// ErrEmptyBatch instead of silently producing an empty readout.
func TestForwardBatchEmptyBatch(t *testing.T) {
	net := models.MLP(rng.New(5), 16, []int{24, 16}, 6)
	empty := tensor.New(0, 16)
	for _, prec := range []tensor.Precision{tensor.F64, tensor.F32, tensor.I8} {
		eng := MustCompile(net, Options{Workers: 1, Precision: prec})
		out, err := eng.ForwardBatch(nil, empty)
		if !errors.Is(err, ErrEmptyBatch) {
			t.Fatalf("%v: ForwardBatch(empty) err = %v, want ErrEmptyBatch", prec, err)
		}
		if out != nil {
			t.Fatalf("%v: ForwardBatch(empty) returned a tensor alongside the error", prec)
		}
		if got := eng.Predict(empty); len(got) != 0 {
			t.Fatalf("%v: Predict(empty) = %v, want none", prec, got)
		}
	}
}

// TestEngineFastTierAllocFree: the fast tiers must keep the engine's
// steady-state 0 allocs/op guarantee, serial and pooled.
func TestEngineFastTierAllocFree(t *testing.T) {
	net := models.MLP(rng.New(41), 16, []int{24, 16}, 6)
	x := tensor.RandUniform(rng.New(42), 0, 1, 16, 16)
	pool := tensor.NewPool(4)
	defer pool.Close()
	for _, prec := range []tensor.Precision{tensor.F32, tensor.I8} {
		for _, cfg := range []struct {
			label string
			opts  Options
		}{
			{"serial", Options{Workers: 1, MaxBatch: 16}},
			{"pool4", Options{Pool: pool, MaxBatch: 16}},
		} {
			cfg.opts.Precision = prec
			eng := MustCompile(net, cfg.opts)
			eng.Probs(x) // warmup: builds views and probs buffer
			if allocs := testing.AllocsPerRun(50, func() { eng.Probs(x) }); allocs != 0 {
				t.Errorf("%v/%s: %v allocs/op in steady state, want 0", prec, cfg.label, allocs)
			}
		}
	}
}

// TestEngineFastTierRebindAndReload: Rebind must reload the converted
// caches (outputs track the new network), and ReloadParams must pick up
// in-place weight mutations the caches would otherwise hide.
func TestEngineFastTierRebindAndReload(t *testing.T) {
	for _, prec := range []tensor.Precision{tensor.F32, tensor.I8} {
		net := models.MLP(rng.New(31), 16, []int{24, 16}, 6)
		eng := MustCompile(net, Options{Workers: 1, Precision: prec})
		x := tensor.RandUniform(rng.New(32), 0, 1, 4, 16)
		base := mustForward(t, eng, nil, x).Clone()

		clone := net.Clone()
		for _, p := range clone.Params() {
			p.Value.ScaleInPlace(1.5)
		}
		if err := eng.Rebind(clone); err != nil {
			t.Fatalf("%v: rebind clone: %v", prec, err)
		}
		rebound := mustForward(t, eng, nil, x).Clone()
		if rebound.Equal(base) {
			t.Fatalf("%v: rebind did not reload the parameter caches", prec)
		}
		fresh := MustCompile(clone, Options{Workers: 1, Precision: prec})
		if !mustForward(t, fresh, nil, x).Equal(rebound) {
			t.Fatalf("%v: rebound engine differs from a fresh compile of the same net", prec)
		}

		// in-place mutation is invisible until ReloadParams
		for _, p := range clone.Params() {
			p.Value.ScaleInPlace(0.5)
		}
		if !mustForward(t, eng, nil, x).Equal(rebound) {
			t.Fatalf("%v: cache unexpectedly tracked an in-place mutation", prec)
		}
		eng.ReloadParams()
		reloaded := mustForward(t, eng, nil, x)
		if reloaded.Equal(rebound) {
			t.Fatalf("%v: ReloadParams did not refresh the caches", prec)
		}
		if !MustCompile(clone, Options{Workers: 1, Precision: prec}).
			MustForwardForTest(x).Equal(reloaded) {
			t.Fatalf("%v: reloaded engine differs from a fresh compile", prec)
		}

		// mismatched architectures still bounce with the engine intact
		deeper := models.MLP(rng.New(35), 16, []int{24, 16, 8}, 6)
		if err := eng.Rebind(deeper); err == nil {
			t.Fatalf("%v: rebind accepted a deeper network", prec)
		}
		if !mustForward(t, eng, nil, x).Equal(reloaded) {
			t.Fatalf("%v: failed rebind perturbed the engine", prec)
		}
	}
}

// TestEngineF32RejectsUnbatchable: compiling a layer without an f32 kernel
// on the F32 tier must fail with a tier-specific error.
func TestEngineF32RejectsUnbatchable(t *testing.T) {
	net := nn.NewNetwork("odd", 4, &unbatchable{})
	if _, err := Compile(net, Options{Precision: tensor.F32}); err == nil ||
		!strings.Contains(err.Error(), "float32 inference path") {
		t.Fatalf("compile error = %v, want f32-unbatchable error", err)
	}
	if _, err := Compile(net, Options{Precision: tensor.I8}); err == nil ||
		!strings.Contains(err.Error(), "no batched inference path") {
		t.Fatalf("compile error = %v, want i8-unbatchable error", err)
	}
}

// TestEngineI8RejectsOverwideDense: a dense layer wider than tensor.MaxI8K
// could overflow the int32 accumulator, so the I8 tier must refuse to
// compile it rather than wrap silently.
func TestEngineI8RejectsOverwideDense(t *testing.T) {
	k := tensor.MaxI8K + 1
	net := nn.NewNetwork("wide", k, nn.NewDense("fc", rng.New(1), k, 1))
	if _, err := Compile(net, Options{Precision: tensor.I8}); err == nil ||
		!strings.Contains(err.Error(), "int8 accumulator caps") {
		t.Fatalf("compile error = %v, want the MaxI8K rejection", err)
	}
	if _, err := Compile(net, Options{Precision: tensor.F64}); err != nil {
		t.Fatalf("f64 compile of the same layer failed: %v", err)
	}
}

// TestEngineFastTierCostReflectsPrecision: a plan's modeled per-sample cost
// must get cheaper with the tier — narrower buffers on F32, narrower buffers
// AND cheaper conversions on I8 — while event counts stay put.
func TestEngineFastTierCostReflectsPrecision(t *testing.T) {
	net := models.MLP(rng.New(7), 16, []int{24, 16}, 6)
	f64c := MustCompile(net, Options{Workers: 1}).PlanCost()
	f32c := MustCompile(net, Options{Workers: 1, Precision: tensor.F32}).PlanCost()
	i8c := MustCompile(net, Options{Workers: 1, Precision: tensor.I8}).PlanCost()
	if f32c.DACConversions != f64c.DACConversions || f32c.ADCConversions != f64c.ADCConversions ||
		i8c.DACConversions != f64c.DACConversions || i8c.ADCConversions != f64c.ADCConversions {
		t.Fatal("conversion counts must not depend on the tier")
	}
	if !(f32c.BufferBytes < f64c.BufferBytes && i8c.BufferBytes < f32c.BufferBytes) {
		t.Fatalf("buffer traffic must narrow with the tier: f64=%d f32=%d i8=%d",
			f64c.BufferBytes, f32c.BufferBytes, i8c.BufferBytes)
	}
	if f32c.EnergyFJ != f64c.EnergyFJ {
		t.Fatalf("f32 conversions charge the sticker energy: f64=%d f32=%d", f64c.EnergyFJ, f32c.EnergyFJ)
	}
	if i8c.EnergyFJ >= f64c.EnergyFJ {
		t.Fatalf("i8 conversions must be cheaper than the f64 sticker model: f64=%d i8=%d",
			f64c.EnergyFJ, i8c.EnergyFJ)
	}
}

// MustForwardForTest is a test-only convenience: ForwardBatch(nil, x) or
// panic.
func (e *Engine) MustForwardForTest(x *tensor.Tensor) *tensor.Tensor {
	out, err := e.ForwardBatch(nil, x)
	if err != nil {
		panic(err)
	}
	return out
}
