package tensor

import (
	"fmt"
	"math"
)

// This file is the int8 half of the multi-precision kernel tier: per-row
// affine activation quantization, per-column symmetric weight quantization,
// and an int8×int8→int32 matmul with the zero-point correction folded in
// through precomputed weight row sums. The grid mirrors the 8-bit DAC/ADC
// converters the reram model defaults to (Config.DACBits/ADCBits): inputs
// pass through a 256-level affine code exactly like samples through a DAC,
// accumulation is integral like charge on a bitline, and the dequantization
// happens once per output in float64 like an ADC readout rescale.
//
// Exactness contract: int8 products are ≤ 2¹⁴ and int32 sums of ≤ 2¹⁶ of
// them stay below 2³⁰, so every intermediate here is exactly representable
// in float64. The tier is therefore gated on *bitwise equality* against a
// model-level oracle that quantizes to the same grid and runs the integer
// arithmetic through the f64 reference kernels — see DequantI8.

// MaxI8K is the largest inner dimension the int8 kernels accept: beyond it
// the int32 accumulator (≤ 127·255·k plus the zero-point correction of the
// same magnitude) could overflow. Real layers are orders of magnitude under
// this; the engines reject I8 plans over wider layers with a typed error.
const MaxI8K = 1 << 16

// RowQuantI8 carries the affine code of one quantized activation row:
// x ≈ Scale · (q − Zero) with q ∈ [−128, 127].
type RowQuantI8 struct {
	Scale float64
	Zero  int32
}

// QuantizeRowI8 quantizes one activation row onto the signed 8-bit affine
// grid, writing codes into dst and returning the row's scale and zero point.
// The range is taken from the row itself — the same per-call dynamic range
// scaling reram's MatVecInto applies before its DAC. An all-zero row returns
// {Scale: 1, Zero: 0} with zero codes; a constant non-zero row falls back to
// the symmetric code so the single value is represented exactly at ±127.
func QuantizeRowI8(dst []int8, src []float64) RowQuantI8 {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("tensor: QuantizeRowI8 length mismatch dst=%d src=%d", len(dst), len(src)))
	}
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range src {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if len(src) == 0 || (lo == 0 && hi == 0) {
		for i := range dst {
			dst[i] = 0
		}
		return RowQuantI8{Scale: 1}
	}
	if lo == hi {
		// constant row: symmetric code, value sits exactly on ±127
		s := math.Abs(lo) / 127
		q := int8(127)
		if lo < 0 {
			q = -127
		}
		for i := range dst {
			dst[i] = q
		}
		return RowQuantI8{Scale: s}
	}
	if lo > 0 {
		lo = 0 // keep zero representable, like a DAC anchored at ground
	}
	if hi < 0 {
		hi = 0
	}
	s := (hi - lo) / 255
	zero := int32(math.Round(-128 - lo/s))
	for i, v := range src {
		q := math.Round(v/s) + float64(zero)
		if q > 127 {
			q = 127
		} else if q < -128 {
			q = -128
		}
		dst[i] = int8(q)
	}
	return RowQuantI8{Scale: s, Zero: zero}
}

// QuantizeWeightsI8 quantizes a row-major (in × out) f64 weight matrix onto
// the symmetric 8-bit grid, one scale per output column, writing the codes
// TRANSPOSED into wqT (out × in) — the layout the dot-form integer kernel
// wants — the per-column scales into sw (length out), and each transposed
// row's code sum into rowSum (length out), which the zero-point correction
// consumes at dequantization time.
func QuantizeWeightsI8(wqT []int8, sw []float64, rowSum []int32, w []float64, in, out int) {
	if len(w) != in*out || len(wqT) != in*out || len(sw) != out || len(rowSum) != out {
		panic(fmt.Sprintf("tensor: QuantizeWeightsI8 length mismatch wqT=%d sw=%d rowSum=%d w=%d for %d×%d",
			len(wqT), len(sw), len(rowSum), len(w), in, out))
	}
	for j := 0; j < out; j++ {
		maxAbs := 0.0
		for k := 0; k < in; k++ {
			if a := math.Abs(w[k*out+j]); a > maxAbs {
				maxAbs = a
			}
		}
		s := maxAbs / 127
		if s == 0 {
			s = 1
		}
		sw[j] = s
		var sum int32
		for k := 0; k < in; k++ {
			q := math.Round(w[k*out+j] / s)
			if q > 127 {
				q = 127
			} else if q < -127 {
				q = -127
			}
			wqT[j*in+k] = int8(q)
			sum += int32(q)
		}
		rowSum[j] = sum
	}
}

// DotI8 returns the int32 dot product of two equal-length int8 vectors,
// 4-wide unrolled across four independent accumulators.
func DotI8(a, b []int8) int32 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("tensor: DotI8 length mismatch %d vs %d", len(a), len(b)))
	}
	var s0, s1, s2, s3 int32
	p := 0
	for ; p+3 < len(a); p += 4 {
		s0 += int32(a[p]) * int32(b[p])
		s1 += int32(a[p+1]) * int32(b[p+1])
		s2 += int32(a[p+2]) * int32(b[p+2])
		s3 += int32(a[p+3]) * int32(b[p+3])
	}
	for ; p < len(a); p++ {
		s0 += int32(a[p]) * int32(b[p])
	}
	return s0 + s1 + s2 + s3
}

// DequantI8 maps one integer accumulator back to float64:
//
//	y = sx·sw·(acc − zero·rowSum) + bias
//
// where acc = Σ q_x·q_w over the row, zero/sx come from the activation row's
// affine code and sw/rowSum from the weight column. Every term is an exact
// f64 integer, so this ONE expression — shared by the engine's i8 step and
// the quantize-then-f64 oracle — is what makes the I8 gate bitwise instead
// of tolerance-based: both sides compute literally the same float operations
// on literally the same values.
func DequantI8(acc int32, rq RowQuantI8, sw, bias float64, rowSum int32) float64 {
	return rq.Scale*sw*float64(acc-rq.Zero*rowSum) + bias
}
