package tensor

import (
	"math"
	"testing"

	"reramtest/internal/rng"
)

func TestQuantizeRowI8RoundTrip(t *testing.T) {
	r := rng.New(31)
	src := make([]float64, 64)
	for i := range src {
		src[i] = r.Float64()*4 - 2
	}
	q := make([]int8, len(src))
	rq := QuantizeRowI8(q, src)
	if rq.Scale <= 0 {
		t.Fatalf("scale = %g, want > 0", rq.Scale)
	}
	// dequantized codes must reproduce each value within half a step
	for i, v := range src {
		back := rq.Scale * float64(int32(q[i])-rq.Zero)
		if math.Abs(back-v) > rq.Scale/2+1e-12 {
			t.Fatalf("elem %d: dequant %g vs %g exceeds half-step %g", i, back, v, rq.Scale/2)
		}
	}
}

func TestQuantizeRowI8EdgeCases(t *testing.T) {
	q := make([]int8, 4)

	// all-zero row: identity quantization, zero codes
	rq := QuantizeRowI8(q, []float64{0, 0, 0, 0})
	if rq.Scale != 1 || rq.Zero != 0 {
		t.Fatalf("zero row params = %+v, want {1 0}", rq)
	}
	for i, c := range q {
		if c != 0 {
			t.Fatalf("zero row code %d = %d", i, c)
		}
	}

	// constant row: symmetric mapping, exact round trip
	rq = QuantizeRowI8(q, []float64{2.5, 2.5, 2.5, 2.5})
	for _, c := range q {
		if back := rq.Scale * float64(int32(c)-rq.Zero); math.Abs(back-2.5) > 1e-9 {
			t.Fatalf("constant row dequant %g, want 2.5", back)
		}
	}

	// range not containing zero gets extended so zero is representable —
	// ReLU'd activations quantize a true zero exactly: the code equal to the
	// zero point must be a legal int8 value
	src := []float64{3, 4, 5, 6}
	rq = QuantizeRowI8(q, src)
	if rq.Zero < -128 || rq.Zero > 127 {
		t.Fatalf("zero point %d outside int8", rq.Zero)
	}
	for i, v := range src {
		back := rq.Scale * float64(int32(q[i])-rq.Zero)
		if math.Abs(back-v) > rq.Scale/2+1e-12 {
			t.Fatalf("elem %d: dequant %g vs %g", i, back, v)
		}
	}
}

func TestQuantizeWeightsI8Layout(t *testing.T) {
	// w is (in=2, out=3) row-major; codes are stored transposed (out, in)
	w := []float64{1, -2, 0.5, 0.25, 4, -0.5}
	in, out := 2, 3
	wqT := make([]int8, in*out)
	sw := make([]float64, out)
	rowSum := make([]int32, out)
	QuantizeWeightsI8(wqT, sw, rowSum, w, in, out)
	for j := 0; j < out; j++ {
		var sum int32
		maxAbs := 0.0
		for k := 0; k < in; k++ {
			code := wqT[j*in+k]
			sum += int32(code)
			back := sw[j] * float64(code)
			want := w[k*out+j]
			if math.Abs(back-want) > sw[j]/2+1e-12 {
				t.Fatalf("col %d row %d: dequant %g vs %g", j, k, back, want)
			}
			if a := math.Abs(want); a > maxAbs {
				maxAbs = a
			}
			if code < -127 || code > 127 {
				t.Fatalf("col %d row %d: code %d outside symmetric range", j, k, code)
			}
		}
		if sum != rowSum[j] {
			t.Fatalf("col %d: rowSum %d, codes sum to %d", j, rowSum[j], sum)
		}
		if maxAbs > 0 && math.Abs(sw[j]*127-maxAbs) > 1e-12 {
			t.Fatalf("col %d: scale %g does not map 127 to maxAbs %g", j, sw[j], maxAbs)
		}
	}
	// all-zero column keeps a benign unit scale
	wz := []float64{0, 1, 0, 2}
	QuantizeWeightsI8(wqT[:4], sw[:2], rowSum[:2], wz, 2, 2)
	if sw[0] != 1 || rowSum[0] != 0 {
		t.Fatalf("zero column scale=%g rowSum=%d, want 1 and 0", sw[0], rowSum[0])
	}
}

func TestDotI8MatchesWideSum(t *testing.T) {
	r := rng.New(33)
	for _, k := range []int{1, 3, 4, 7, 64, 1000} {
		a, b := make([]int8, k), make([]int8, k)
		for i := 0; i < k; i++ {
			a[i] = int8(r.Intn(256) - 128)
			b[i] = int8(r.Intn(256) - 128)
		}
		var want int64
		for i := 0; i < k; i++ {
			want += int64(a[i]) * int64(b[i])
		}
		if got := DotI8(a, b); int64(got) != want {
			t.Fatalf("k=%d: DotI8 = %d, want %d", k, got, want)
		}
	}
}

func TestDequantI8SharedExpression(t *testing.T) {
	// the engine step and the oracle both call this exact expression; pin the
	// algebra: scale·sw·(acc − zero·rowSum) + bias
	rq := RowQuantI8{Scale: 0.125, Zero: -3}
	got := DequantI8(100, rq, 0.5, 1.5, 7)
	want := 0.125*0.5*float64(100-(-3)*7) + 1.5
	if got != want {
		t.Fatalf("DequantI8 = %g, want %g", got, want)
	}
}
