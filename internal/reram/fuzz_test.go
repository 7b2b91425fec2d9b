package reram

import (
	"math"
	"testing"

	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

// refMatVec is the analog tile pass computed the naive way: every word-line
// of every tile is loaded, every cell of both arrays is read through
// Conductance, and all TileCols bit-lines are ADC-quantized before the
// unmapped ones are dropped. It returns the output and the charge the pass
// must make.
func refMatVec(t *TiledLinear, x []float64) ([]float64, Cost) {
	out := make([]float64, t.Out)
	vmax := 0.0
	for _, v := range x {
		if v > vmax {
			vmax = v
		}
	}
	if vmax == 0 {
		return out, Cost{}
	}
	charge := t.passCost
	rows, cols := t.cfg.TileRows, t.cfg.TileCols
	vin := make([]float64, rows)
	ip, in := make([]float64, cols), make([]float64, cols)
	mac := func(xb *Crossbar, cur []float64) {
		active := 0
		for j := range cur {
			cur[j] = 0
		}
		for i, vi := range vin {
			if vi == 0 {
				continue
			}
			active++
			for j := range cur {
				cur[j] += vi * xb.Conductance(i, j)
			}
		}
		charge.Add(readCost(uint64(active) * uint64(cols)))
	}
	for rt := 0; rt < t.rowTiles; rt++ {
		for i := range vin {
			gi := rt*rows + i
			if gi < t.In && x[gi] > 0 {
				vin[i] = t.dac.Quantize(x[gi] / vmax)
			} else {
				vin[i] = 0
			}
		}
		for ct := 0; ct < t.colTiles; ct++ {
			tp := t.tiles[rt][ct]
			mac(tp.pos, ip)
			mac(tp.neg, in)
			tp.adcPos.QuantizeSlice(ip)
			tp.adcNeg.QuantizeSlice(in)
			for j := 0; j < cols; j++ {
				gj := ct*cols + j
				if gj >= t.Out {
					break
				}
				out[gj] += (ip[j] - in[j]) * t.scale * vmax
			}
		}
	}
	return out, charge
}

// FuzzTiledMatVec gates TiledLinear.MatVecInto, which computes only each
// tile's mapped word-lines and bit-lines, against refMatVec bit for bit and
// charge for charge. The fuzzer picks the tile geometry, the layer shape
// (ragged or exact multiples), converter resolutions, programming noise and
// fault rates; stuck-at and soft-error cells land anywhere in the arrays,
// mapped corner or not, and inputs mix exact zeros and negatives.
func FuzzTiledMatVec(f *testing.F) {
	f.Add(int64(1), uint8(4), uint8(4), uint8(9), uint8(7), uint8(8), uint8(8), uint8(20), false)
	f.Add(int64(2), uint8(16), uint8(16), uint8(16), uint8(32), uint8(0), uint8(0), uint8(0), true)
	f.Add(int64(3), uint8(5), uint8(3), uint8(1), uint8(1), uint8(3), uint8(5), uint8(200), true)
	f.Add(int64(4), uint8(7), uint8(11), uint8(40), uint8(23), uint8(6), uint8(7), uint8(60), false)
	f.Add(int64(5), uint8(1), uint8(1), uint8(3), uint8(2), uint8(1), uint8(1), uint8(255), true)
	f.Fuzz(func(t *testing.T, seed int64, trb, tcb, inb, outb, dacb, adcb, faultb uint8, noisy bool) {
		cfg := DefaultConfig()
		cfg.TileRows, cfg.TileCols = int(trb)%20+1, int(tcb)%20+1
		cfg.DACBits, cfg.ADCBits = int(dacb)%10, int(adcb)%10
		if noisy {
			cfg.Device.ProgramSigma = 0.1
		}
		in, out := int(inb)%48+1, int(outb)%48+1
		r := rng.New(seed)
		w := tensor.Randn(r, 0, 1, out, in)
		tl := MapLinear(w, cfg, r.Split())

		rate := float64(faultb) / 1000
		tl.InjectStuckAt(rate, rate/2)
		tl.InjectSoftErrors(rate)
		tl.AdvanceTime(float64(faultb % 50))

		x := make([]float64, in)
		for i := range x {
			switch r.Intn(5) {
			case 0: // exact zero: an idle word-line
			case 1:
				x[i] = -r.Float64()
			default:
				x[i] = r.Float64()
			}
		}

		want, wantCharge := refMatVec(tl, x)
		ctr := NewCounter()
		tl.SetCounter(ctr)
		got := make([]float64, out)
		for i := range got {
			got[i] = math.NaN() // stale contents must be overwritten
		}
		tl.MatVecInto(got, x)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Fatalf("tile %dx%d, layer %dx%d: out[%d] = %v, reference %v",
					cfg.TileRows, cfg.TileCols, out, in, j, got[j], want[j])
			}
		}
		if c := ctr.Snapshot().Total(); c != wantCharge {
			t.Fatalf("charge %+v, reference %+v", c, wantCharge)
		}
	})
}
