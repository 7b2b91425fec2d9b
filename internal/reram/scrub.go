// Scrub and remap: the two in-place repair mechanisms cheaper than the
// cloud-edge retraining path.
//
// Scrubbing is online soft-error correction (the error-correction tier of
// the paper's repair story): sweep every healthy cell, compare its actual
// conductance against the stored programming target, and rewrite only the
// cells that left their tolerance band — drifted cells and disturb-flipped
// cells alike. Unlike Reprogram it touches a handful of cells instead of the
// whole array, so its cost (and its write-disturb exposure) scales with the
// damage, not the array size.
//
// Remapping is the hardware-redundancy tier: arrays are fabricated with
// spare word-lines (DeviceParams.SpareRows), and a line whose stuck-cell
// count makes fault-aware compensation hopeless is switched wholesale onto a
// spare. When spares run out, isolated stuck cells are instead
// weight-corrected through their differential partner: the pair encodes
// w ∝ G⁺−G⁻, so a cell pinned at an extreme can be cancelled by moving the
// healthy partner's target, as long as the required conductance fits the
// device window.
package reram

import "fmt"

// window returns the device conductance window GOn−GOff.
func (x *Crossbar) window() float64 { return x.dev.GOn - x.dev.GOff }

// DriftedCells counts healthy cells whose actual conductance sits further
// than tol×(GOn−GOff) from the programming target — the population a Scrub
// pass would rewrite. Read-only and RNG-free: safe to call from diagnosis.
func (x *Crossbar) DriftedCells(tol float64) int {
	band := tol * x.window()
	n := 0
	for i, a := range x.actual {
		if x.state[i] != CellOK {
			continue
		}
		if d := a - x.target[i]; d > band || d < -band {
			n++
		}
	}
	return n
}

// Scrub sweeps every healthy cell and rewrites the ones whose conductance
// left the tol×(GOn−GOff) band around the target, drawing fresh programming
// variation per rewritten cell. Returns the number of cells scanned
// (healthy cells) and rewritten. Stuck cells are skipped: a scrub cannot
// repair hard faults.
func (x *Crossbar) Scrub(tol float64) (scanned, rewritten int) {
	band := tol * x.window()
	for i, a := range x.actual {
		if x.state[i] != CellOK {
			continue
		}
		scanned++
		if d := a - x.target[i]; d > band || d < -band {
			x.program(i, x.target[i])
			rewritten++
		}
	}
	// a scrub reads every healthy cell and pulses only the out-of-band ones —
	// the cost profile that makes it the cheapest repair rung
	x.counter.Charge(readCost(uint64(scanned)).Plus(writeCost(uint64(rewritten))))
	return scanned, rewritten
}

// SpareRowsLeft returns the number of spare word-lines still available.
func (x *Crossbar) SpareRowsLeft() int { return x.spares }

// RemapRow switches word-line i onto a spare physical row: the spare's
// cells replace the faulty line's, fabrication stuck-at faults are drawn
// fresh for the spare (a spare line is ordinary silicon, not guaranteed
// perfect), and the line's target conductances are programmed onto it.
// Returns false without touching anything when no spares remain.
func (x *Crossbar) RemapRow(i int) bool {
	if i < 0 || i >= x.Rows {
		panic(fmt.Sprintf("reram: RemapRow index %d out of range [0,%d)", i, x.Rows))
	}
	if x.spares <= 0 {
		return false
	}
	x.spares--
	base := i * x.Cols
	for idx := base; idx < base+x.Cols; idx++ {
		x.setState(idx, stuckDraw(x.r.Float64(), x.dev.SA0Rate, x.dev.SA1Rate))
		x.program(idx, x.target[idx])
	}
	x.counter.Charge(writeCost(uint64(x.Cols)))
	return true
}

// ProgramCell writes one cell's target conductance (clamped to the device
// window, with programming variation). A stuck cell records the new target
// but its effective conductance stays pinned — exactly like a full Program.
func (x *Crossbar) ProgramCell(i, j int, g float64) {
	idx := i*x.Cols + j
	g = clampG(g, x.dev)
	x.target[idx] = g
	x.program(idx, g)
	x.counter.Charge(writeCost(1))
}

// State returns the fault state of cell (i, j).
func (x *Crossbar) State(i, j int) CellState { return x.state[i*x.Cols+j] }

// Target returns the stored programming target of cell (i, j).
func (x *Crossbar) Target(i, j int) float64 { return x.target[i*x.Cols+j] }

// --- TiledLinear aggregation ---

// ScrubSoftErrors scrubs every tile of both polarities; see Crossbar.Scrub.
func (t *TiledLinear) ScrubSoftErrors(tol float64) (scanned, rewritten int) {
	for _, row := range t.tiles {
		for _, tp := range row {
			s, w := tp.pos.Scrub(tol)
			scanned += s
			rewritten += w
			s, w = tp.neg.Scrub(tol)
			scanned += s
			rewritten += w
		}
	}
	return scanned, rewritten
}

// DriftedCells counts out-of-band healthy cells across every tile.
func (t *TiledLinear) DriftedCells(tol float64) int {
	n := 0
	for _, row := range t.tiles {
		for _, tp := range row {
			n += tp.pos.DriftedCells(tol) + tp.neg.DriftedCells(tol)
		}
	}
	return n
}

// SpareLines sums the spare word-lines still available across every tile.
func (t *TiledLinear) SpareLines() int {
	n := 0
	for _, row := range t.tiles {
		for _, tp := range row {
			n += tp.pos.SpareRowsLeft() + tp.neg.SpareRowsLeft()
		}
	}
	return n
}

// StuckStats counts stuck cells across every tile, and how many differential
// pair positions holding a stuck cell are still uncompensated: their
// effective differential conductance misses the target differential by more
// than tol×(GOn−GOff). A remapped line or a corrected partner drives the
// pair back into the band, so uncompensated shrinks as repairs land even
// though stuck (a physical census) can only grow.
func (t *TiledLinear) StuckStats(tol float64) (stuck, uncompensated int) {
	for _, row := range t.tiles {
		for _, tp := range row {
			band := tol * tp.pos.window()
			for i := 0; i < tp.pos.Rows; i++ {
				for j := 0; j < tp.pos.Cols; j++ {
					ps, ns := tp.pos.State(i, j), tp.neg.State(i, j)
					if ps == CellOK && ns == CellOK {
						continue
					}
					if ps != CellOK {
						stuck++
					}
					if ns != CellOK {
						stuck++
					}
					err := (tp.pos.Conductance(i, j) - tp.neg.Conductance(i, j)) -
						(tp.pos.Target(i, j) - tp.neg.Target(i, j))
					if err > band || err < -band {
						uncompensated++
					}
				}
			}
		}
	}
	return stuck, uncompensated
}

// RemapStuck is the stuck-at repair pass over every tile. Lines holding more
// than maxPerLine uncompensated stuck cells are switched onto spare
// word-lines (per polarity: only arrays that actually hold stuck cells on
// the line burn a spare). Remaining uncompensated stuck cells are
// weight-corrected through the differential partner when the required
// partner conductance fits the device window; pairs with both cells stuck,
// or needing a conductance outside the window, are reported uncorrectable.
// ADCs of touched tiles are recalibrated. tol is the residual band below
// which a pair counts as already compensated (fraction of the window).
func (t *TiledLinear) RemapStuck(maxPerLine int, tol float64) (remapped, corrected, uncorrectable int) {
	for _, trow := range t.tiles {
		for ti := range trow {
			tp := &trow[ti]
			touched := false
			band := tol * tp.pos.window()
			dev := tp.pos.dev

			outOfBand := func(i, j int) bool {
				err := (tp.pos.Conductance(i, j) - tp.neg.Conductance(i, j)) -
					(tp.pos.Target(i, j) - tp.neg.Target(i, j))
				return err > band || err < -band
			}

			// pass 1: wholesale line remap where stuck cells cluster
			for i := 0; i < tp.pos.Rows; i++ {
				posStuck, negStuck := 0, 0
				for j := 0; j < tp.pos.Cols; j++ {
					ps, ns := tp.pos.State(i, j), tp.neg.State(i, j)
					if ps == CellOK && ns == CellOK {
						continue
					}
					if !outOfBand(i, j) {
						continue
					}
					if ps != CellOK {
						posStuck++
					}
					if ns != CellOK {
						negStuck++
					}
				}
				if posStuck+negStuck <= maxPerLine {
					continue
				}
				if posStuck > 0 && tp.pos.RemapRow(i) {
					remapped++
					touched = true
				}
				if negStuck > 0 && tp.neg.RemapRow(i) {
					remapped++
					touched = true
				}
			}

			// pass 2: differential weight correction for what remains
			for i := 0; i < tp.pos.Rows; i++ {
				for j := 0; j < tp.pos.Cols; j++ {
					ps, ns := tp.pos.State(i, j), tp.neg.State(i, j)
					if ps == CellOK && ns == CellOK {
						continue
					}
					if !outOfBand(i, j) {
						continue // already compensated
					}
					if ps != CellOK && ns != CellOK {
						uncorrectable++ // both pinned: no healthy partner
						continue
					}
					// the correction re-encodes the pair around the pinned
					// value: the healthy partner's target moves so the pair
					// difference is restored, and the stuck cell's target is
					// set to its pinned conductance so the stored pair intent
					// matches what the hardware now realises (and a later
					// Reprogram or Scrub preserves the correction)
					targetDiff := tp.pos.Target(i, j) - tp.neg.Target(i, j)
					if ps != CellOK {
						pinned := tp.pos.Conductance(i, j)
						want := pinned - targetDiff
						if want < dev.GOff || want > dev.GOn {
							uncorrectable++
							continue
						}
						tp.neg.ProgramCell(i, j, want)
						tp.pos.ProgramCell(i, j, pinned)
					} else {
						pinned := tp.neg.Conductance(i, j)
						want := pinned + targetDiff
						if want < dev.GOff || want > dev.GOn {
							uncorrectable++
							continue
						}
						tp.pos.ProgramCell(i, j, want)
						tp.neg.ProgramCell(i, j, pinned)
					}
					corrected++
					touched = true
				}
			}

			if touched {
				tp.adcPos = calibrateADC(tp.pos, t.cfg.ADCBits)
				tp.adcNeg = calibrateADC(tp.neg, t.cfg.ADCBits)
			}
		}
	}
	return remapped, corrected, uncorrectable
}

// --- Accelerator aggregation ---

// ScrubSoftErrors runs the online soft-error scrub across every array: each
// healthy cell whose conductance left the tol band around its programming
// target is rewritten in place. Implements repair.Scrubber.
func (a *Accelerator) ScrubSoftErrors(tol float64) (scanned, rewritten int) {
	for _, e := range a.engines {
		s, w := e.ScrubSoftErrors(tol)
		scanned += s
		rewritten += w
	}
	return scanned, rewritten
}

// DriftedCells counts, across every array, the healthy cells a scrub at tol
// would rewrite — the diagnosis input for the scrub strategy.
func (a *Accelerator) DriftedCells(tol float64) int {
	n := 0
	for _, e := range a.engines {
		n += e.DriftedCells(tol)
	}
	return n
}

// RemapStuck runs the stuck-at remap/correction pass across every array.
// Implements repair.Remapper.
func (a *Accelerator) RemapStuck(maxPerLine int, tol float64) (remapped, corrected, uncorrectable int) {
	for _, e := range a.engines {
		r, c, u := e.RemapStuck(maxPerLine, tol)
		remapped += r
		corrected += c
		uncorrectable += u
	}
	return remapped, corrected, uncorrectable
}

// StuckStats counts stuck cells and uncompensated stuck pair positions
// across every array — the diagnosis input for the remap strategy.
func (a *Accelerator) StuckStats(tol float64) (stuck, uncompensated int) {
	for _, e := range a.engines {
		s, u := e.StuckStats(tol)
		stuck += s
		uncompensated += u
	}
	return stuck, uncompensated
}

// SpareLines sums the spare word-lines still available across every array.
func (a *Accelerator) SpareLines() int {
	n := 0
	for _, e := range a.engines {
		n += e.SpareLines()
	}
	return n
}
