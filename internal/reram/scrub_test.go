package reram

import (
	"math"
	"testing"

	"reramtest/internal/models"
	"reramtest/internal/rng"
	"reramtest/internal/tensor"
)

func TestScrubRewritesDriftedCells(t *testing.T) {
	dev := idealParams()
	x := NewCrossbar(8, 8, dev, rng.New(31))
	x.Program(tensor.Full(40e-6, 8, 8))
	if n := x.DriftedCells(0.05); n != 0 {
		t.Fatalf("fresh array reports %d drifted cells", n)
	}
	x.InjectSoftErrors(0.4)
	drifted := x.DriftedCells(0.05)
	if drifted == 0 {
		t.Fatal("soft-error shower left no drifted cells")
	}
	scanned, rewritten := x.Scrub(0.05)
	if scanned != 64 {
		t.Fatalf("scanned %d cells, want 64", scanned)
	}
	if rewritten != drifted {
		t.Fatalf("rewrote %d cells, diagnosis said %d", rewritten, drifted)
	}
	if n := x.DriftedCells(0.05); n != 0 {
		t.Fatalf("%d cells still drifted after scrub", n)
	}
	// every cell is back inside the band (in-band survivors of the shower
	// are legitimately untouched; rewritten cells read the target exactly)
	band := 0.05 * (dev.GOn - dev.GOff)
	for i := 0; i < 8; i++ {
		for j := 0; j < 8; j++ {
			if g := x.Conductance(i, j); math.Abs(g-40e-6) > band {
				t.Fatalf("cell (%d,%d) reads %v after scrub", i, j, g)
			}
		}
	}
}

func TestScrubSkipsStuckCells(t *testing.T) {
	dev := idealParams()
	x := NewCrossbar(4, 4, dev, rng.New(32))
	x.Program(tensor.Full(40e-6, 4, 4))
	x.setState(0, CellSA1) // pin one cell far from target
	scanned, rewritten := x.Scrub(0.01)
	if scanned != 15 || rewritten != 0 {
		t.Fatalf("scrub touched stuck cell: scanned=%d rewritten=%d", scanned, rewritten)
	}
	if g := x.Conductance(0, 0); g != dev.GOn {
		t.Fatalf("stuck cell moved to %v", g)
	}
}

func TestScrubConsumesNoRNGWhenClean(t *testing.T) {
	// a clean scrub must not perturb the crossbar's RNG stream, or golden
	// drift trajectories would change whenever a scrub is scheduled
	dev := idealParams()
	dev.DriftRate, dev.DriftJitter = 0.002, 0.01
	a := NewCrossbar(6, 6, dev, rng.New(33))
	b := NewCrossbar(6, 6, dev, rng.New(33))
	g := tensor.Full(40e-6, 6, 6)
	a.Program(g)
	b.Program(g)
	if _, rewritten := a.Scrub(0.5); rewritten != 0 {
		t.Fatalf("clean array rewrote %d cells", rewritten)
	}
	a.AdvanceTime(24)
	b.AdvanceTime(24)
	for i := range a.actual {
		if a.actual[i] != b.actual[i] {
			t.Fatal("clean scrub perturbed the RNG stream")
		}
	}
}

func TestRemapRowConsumesSparesAndRestoresLine(t *testing.T) {
	dev := idealParams()
	dev.SpareRows = 2
	x := NewCrossbar(4, 4, dev, rng.New(34))
	x.Program(tensor.Full(40e-6, 4, 4))
	// pin an entire word-line
	for j := 0; j < 4; j++ {
		x.setState(1*4+j, CellSA0)
	}
	if x.SpareRowsLeft() != 2 {
		t.Fatalf("spares=%d, want 2", x.SpareRowsLeft())
	}
	if !x.RemapRow(1) {
		t.Fatal("remap refused with spares available")
	}
	if x.SpareRowsLeft() != 1 {
		t.Fatalf("spares=%d after one remap, want 1", x.SpareRowsLeft())
	}
	// the remapped line reads its targets again (ideal device, no fab faults)
	for j := 0; j < 4; j++ {
		if x.State(1, j) != CellOK {
			t.Fatalf("remapped cell (1,%d) still stuck", j)
		}
		if g := x.Conductance(1, j); g != 40e-6 {
			t.Fatalf("remapped cell (1,%d) reads %v", j, g)
		}
	}
	if !x.RemapRow(0) {
		t.Fatal("second remap refused")
	}
	if x.RemapRow(2) {
		t.Fatal("remap succeeded with no spares left")
	}
	if x.SpareRowsLeft() != 0 {
		t.Fatalf("spares=%d at exhaustion, want 0", x.SpareRowsLeft())
	}
}

func TestProgramCellClampsAndTracksTarget(t *testing.T) {
	dev := idealParams()
	x := NewCrossbar(2, 2, dev, rng.New(35))
	x.ProgramCell(0, 1, 2*dev.GOn) // above window: clamp to GOn
	if x.Target(0, 1) != dev.GOn || x.Conductance(0, 1) != dev.GOn {
		t.Fatalf("ProgramCell clamp failed: target=%v actual=%v", x.Target(0, 1), x.Conductance(0, 1))
	}
	// writing a stuck cell records intent but the readout stays pinned
	x.setState(0, CellSA0)
	x.ProgramCell(0, 0, 50e-6)
	if x.Target(0, 0) != 50e-6 {
		t.Fatal("stuck cell write did not record target")
	}
	if x.Conductance(0, 0) != dev.GOff {
		t.Fatal("stuck cell came unpinned")
	}
}

// stuckPin pins cell (i, j) of the given polarity in every tile pair holder
// — test-only direct state injection for deterministic placement, through
// the same pinning path InjectStuckAt uses.
func stuckPin(tl *TiledLinear, rt, ct, i, j int, pos bool, s CellState) {
	tp := &tl.tiles[rt][ct]
	if pos {
		tp.pos.setState(i*tp.pos.Cols+j, s)
	} else {
		tp.neg.setState(i*tp.neg.Cols+j, s)
	}
}

func TestTiledRemapCorrectsThroughPartner(t *testing.T) {
	cfg := Config{TileRows: 8, TileCols: 8, DACBits: 0, ADCBits: 0, Device: idealParams()}
	r := rng.New(36)
	w := tensor.New(8, 8)
	w.Fill(0.5)
	w.Set(1.0, 0, 0) // wmax=1 so 0.5 maps to mid-window, not full scale
	tl := MapLinear(w, cfg, r)

	// pin one G⁺ cell at GOn: the positive weight 0.5 was mapped mid-window,
	// so the pair now reads high until the partner compensates
	stuckPin(tl, 0, 0, 2, 3, true, CellSA1)
	stuck, uncomp := tl.StuckStats(0.02)
	if stuck != 1 || uncomp != 1 {
		t.Fatalf("stats before repair: stuck=%d uncomp=%d, want 1/1", stuck, uncomp)
	}
	remapped, corrected, uncorrectable := tl.RemapStuck(4, 0.02)
	if remapped != 0 {
		t.Fatalf("one stuck cell triggered a line remap (threshold 4)")
	}
	if corrected != 1 || uncorrectable != 0 {
		t.Fatalf("corrected=%d uncorrectable=%d, want 1/0", corrected, uncorrectable)
	}
	if _, uncomp := tl.StuckStats(0.02); uncomp != 0 {
		t.Fatalf("%d pairs still uncompensated after correction", uncomp)
	}
	// the effective weight is back near its target
	got := tl.EffectiveWeights().At(3, 2)
	if math.Abs(got-0.5) > 0.02 {
		t.Fatalf("corrected weight reads %v, want ≈0.5", got)
	}
}

func TestTiledRemapBothStuckIsUncorrectable(t *testing.T) {
	cfg := Config{TileRows: 4, TileCols: 4, DACBits: 0, ADCBits: 0, Device: idealParams()}
	w := tensor.New(4, 4)
	w.Fill(0.5)
	w.Set(1.0, 0, 0)
	tl := MapLinear(w, cfg, rng.New(37))
	stuckPin(tl, 0, 0, 1, 1, true, CellSA1)
	stuckPin(tl, 0, 0, 1, 1, false, CellSA0)
	_, corrected, uncorrectable := tl.RemapStuck(8, 0.02)
	if corrected != 0 || uncorrectable != 1 {
		t.Fatalf("both-stuck pair: corrected=%d uncorrectable=%d, want 0/1", corrected, uncorrectable)
	}
}

func TestTiledRemapUsesSparesForClusteredFaults(t *testing.T) {
	dev := idealParams()
	dev.SpareRows = 2
	cfg := Config{TileRows: 8, TileCols: 8, DACBits: 0, ADCBits: 0, Device: dev}
	w := tensor.New(8, 8)
	w.Fill(0.5)
	w.Set(1.0, 0, 0)
	tl := MapLinear(w, cfg, rng.New(38))
	// cluster: five stuck cells on one word-line of G⁺ — past maxPerLine 2
	for j := 0; j < 5; j++ {
		stuckPin(tl, 0, 0, 3, j, true, CellSA1)
	}
	sparesBefore := tl.SpareLines()
	remapped, _, uncorrectable := tl.RemapStuck(2, 0.02)
	if remapped != 1 {
		t.Fatalf("remapped %d lines, want 1", remapped)
	}
	if uncorrectable != 0 {
		t.Fatalf("%d uncorrectable after line remap", uncorrectable)
	}
	if got := tl.SpareLines(); got != sparesBefore-1 {
		t.Fatalf("spares %d→%d, want one consumed", sparesBefore, got)
	}
	if _, uncomp := tl.StuckStats(0.02); uncomp != 0 {
		t.Fatalf("%d pairs uncompensated after remap", uncomp)
	}
}

func TestAcceleratorScrubAndRemapSurfaces(t *testing.T) {
	dev := idealParams()
	dev.SpareRows = 1
	cfg := Config{TileRows: 16, TileCols: 16, DACBits: 0, ADCBits: 0, Device: dev}
	net := models.MLP(rng.New(39), 12, []int{10}, 4)
	accel := NewAccelerator(net, cfg, 40)

	// drift population: shower then scrub clears it
	accel.InjectSoftErrors(0.2)
	if accel.DriftedCells(0.05) == 0 {
		t.Fatal("shower left no drifted cells")
	}
	if _, rewritten := accel.ScrubSoftErrors(0.05); rewritten == 0 {
		t.Fatal("scrub rewrote nothing")
	}
	if n := accel.DriftedCells(0.05); n != 0 {
		t.Fatalf("%d drifted cells after scrub", n)
	}

	// stuck population: remap/correct reduces the uncompensated census
	accel.InjectStuckAt(0.03, 0.03)
	stuck, uncompBefore := accel.StuckStats(0.05)
	if stuck == 0 {
		t.Fatal("injection produced no stuck cells")
	}
	accel.RemapStuck(3, 0.05)
	stuckAfter, uncompAfter := accel.StuckStats(0.05)
	if uncompAfter > uncompBefore {
		t.Fatalf("remap increased uncompensated pairs %d→%d", uncompBefore, uncompAfter)
	}
	_ = stuckAfter
	if accel.SpareLines() < 0 {
		t.Fatal("negative spare count")
	}
}
