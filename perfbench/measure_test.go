package main

import (
	"strings"
	"testing"
	"time"
)

func seq(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = float64(n - i) // descending, so percentile must sort
	}
	return out
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		p    float64
		n    int
		want float64 // 0: must fail
	}{
		{0.99, 1000, 990}, // exactly 10 beyond the 990th value
		{0.99, 999, 0},    // 9 beyond: refused
		{0.99, 2000, 1980},
		{0.90, 100, 90},
		{0.90, 99, 0},
		{0.50, 20, 10},
		{0.50, 19, 0},
	} {
		got, err := percentile(seq(tc.n), tc.p)
		if tc.want == 0 {
			if err == nil || !strings.Contains(err.Error(), "want ≥ 10") {
				t.Errorf("p%g of %d: got %v, %v; want the sample-count error", 100*tc.p, tc.n, got, err)
			}
			continue
		}
		if err != nil || got != tc.want {
			t.Errorf("p%g of %d = %v, %v; want %v", 100*tc.p, tc.n, got, err, tc.want)
		}
	}
	if _, err := percentile(nil, 0.5); err == nil {
		t.Error("percentile of no samples succeeded")
	}
}

func TestMedian(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := median([]float64{4, 1, 3, 2}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// spin burns CPU on the calling goroutine for about d of wall time.
func spin(d time.Duration) float64 {
	x := 0.0
	for start := time.Now(); time.Since(start) < d; {
		for i := 0; i < 1000; i++ {
			x += float64(i)
		}
	}
	return x
}

func TestUsageReadsCPUAllocsAndRSS(t *testing.T) {
	u := snapshot()
	sink := spin(50 * time.Millisecond)
	var keep [][]byte
	for i := 0; i < 100; i++ {
		keep = append(keep, make([]byte, 1<<10))
	}
	w := since(u)
	if sink == 0 || len(keep) != 100 {
		t.Fatal("work was optimised away")
	}
	// a busy goroutine accrues CPU close to its wall time; a shared host may
	// deschedule it, so only demand a clear share of it
	if w.cpu < 10*time.Millisecond || w.cpu > w.wall+50*time.Millisecond {
		t.Errorf("cpu %v over a %v busy window", w.cpu, w.wall)
	}
	if w.mallocs < 100 {
		t.Errorf("counted %d allocations, want ≥ 100", w.mallocs)
	}
	if rss := maxRSSMB(); rss < 1 || rss > 1<<16 {
		t.Errorf("peak RSS %v MiB is implausible", rss)
	}
}

func TestRecorderGroupMedians(t *testing.T) {
	base := time.Unix(0, 0)
	// five groups of 20 ops, one second each, 100 ms of CPU each; group g's
	// latencies are 100g … 100g+19
	r := &recorder{size: 20, marks: map[int]usage{0: {wall: base}}}
	var lat []float64
	for g := 1; g <= 5; g++ {
		r.marks[g] = usage{wall: base.Add(time.Duration(g) * time.Second), cpu: time.Duration(g) * 100 * time.Millisecond}
		for i := 0; i < 20; i++ {
			lat = append(lat, float64(g*100+i))
		}
	}
	r.start = r.marks[0]
	gs, err := r.stats(lat, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if gs.groups != 5 || gs.ops != 100 || gs.opsPerS != 20 || gs.cpuMs != 5 || gs.p50 != 309 {
		t.Errorf("group medians %+v; want 5 groups of 20, 20 ops/s, 5 ms CPU per op, p50 309", gs)
	}
	if _, err := r.stats(lat, 0.9); err == nil {
		t.Error("groups of 20 gave a p90")
	}
	if _, err := (&recorder{size: 20, marks: map[int]usage{0: {}, 1: {}, 2: {}, 3: {}, 4: {}}}).stats(lat, 0.5); err == nil {
		t.Error("four groups passed as enough")
	}
}
