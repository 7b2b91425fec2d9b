package main

import (
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"
)

// minBeyond is how many samples must lie strictly beyond a reported
// percentile: a p99 needs at least 1000 samples, a p90 at least 100.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of samples by the
// nearest-rank rule, and fails when fewer than minBeyond samples lie
// beyond it. samples is sorted in place.
func percentile(samples []float64, p float64) (float64, error) {
	n := len(samples)
	if n == 0 || p <= 0 || p >= 1 {
		return 0, fmt.Errorf("percentile p%g of %d samples: undefined", 100*p, n)
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based nearest rank
	if n-rank < minBeyond {
		return 0, fmt.Errorf("percentile p%g of %d samples: %d lie beyond it, want ≥ %d",
			100*p, n, n-rank, minBeyond)
	}
	sort.Float64s(samples)
	return samples[rank-1], nil
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count). xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	m := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[m]
	}
	return (xs[m-1] + xs[m]) / 2
}

// usage is a process resource snapshot.
type usage struct {
	wall    time.Time
	cpu     time.Duration // user + system CPU of the whole process
	mallocs uint64        // cumulative heap allocations
	numGC   uint32
	pauseNs uint64
}

// cpuTime reads the process's user+system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// maxRSSMB reads the process's peak resident set size in MiB (Linux reports
// ru_maxrss in KiB).
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// snapshot reads the resource counters a measured window is bracketed by.
func snapshot() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{wall: time.Now(), cpu: cpuTime(), mallocs: ms.Mallocs, numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

// begin starts a measured window from a freshly collected heap, so no
// window inherits the collection debt of the work before it.
func begin() usage {
	runtime.GC()
	return snapshot()
}

// window is what the process spent between two snapshots.
type window struct {
	wall    time.Duration
	cpu     time.Duration
	mallocs uint64
	gcs     uint32
	pause   time.Duration
}

func since(start usage) window {
	end := snapshot()
	return window{
		wall:    end.wall.Sub(start.wall),
		cpu:     end.cpu - start.cpu,
		mallocs: end.mallocs - start.mallocs,
		gcs:     end.numGC - start.numGC,
		pause:   time.Duration(end.pauseNs - start.pauseNs),
	}
}

// ms converts a duration to fractional milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// minGroups is the fewest op groups a measured window holds. A window runs
// for at least --seconds and at least this many groups; its metrics are
// medians over the groups, so a burst of load from elsewhere on a shared
// host moves at most a minority of them.
const minGroups = 5

// recorder splits a measured window into groups of size consecutive ops
// and snapshots the process at each group boundary. size is at least the
// fewest samples the window's tail percentile needs, so every group yields
// one.
type recorder struct {
	size  int
	start usage
	mu    sync.Mutex
	marks map[int]usage // group k ends at marks[k]; marks[0] is the start
}

func newRecorder(size int) *recorder {
	r := &recorder{size: size, marks: map[int]usage{}}
	r.start = begin()
	r.marks[0] = r.start
	return r
}

// done notes that the n-th op of the window (counting from 1) completed.
func (r *recorder) done(n int64) {
	if n%int64(r.size) != 0 {
		return
	}
	u := snapshot()
	r.mu.Lock()
	r.marks[int(n)/r.size] = u
	r.mu.Unlock()
}

// groups is the number of complete groups so far.
func (r *recorder) groups() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.marks) - 1
}

// groupStats are a window's per-group medians.
type groupStats struct {
	groups                 int
	opsPerS, cpuMs, allocs float64
	p50, tail              float64
	tailQ                  float64 // the tail percentile, e.g. 0.99
	whole                  window  // the whole window, for totals
	ops                    int     // ops in complete groups
}

// stats computes the per-group medians. lat holds each op's wall time in
// ms, indexed by completion order; ops past the last complete group are
// left out.
func (r *recorder) stats(lat []float64, tail float64) (groupStats, error) {
	gs := groupStats{tailQ: tail, whole: since(r.start)}
	r.mu.Lock()
	k := len(r.marks) - 1
	marks := make([]usage, k+1)
	for i := range marks {
		marks[i] = r.marks[i]
	}
	r.mu.Unlock()
	if k < minGroups || len(lat) < k*r.size {
		return gs, fmt.Errorf("%d complete groups of %d ops (%d latencies), want ≥ %d", k, r.size, len(lat), minGroups)
	}
	var rate, cpu, allocs, p50s, tails []float64
	for g := 1; g <= k; g++ {
		a, b := marks[g-1], marks[g]
		n := float64(r.size)
		rate = append(rate, n/b.wall.Sub(a.wall).Seconds())
		cpu = append(cpu, ms(b.cpu-a.cpu)/n)
		allocs = append(allocs, float64(b.mallocs-a.mallocs)/n)
		group := append([]float64(nil), lat[(g-1)*r.size:g*r.size]...)
		p50, err := percentile(group, 0.5)
		if err != nil {
			return gs, err
		}
		pt, err := percentile(group, tail)
		if err != nil {
			return gs, err
		}
		p50s, tails = append(p50s, p50), append(tails, pt)
	}
	gs.groups, gs.ops = k, k*r.size
	gs.opsPerS, gs.cpuMs, gs.allocs = median(rate), median(cpu), median(allocs)
	gs.p50, gs.tail = median(p50s), median(tails)
	return gs, nil
}
