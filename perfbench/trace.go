package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side of
// the boundary. Spans of one request or round share an id; parent is the
// index of the enclosing span in the trace, or -1 for a root.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"`
	Start  int64  `json:"start_ns"` // since the tracer's epoch
	End    int64  `json:"end_ns"`
	N      int    `json:"n,omitempty"` // items the call processed (rows, cells)
	// Key carries what a span needs to be joined to its parent after the
	// run (a device span's input hash); it is not written out.
	Key uint64 `json:"-"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends. It records only while
// enabled, and a nil *tracer (the untraced runs) never records, so an
// untraced boundary costs one check.
type tracer struct {
	epoch   time.Time
	enabled atomic.Bool
	mu      sync.Mutex
	spans   []span
}

// traceFor returns the run's tracer: nil unless the run is traced. A traced
// run measures an untraced window first, then enables the tracer.
func traceFor(cfg runConfig) *tracer {
	if !cfg.trace {
		return nil
	}
	return &tracer{epoch: time.Now(), spans: make([]span, 0, 1<<16)}
}

func (t *tracer) on() bool { return t != nil && t.enabled.Load() }
func (t *tracer) enable()  { t.enabled.Store(true) }
func (t *tracer) disable() { t.enabled.Store(false) }

// now returns the tracer clock; zero while tracing is off.
func (t *tracer) now() int64 {
	if !t.on() {
		return 0
	}
	return int64(time.Since(t.epoch))
}

// add records a finished span [start, now) and returns its index; it
// returns -1 and records nothing while tracing is off, or when the span
// started before tracing was enabled (start == 0).
func (t *tracer) add(name string, id int64, parent int, start int64, key uint64) int {
	return t.addN(name, id, parent, start, key, 0)
}

// addN is add for a span that processed n items.
func (t *tracer) addN(name string, id int64, parent int, start int64, key uint64, n int) int {
	if !t.on() || start == 0 {
		return -1
	}
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end, N: n, Key: key})
	i := len(t.spans) - 1
	t.mu.Unlock()
	return i
}

// sumMs totals the durations of every span called name, in milliseconds,
// and counts them.
func (t *tracer) sumMs(name string) (total float64, n int) {
	for _, s := range t.spans {
		if s.Name == name {
			total += ms(s.dur())
			n++
		}
	}
	return total, n
}

// meanMs is the mean duration of the spans called name (0 when none).
func (t *tracer) meanMs(name string) float64 {
	total, n := t.sumMs(name)
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// children maps each span index to the indices of the spans naming it as
// parent.
func (t *tracer) children() map[int][]int {
	out := make(map[int][]int)
	for i, s := range t.spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], i)
		}
	}
	return out
}

// linkByID makes each span called child a child of the span called parent
// that shares its id.
func (t *tracer) linkByID(child, parent string) {
	byID := map[int64]int{}
	for i, s := range t.spans {
		if s.Name == parent {
			byID[s.ID] = i
		}
	}
	for i := range t.spans {
		if t.spans[i].Name == child {
			if p, ok := byID[t.spans[i].ID]; ok {
				t.spans[i].Parent = p
			}
		}
	}
}

// selfTime is the span's duration minus the part of it its children cover.
// Children are clipped to the parent's interval and overlapping children are
// counted once, so the self times along a tree add up to the root's duration.
func selfTime(parent span, kids []span) time.Duration {
	type iv struct{ lo, hi int64 }
	cover := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			cover = append(cover, iv{lo, hi})
		}
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i].lo < cover[j].lo })
	var covered, reach int64 = 0, parent.Start
	for _, c := range cover {
		if c.lo > reach {
			reach = c.lo
		}
		if c.hi > reach {
			covered += c.hi - reach
			reach = c.hi
		}
	}
	return parent.dur() - time.Duration(covered)
}

// selfTimes returns the self time of every span called name.
func (t *tracer) selfTimes(name string) []time.Duration {
	kids := t.children()
	var out []time.Duration
	for i, s := range t.spans {
		if s.Name != name {
			continue
		}
		ks := make([]span, 0, len(kids[i]))
		for _, k := range kids[i] {
			ks = append(ks, t.spans[k])
		}
		out = append(out, selfTime(s, ks))
	}
	return out
}

// meanSelfMs is the mean self time of the spans called name.
func (t *tracer) meanSelfMs(name string) float64 {
	st := t.selfTimes(name)
	if len(st) == 0 {
		return 0
	}
	var total time.Duration
	for _, d := range st {
		total += d
	}
	return ms(total) / float64(len(st))
}

// writeFile writes the spans out as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return fmt.Errorf("write trace: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}
