package main

import (
	"testing"
	"time"
)

func sp(start, end int64) span { return span{Start: start, End: end, Parent: -1} }

func TestSelfTime(t *testing.T) {
	for _, tc := range []struct {
		name string
		kids []span
		want time.Duration
	}{
		{"no children", nil, 100},
		{"disjoint", []span{sp(10, 20), sp(30, 50)}, 70},
		{"overlapping children count once", []span{sp(10, 40), sp(30, 60)}, 50},
		{"nested child inside child", []span{sp(10, 60), sp(20, 30)}, 50},
		{"clipped to the parent", []span{sp(-20, 10), sp(90, 150)}, 80},
		{"outside the parent", []span{sp(200, 300)}, 100},
		{"covers it all", []span{sp(0, 100)}, 0},
	} {
		if got := selfTime(sp(0, 100), tc.kids); got != tc.want {
			t.Errorf("%s: self time %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestSelfTimesAddUp builds a request → handler → device tree by hand and
// checks the ledger the serve workloads report: the self times of the
// three levels add up to the request span, also when a late hedge attempt
// outlives the handler.
func TestSelfTimesAddUp(t *testing.T) {
	bs := []body{{hash: 7}, {hash: 9}}
	tr := &tracer{}
	tr.spans = []span{
		{Name: "bench.request", ID: 0, Start: 0, End: 1000, Parent: -1},
		{Name: "netserve.handler", ID: 0, Start: 100, End: 900, Parent: -1},
		{Name: "engine.serve", Start: 200, End: 500, Key: 7, Parent: -1},
		{Name: "engine.serve", Start: 400, End: 950, Key: 7, Parent: -1}, // hedge, ends late
		{Name: "bench.request", ID: 1, Start: 2000, End: 2500, Parent: -1},
		{Name: "netserve.handler", ID: 1, Start: 2100, End: 2400, Parent: -1},
		{Name: "engine.serve", Start: 2450, End: 2600, Key: 9, Parent: -1}, // abandoned hedge
	}
	j := joinRequests(tr, bs)
	if j.unjoined != 0 || j.late != 1 {
		t.Fatalf("unjoined %d, late %d; want 0, 1", j.unjoined, j.late)
	}
	if j.maxGap > 1e-9 {
		t.Fatalf("self times miss the request span by %v ms", j.maxGap)
	}
	// request 0: client 200, handler 100 + device 700; request 1: client
	// 200, handler 300, device 0 — means in ms
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"client", j.clientSelf, 200e-6},
		{"handler", j.handlerSelf, 200e-6},
		{"device", j.deviceSelf, 350e-6},
		{"request", j.request, 750e-6},
	} {
		if d := c.got - c.want; d > 1e-12 || d < -1e-12 {
			t.Errorf("%s self time %v ms, want %v", c.name, c.got, c.want)
		}
	}
	if tr.spans[2].Parent != 1 || tr.spans[3].Parent != 1 || tr.spans[6].Parent != 5 {
		t.Errorf("device spans joined to %d, %d, %d; want 1, 1, 5",
			tr.spans[2].Parent, tr.spans[3].Parent, tr.spans[6].Parent)
	}
}

func TestTracerOff(t *testing.T) {
	var nilTracer *tracer
	if nilTracer.now() != 0 || nilTracer.add("x", 0, -1, 1, 0) != -1 {
		t.Error("a nil tracer recorded")
	}
	tr := &tracer{epoch: time.Now()}
	if tr.add("x", 0, -1, tr.now(), 0) != -1 {
		t.Error("a disabled tracer recorded")
	}
	tr.enable()
	start := tr.now()
	if i := tr.add("x", 3, -1, start, 0); i != 0 || tr.spans[0].ID != 3 {
		t.Errorf("enabled tracer: index %d, spans %+v", i, tr.spans)
	}
	if tr.add("y", 0, -1, 0, 0) != -1 {
		t.Error("recorded a span that started while tracing was off")
	}
}
