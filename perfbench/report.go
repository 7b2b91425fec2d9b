package main

import "sort"

// endToEnd fills the end-to-end metrics from one untraced measured window.
// An op is a request (serve-*), a monitoring round (crossbar-monitor) or a
// fault model (fault-sweep).
func (o *outcome) endToEnd(setup []float64, gs groupStats) {
	o.e2e["setup_s"] = metric{median(append([]float64(nil), setup...)), "s"}
	o.e2e["ops_per_s"] = metric{gs.opsPerS, "1/s"}
	o.e2e["latency_p50_ms"] = metric{gs.p50, "ms"}
	o.e2e["latency_tail_ms"] = metric{gs.tail, "ms"}
	o.e2e["cpu_ms_per_op"] = metric{gs.cpuMs, "ms"}
	o.e2e["allocs_per_op"] = metric{gs.allocs, "count"}
	o.e2e["max_rss_mb"] = metric{maxRSSMB(), "MB"}
	o.say("%d ops in %.2f s: medians over %d groups of %d, tail p%g; %d set-ups",
		gs.ops, gs.whole.wall.Seconds(), gs.groups, gs.ops/gs.groups, 100*gs.tailQ, len(setup))
}

// runtimeLayers reports the Go runtime's share of a traced window.
func (o *outcome) runtimeLayers(w window, ops int) {
	o.layer("runtime.gc_cycles_per_1k_ops", "count", 1000*float64(w.gcs)/float64(ops))
	o.layer("runtime.gc_pause_ms", "ms", ms(w.pause))
}

// setupLayers reports the LeNet-5 set-up stages, medians over the set-ups.
func (o *outcome) setupLayers(t setupTimes) {
	o.layer("dataset.synth_s", "s", median(t.synth))
	o.layer("models.train_s", "s", median(t.training))
	o.layer("testgen.ctp_s", "s", median(t.ctp))
}

// sortedKeys returns m's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
