// Command perfbench is the repository benchmark. It runs one workload from a
// workload seed, checks the program's outputs and prints the metrics named in
// BENCHMARK.json: end-to-end metrics with tracing off, per-layer metrics from
// a separate traced run.
//
//	bash perfbench/run.sh --workload serve-lenet5 --seed 1 --seconds 15 --trace 0
//
// It must run from the repository root, where it reads BENCHMARK.json. The
// last line of standard output is one JSON object with the keys correct,
// attempted, failed and metrics. Any failed correctness check makes the exit
// code non-zero. --workload all runs every workload in its own process and
// prints each one's metrics.
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"
)

// workloads maps each workload name to its runner.
var workloads = map[string]func(cfg runConfig) (*outcome, error){
	"serve-mlp":        runServeMLP,
	"serve-lenet5":     runServeLeNet5,
	"crossbar-monitor": runCrossbar,
	"fault-sweep":      runSweep,
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is a workload run's result.
type outcome struct {
	attempted, failed int
	problems          []string          // failed correctness checks, one line each
	e2e               map[string]metric // end-to-end metrics (untraced run)
	layers            map[string]metric // per-layer metrics (traced run)
	report            []string          // human-readable lines
	trace             *tracer           // the traced window's spans (nil when untraced)
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]metric{}, layers: map[string]metric{}}
}

// fail records a failed correctness check.
func (o *outcome) fail(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// layer sets one per-layer metric.
func (o *outcome) layer(name, unit string, v float64) { o.layers[name] = metric{v, unit} }

// say adds a human-readable report line.
func (o *outcome) say(format string, args ...any) {
	o.report = append(o.report, fmt.Sprintf(format, args...))
}

// spec is the part of BENCHMARK.json the command checks its output against.
type spec struct {
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func main() {
	workload := flag.String("workload", "", "workload name, or all")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "length of the measured window, seconds")
	trace := flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
	flag.Parse()

	if err := run(*workload, *seed, *seconds, *trace); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(workload string, seed int64, seconds float64, trace int) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("read BENCHMARK.json (run from the repository root): %w", err)
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("parse BENCHMARK.json: %w", err)
	}
	if trace != 0 && trace != 1 {
		return fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive, got %g", seconds)
	}
	if workload == "all" {
		return runAll(seed, seconds, trace)
	}
	runner, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown --workload %q (want one of %v or all)", workload, workloadNames())
	}

	cfg := runConfig{seed: seed, seconds: time.Duration(seconds * float64(time.Second)), trace: trace == 1}
	o, err := runner(cfg)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	metrics, err := pickMetrics(o, sp, cfg.trace)
	if err != nil {
		return fmt.Errorf("%s: %w", workload, err)
	}
	if o.trace != nil {
		if err := writeTrace(o.trace, workload, seed); err != nil {
			return fmt.Errorf("%s: %w", workload, err)
		}
	}

	fmt.Printf("workload %s seed %d trace %d\n", workload, seed, trace)
	for _, line := range o.report {
		fmt.Println("  " + line)
	}
	for _, n := range sortedKeys(metrics) {
		fmt.Printf("  %-32s %14.6g %s\n", n, metrics[n].Value, metrics[n].Unit)
	}
	for _, p := range o.problems {
		fmt.Println("  CHECK FAILED: " + p)
	}
	if len(o.problems) > 0 {
		return fmt.Errorf("%s: %d correctness check(s) failed", workload, len(o.problems))
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{true, o.attempted, o.failed, metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// pickMetrics picks the metrics BENCHMARK.json names for this kind of run and
// checks their units. Every end-to-end metric must be measured; a per-layer
// metric of a layer the workload does not exercise reads 0.
func pickMetrics(o *outcome, sp spec, traced bool) (map[string]metric, error) {
	out := map[string]metric{}
	if !traced {
		for _, m := range sp.EndToEnd {
			v, ok := o.e2e[m.Name]
			if !ok {
				return nil, fmt.Errorf("end-to-end metric %s was not measured", m.Name)
			}
			if v.Unit != m.Unit {
				return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
			}
			out[m.Name] = v
		}
		return out, nil
	}
	known := map[string]bool{}
	for _, m := range sp.PerLayer {
		known[m.Name] = true
		v, ok := o.layers[m.Name]
		if !ok {
			v = metric{0, m.Unit}
		}
		if v.Unit != m.Unit {
			return nil, fmt.Errorf("metric %s measured in %s, BENCHMARK.json says %s", m.Name, v.Unit, m.Unit)
		}
		out[m.Name] = v
	}
	for n := range o.layers {
		if !known[n] {
			return nil, fmt.Errorf("per-layer metric %s is not listed in BENCHMARK.json", n)
		}
	}
	return out, nil
}

func workloadNames() []string { return sortedKeys(workloads) }

// runAll runs every workload in a child process of its own (so each one's
// peak memory is its own), relays the children's reports and fails if any
// child does.
func runAll(seed int64, seconds float64, trace int) error {
	self, err := os.Executable()
	if err != nil {
		return err
	}
	failed := 0
	all := map[string]json.RawMessage{}
	for _, w := range workloadNames() {
		var stdout bytes.Buffer
		cmd := exec.Command(self, "--workload", w, "--seed", strconv.FormatInt(seed, 10),
			"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", strconv.Itoa(trace))
		cmd.Stdout = io.MultiWriter(&stdout, os.Stdout)
		cmd.Stderr = os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w, err)
			failed++
			continue
		}
		last := ""
		sc := bufio.NewScanner(&stdout)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		for sc.Scan() {
			last = sc.Text()
		}
		all[w] = json.RawMessage(last)
	}
	if failed > 0 {
		return fmt.Errorf("%d workload(s) failed", failed)
	}
	line, err := json.Marshal(all)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traceDir is where traced runs write their spans: inside the checkout's
// build directory, which git ignores.
func traceDir() string { return filepath.Join(".bench_build", "traces") }

// writeTrace writes the traced run's spans out once the run has ended.
func writeTrace(tr *tracer, workload string, seed int64) error {
	if err := os.MkdirAll(traceDir(), 0o755); err != nil {
		return err
	}
	return tr.writeFile(filepath.Join(traceDir(), fmt.Sprintf("%s-seed%d.jsonl", workload, seed)))
}
