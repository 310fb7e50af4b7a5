// Command benchmark is the repository's end-to-end benchmark. It trains
// the paper's CartPole-v0 agents at 64 hidden units on fixed episode
// budgets (the float OS-ELM design, the Q20 FPGA datapath, and the float
// design again with telemetry on) and serves a trained policy in process.
// Each workload repeats its fixed work until -seconds have passed,
// reports medians over the repetitions, checks every output, prints each
// metric by name with its unit and ends with one JSON result line.
//
// Usage:
//
//	go run ./benchmark -seed 1                     # every workload, end-to-end metrics
//	go run ./benchmark -workload train-fpga-64 -seed 2
//	go run ./benchmark -trace 1 -trace-dir out     # per-layer metrics, span timelines
//	go run ./benchmark -json results.json          # one record per metric
//
// The exit code is 0 only when every check passed. benchmark/README.md
// documents the workloads, the metrics and their regression bounds.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"time"

	"oselmrl/internal/obs"
	"oselmrl/internal/obs/export"
)

// hidden is the paper's headline width; width scaling stays with the
// go test -bench rows.
const hidden = 64

// traceMaxSpans caps each traced repetition's span timeline. Spans past
// the cap are counted as dropped; the per-layer sums use accumulators and
// see every call.
const traceMaxSpans = 1 << 16

// budgets fixes the work of one repetition of each workload.
type budgets struct {
	// floatEpisodes is the episode budget of train-oselm-64 and of its
	// telemetry twin; the two must match for their digests to agree.
	floatEpisodes int
	fpgaEpisodes  int
	// checkpointEpisodes trains the served policy during preparation.
	checkpointEpisodes int
	// requestsPerClient is each closed-loop client's request count.
	requestsPerClient int
	// setupPanel is how many timed set-ups, one per panel seed, precede
	// each repetition; setup_s is their median over the run.
	setupPanel int
}

// defaultBudgets size each repetition at one to three seconds on a 2-core
// x86 machine, so a 20 s run holds a warm-up and 5–25 measured
// repetitions. A training repetition spans several 300-episode reset
// cycles, which keeps the mix of work per step from depending much on the
// seed.
var defaultBudgets = budgets{
	floatEpisodes:      8000,
	fpgaEpisodes:       2000,
	checkpointEpisodes: 200,
	requestsPerClient:  100000,
	setupPanel:         16,
}

// config is one benchmark invocation.
type config struct {
	workloads []string
	seed      uint64
	seconds   time.Duration
	trace     bool
	traceDir  string
	jsonPath  string
	budgets   budgets
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "all", "workload to run: all, or one of "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed (2 is the held-out seed)")
	seconds := fs.Float64("seconds", 20, "measure each workload for about this many seconds")
	trace := fs.Int("trace", 0, "1 adds a traced pass, prints its per-layer metrics and puts them on the result line instead of the end-to-end ones")
	traceDir := fs.String("trace-dir", "", "with -trace 1, write each workload's span timeline to <dir>/trace-<workload>.json")
	jsonPath := fs.String("json", "", "write one {workload, metric, value, unit, samples} record per metric to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "benchmark: -trace must be 0 or 1")
		return 2
	}
	names := workloadNames
	if *workload != "all" {
		if !knownWorkload(*workload) {
			fmt.Fprintf(stderr, "benchmark: unknown workload %q (want all or one of %s)\n",
				*workload, strings.Join(workloadNames, ", "))
			return 2
		}
		names = []string{*workload}
	}
	cfg := config{
		workloads: names,
		seed:      *seed,
		seconds:   time.Duration(*seconds * float64(time.Second)),
		trace:     *trace == 1,
		traceDir:  *traceDir,
		jsonPath:  *jsonPath,
		budgets:   defaultBudgets,
	}
	ok, err := execute(cfg, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if !ok {
		fmt.Fprintln(stderr, "benchmark: output checks failed")
		return 1
	}
	return 0
}

// metricDef names a reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; every workload
// reports each of them. Training measures per env step, serving per
// request.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_us_p50", "us"},
	{"latency_us_p99", "us"},
	{"allocs_per_op", "count"},
	{"live_heap_mb", "MB"},
	{"setup_s", "s"},
}

// phases are the timing phases the ELM-family designs record.
var phases = []string{"seq_train", "predict_seq", "init_train", "predict_init"}

// perLayer are the traced pass's metrics; a layer a workload does not
// exercise reports 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"harness.self_s", "s"},
		{"env.step.calls", "count"},
		{"env.step.busy_s", "s"},
		{"env.reset.busy_s", "s"},
	}
	for _, layer := range []string{"qnet", "fpga"} {
		for _, call := range []string{"select_action", "observe", "reinitialize"} {
			defs = append(defs,
				metricDef{layer + "." + call + ".calls", "count"},
				metricDef{layer + "." + call + ".busy_s", "s"})
		}
		defs = append(defs, metricDef{layer + ".end_episode.busy_s", "s"})
	}
	for _, p := range phases {
		defs = append(defs,
			metricDef{"timing." + p + ".calls", "count"},
			metricDef{"timing." + p + ".work", "count"},
			metricDef{"timing." + p + ".model_s", "s"})
	}
	return append(defs,
		metricDef{"model_device_us_per_step", "us"},
		metricDef{"fpga.core.cycles", "count"},
		metricDef{"fpga.denom_guard_trips", "count"},
		metricDef{"go.allocs", "count"},
		metricDef{"go.gc_cycles", "count"},
		metricDef{"go.gc_pause_s", "s"},
		metricDef{"obs.sink.writes", "count"},
		metricDef{"obs.sink.bytes", "bytes"},
		metricDef{"obs.sink.busy_s", "s"},
		metricDef{"obs.tracer.spans", "count"},
		metricDef{"obs.tracer.dropped", "count"},
		metricDef{"obs.watchdog.alerts", "count"},
		metricDef{"serve.handler.calls", "count"},
		metricDef{"serve.handler.busy_s", "s"},
		metricDef{"serve.queue_us_p50", "us"},
		metricDef{"serve.queue_us_p99", "us"},
		metricDef{"serve.eval_us_p50", "us"},
		metricDef{"serve.eval_us_p99", "us"},
		metricDef{"serve.other_us_p50", "us"},
		metricDef{"serve.other_us_p99", "us"},
		metricDef{"serve.status_429", "count"},
		metricDef{"serve.status_5xx", "count"},
		metricDef{"trace.overhead_frac", "ratio"},
	)
}()

// metric is one reported value. samples is the number of observations
// behind it: repetitions for a median, observations for a percentile.
type metric struct {
	name    string
	value   float64
	unit    string
	samples int
}

// record is one -json entry.
type record struct {
	Workload string  `json:"workload"`
	Metric   string  `json:"metric"`
	Value    float64 `json:"value"`
	Unit     string  `json:"unit"`
	Samples  int     `json:"samples"`
}

// resultLine is the final line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// execute runs cfg's workloads, prints their metrics and the result line,
// and reports whether every check passed.
func execute(cfg config, stdout io.Writer) (bool, error) {
	tmp, err := os.MkdirTemp("", "oselmrl-benchmark-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(tmp)

	line := resultLine{Metrics: make(map[string]metricValue)}
	var records []record
	for _, name := range cfg.workloads {
		dir := filepath.Join(tmp, name)
		if err := os.Mkdir(dir, 0o755); err != nil {
			return false, err
		}
		w, err := newWorkload(name, cfg.seed, cfg.budgets, dir)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		out, err := measure(name, w, cfg)
		if err != nil {
			return false, fmt.Errorf("%s: %w", name, err)
		}
		ms := out.metrics(cfg.trace)
		fmt.Fprintf(stdout, "%s  seed %d  warm-up + %d untraced + %d traced repetitions  %d ops  %d failed\n",
			name, cfg.seed, len(out.pass(false)), len(out.pass(true)), out.attempted(), out.failed())
		for _, m := range ms {
			fmt.Fprintf(stdout, "  %-28s %18.6f %-6s samples=%d\n", m.name, m.value, m.unit, m.samples)
			records = append(records, record{name, m.name, m.value, m.unit, m.samples})
		}
		line.Attempted += out.attempted()
		line.Failed += out.failed()
		// The result line carries the metrics of the selected pass only;
		// with several workloads their names are prefixed.
		defs := endToEnd
		if cfg.trace {
			defs = perLayer
		}
		for _, m := range ms {
			if !hasMetric(defs, m.name) {
				continue
			}
			key := m.name
			if len(cfg.workloads) > 1 {
				key = name + "/" + m.name
			}
			line.Metrics[key] = metricValue{m.value, m.unit}
		}
	}
	line.Correct = line.Failed == 0
	if cfg.jsonPath != "" {
		if err := writeJSON(cfg.jsonPath, records); err != nil {
			return false, err
		}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return line.Correct, nil
}

func hasMetric(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// writeTrace writes a traced repetition's spans to dir/trace-<name>.json
// in the Chrome trace-event format the obs exporter already produces.
func writeTrace(dir, name string, seed uint64, tr *obs.Tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+name+".json"))
	if err != nil {
		return err
	}
	meta := export.TraceMeta{
		Tool:    "benchmark",
		Labels:  map[string]string{"workload": name, "seed": fmt.Sprint(seed)},
		Dropped: tr.Dropped(),
	}
	if err := export.WriteTrace(f, tr.Spans(), meta); err != nil {
		f.Close()
		return fmt.Errorf("trace %s: %w", name, err)
	}
	return f.Close()
}
