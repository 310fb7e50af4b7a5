package main

import (
	"fmt"
	"runtime"
	"strings"
	"time"

	"oselmrl/internal/obs"
	"oselmrl/internal/stats"
)

// workload is one benchmarked system. Its constructor does the untimed
// preparation; setup builds the system under test from scratch; rep runs
// one fixed-work repetition on what the last setup built. A non-nil
// tracer marks the traced pass: the workload then times each layer from
// outside and records spans into it.
type workload interface {
	// setup with variant 0 builds the system the next repetition runs.
	// Variants 1 to budgets.setupPanel are the timed set-up panel: the
	// same system built from a fixed seed per variant, the same in every
	// run, so that set-up work which depends on the seed is sampled alike
	// whatever the run's seed.
	setup(variant uint64) error
	rep(tr *obs.Tracer) (*repResult, error)
	// procs is the GOMAXPROCS the workload runs under; 0 keeps the default.
	procs() int
}

var workloadNames = []string{"train-oselm-64", "train-fpga-64", "train-oselm-64-telemetry", "serve-act-closed"}

func knownWorkload(name string) bool {
	for _, n := range workloadNames {
		if n == name {
			return true
		}
	}
	return false
}

func newWorkload(name string, seed uint64, b budgets, dir string) (workload, error) {
	switch name {
	case "train-oselm-64":
		return newTrainWorkload(trainFloat, b.floatEpisodes, seed, "")
	case "train-fpga-64":
		return newTrainWorkload(trainFPGA, b.fpgaEpisodes, seed, "")
	case "train-oselm-64-telemetry":
		return newTrainWorkload(trainFloat, b.floatEpisodes, seed, dir)
	case "serve-act-closed":
		return newServeWorkload(seed, b, dir)
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// repResult is what one repetition measured.
type repResult struct {
	traced bool
	// ops is the work done: env steps or requests.
	ops int
	// failed counts failed operations and failed output checks.
	failed int
	wall   time.Duration
	// latP50 and latP99 are percentiles of latN latencies: host µs per
	// step of each episode, or µs per request.
	latP50, latP99 float64
	latN           int
	// allocs, gcCycles and gcPause are runtime deltas over the timed part.
	allocs, gcCycles uint64
	gcPause          time.Duration
	// heapMB is the live heap after a GC, taken while the results are held.
	heapMB float64
	// layers holds per-layer values; deterministic counts are filled on
	// both passes, timings on the traced pass only.
	layers map[string]float64
}

// setLatency summarizes one repetition's latencies; the samples are not
// kept, so the live heap does not grow with the number of repetitions.
func (r *repResult) setLatency(us []float64) {
	r.latN = len(us)
	if len(us) > 0 {
		r.latP50 = stats.Percentile(us, 50)
		r.latP99 = stats.Percentile(us, 99)
	}
}

// memStats is the part of runtime.MemStats a repetition reports.
type memStats struct {
	mallocs, numGC uint64
	pause          time.Duration
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{m.Mallocs, uint64(m.NumGC), time.Duration(m.PauseTotalNs)}
}

// setDelta stores the runtime deltas between two readMem calls.
func (r *repResult) setDelta(before, after memStats) {
	r.allocs = after.mallocs - before.mallocs
	r.gcCycles = after.numGC - before.numGC
	r.gcPause = after.pause - before.pause
}

// liveHeapMB collects garbage and returns the live heap in MB; callers
// keep their results reachable across the call.
func liveHeapMB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / 1e6
}

// outcome is everything measured for one workload.
type outcome struct {
	setups []time.Duration
	// warmup is the first repetition: its outputs are checked, its
	// timings are not reported.
	warmup *repResult
	reps   []*repResult
}

// measure runs repetitions, each after the timed set-up panel, for the
// configured time: a repetition starts only if the previous one's
// duration says it will end in time. The first repetition warms the
// process up (heap growth, caches) and is not timed. After it, with
// tracing, traced and untraced repetitions alternate, so both passes see
// the same machine conditions; each pass runs at least once. With a trace
// directory, the first traced repetition's spans are written out right
// away rather than held, so they do not count in later live heaps.
func measure(name string, w workload, cfg config) (*outcome, error) {
	if p := w.procs(); p > 0 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(p))
	}
	out := &outcome{}
	start := time.Now()
	var last time.Duration
	for i := 0; ; i++ {
		traced := cfg.trace && i%2 == 1
		done := len(out.pass(false)) > 0 && (!cfg.trace || len(out.pass(true)) > 0)
		if done && time.Since(start)+last > cfg.seconds {
			break
		}
		iter := time.Now()
		var tr *obs.Tracer
		if traced {
			tr = obs.NewTracer()
			tr.SetMaxSpans(traceMaxSpans)
		}
		// The whole set-up panel is timed before every repetition, so each
		// repetition adds the same mix of samples, all taken in the same
		// warm state. The system the repetition runs is then built untimed.
		for v := 1; v <= cfg.budgets.setupPanel; v++ {
			t0 := time.Now()
			if err := w.setup(uint64(v)); err != nil {
				return nil, fmt.Errorf("setup: %w", err)
			}
			if i > 0 {
				out.setups = append(out.setups, time.Since(t0))
			}
		}
		if err := w.setup(0); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		r, err := w.rep(tr)
		if err != nil {
			return nil, err
		}
		r.traced = traced
		if i == 0 {
			out.warmup = r
		} else {
			// The untraced warm-up recorded only deterministic counts; every
			// repetition, traced or not, must repeat them exactly. Untraced
			// ones then drop theirs, so the benchmark's own bookkeeping does
			// not grow the live heap it measures.
			for k, v := range out.warmup.layers {
				if r.layers[k] != v {
					r.failed++
					break
				}
			}
			if !traced {
				r.layers = nil
			}
			out.reps = append(out.reps, r)
		}
		if i == 1 && traced && cfg.traceDir != "" {
			if err := writeTrace(cfg.traceDir, name, cfg.seed, tr); err != nil {
				return nil, err
			}
		}
		last = time.Since(iter)
	}
	return out, nil
}

func (o *outcome) attempted() int64 {
	n := int64(o.warmup.ops)
	for _, r := range o.reps {
		n += int64(r.ops)
	}
	return n
}

func (o *outcome) failed() int64 {
	n := int64(o.warmup.failed)
	for _, r := range o.reps {
		n += int64(r.failed)
	}
	return n
}

// pass returns the untraced or the traced repetitions.
func (o *outcome) pass(traced bool) []*repResult {
	var out []*repResult
	for _, r := range o.reps {
		if r.traced == traced {
			out = append(out, r)
		}
	}
	return out
}

// fastQuartile is the percentile across repetitions at which end-to-end
// times are read (100 minus it for rates). On a machine shared with other
// tenants, their bursts of load slow some repetitions by a third or more
// and double a per-episode p99, while nothing makes a repetition faster
// than the code allows. The faster quartile moves only when more than
// three quarters of a run's repetitions were disturbed; the median moved
// with every run that was half disturbed.
const fastQuartile = 25

// across is the p-th percentile of one value taken from each repetition.
func across(reps []*repResult, p float64, f func(*repResult) float64) float64 {
	if len(reps) == 0 {
		return 0
	}
	xs := make([]float64, len(reps))
	for i, r := range reps {
		xs[i] = f(r)
	}
	return stats.Percentile(xs, p)
}

func throughput(r *repResult) float64 { return float64(r.ops) / r.wall.Seconds() }

// metrics returns the end-to-end metrics from the untraced repetitions,
// then, with tracing, the per-layer metrics. A latency percentile is
// taken within each repetition first. End-to-end times are then read at
// the faster quartile across repetitions, counts and sizes at the median;
// setup_s is the median of every timed set-up.
func (o *outcome) metrics(trace bool) []metric {
	plain := o.pass(false)
	n := len(plain)
	latN := 0
	for _, r := range plain {
		latN += r.latN
	}
	setups := make([]float64, len(o.setups))
	for i, d := range o.setups {
		setups[i] = d.Seconds()
	}
	ms := []metric{
		{"throughput_per_s", across(plain, 100-fastQuartile, throughput), "1/s", n},
		{"latency_us_p50", across(plain, fastQuartile, func(r *repResult) float64 { return r.latP50 }), "us", latN},
		{"latency_us_p99", across(plain, fastQuartile, func(r *repResult) float64 { return r.latP99 }), "us", latN},
		{"allocs_per_op", across(plain, 50, func(r *repResult) float64 { return float64(r.allocs) / float64(r.ops) }), "count", n},
		{"live_heap_mb", across(plain, 50, func(r *repResult) float64 { return r.heapMB }), "MB", n},
		{"setup_s", stats.Percentile(setups, 50), "s", len(setups)},
		{"failed_frac", float64(o.failed()) / float64(o.attempted()), "ratio", int(o.attempted())},
	}
	if !trace {
		// The modelled device time is exact and every repetition repeated
		// the warm-up's value; the traced pass lists it with the layers.
		if v, ok := o.warmup.layers["model_device_us_per_step"]; ok {
			ms = append(ms, metric{"model_device_us_per_step", v, "us", n})
		}
		return ms
	}

	traced := o.pass(true)
	layer := make(map[string]float64)
	for _, r := range traced {
		for k := range r.layers {
			if _, done := layer[k]; !done {
				layer[k] = across(traced, 50, func(r *repResult) float64 { return r.layers[k] })
			}
		}
	}
	layer["go.allocs"] = across(plain, 50, func(r *repResult) float64 { return float64(r.allocs) })
	layer["go.gc_cycles"] = across(plain, 50, func(r *repResult) float64 { return float64(r.gcCycles) })
	layer["go.gc_pause_s"] = across(plain, 50, func(r *repResult) float64 { return r.gcPause.Seconds() })
	layer["trace.overhead_frac"] = 1 - across(traced, 100-fastQuartile, throughput)/across(plain, 100-fastQuartile, throughput)
	tracedOps := 0
	for _, r := range traced {
		tracedOps += r.ops
	}
	for _, d := range perLayer {
		samples := len(traced)
		if strings.HasSuffix(d.name, "_p50") || strings.HasSuffix(d.name, "_p99") {
			samples = tracedOps
		}
		ms = append(ms, metric{d.name, layer[d.name], d.unit, samples})
	}
	return ms
}
