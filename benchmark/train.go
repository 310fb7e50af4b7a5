package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"oselmrl/internal/cli"
	"oselmrl/internal/env"
	"oselmrl/internal/fpga"
	"oselmrl/internal/harness"
	"oselmrl/internal/obs"
	"oselmrl/internal/replay"
	"oselmrl/internal/timing"
)

const (
	trainFloat = harness.DesignOSELML2Lipschitz
	trainFPGA  = harness.DesignFPGA
	// unreachable keeps the solve criterion out of reach, so the episode
	// budget fixes the work rather than the moment the agent solves.
	unreachable = 1e18
	// telemetrySpans caps the telemetry tracer below the span count of
	// every seed's run (cmd/train's default cap is 1<<20). The tracer's
	// memory then no longer depends on where a seed's span count falls
	// between two slice growth steps, which would make live_heap_mb jump
	// by a quarter from seed to seed.
	telemetrySpans = 1 << 17
)

// trainWorkload trains one design on CartPole-v0 the way
// `cmd/train -env cartpole -hidden 64 -seed S` does, for a fixed episode
// budget with the 300-episode reset rule on. With telemetry it also turns
// on what `cmd/train -events -trace -watchdog` does.
type trainWorkload struct {
	design   harness.Design
	episodes int
	seed     uint64
	// eventsDir is where the telemetry event log goes; empty means
	// telemetry off.
	eventsDir string
	// digest is the first repetition's result digest; every later one must
	// match it. refDigest, for the telemetry workload, is the digest of the
	// same run with telemetry off.
	digest, refDigest string

	agent harness.Agent
	env   env.Env
}

func newTrainWorkload(d harness.Design, episodes int, seed uint64, eventsDir string) (*trainWorkload, error) {
	w := &trainWorkload{design: d, episodes: episodes, seed: seed, eventsDir: eventsDir}
	if eventsDir == "" {
		return w, nil
	}
	// Telemetry must not change learning: record the plain run's digest.
	ref := &trainWorkload{design: d, episodes: episodes, seed: seed}
	if err := ref.setup(0); err != nil {
		return nil, err
	}
	if _, err := ref.rep(nil); err != nil {
		return nil, err
	}
	w.refDigest = ref.digest
	return w, nil
}

// setup builds the agent and the env, from the run's seed for variant 0
// and from seed `variant` for the set-up panel. The agent's random
// initialization (spectral normalization included) costs a seed-dependent
// amount of work, 50–550 µs across seeds 1–60 on a 2-vCPU x86 VM, so
// set-up times from the run's own seed would make setup_s follow the seed.
func (w *trainWorkload) setup(variant uint64) error {
	seed := w.seed
	if variant > 0 {
		seed = variant
	}
	e, err := cli.MakeEnv("cartpole", seed+100)
	if err != nil {
		return err
	}
	a, err := harness.NewAgent(w.design, e.ObservationSize(), e.ActionCount(), hidden, seed)
	if err != nil {
		return err
	}
	w.agent, w.env = a, e
	return nil
}

// procs pins training to one P. The training loop is single-threaded; with
// one P the garbage collector's work lands in the measured time instead
// of on a second core whose availability varies with the machine's load.
func (w *trainWorkload) procs() int { return 1 }

func (w *trainWorkload) rep(tr *obs.Tracer) (*repResult, error) {
	cfg := harness.RunConfigFor(w.design, harness.Defaults())
	cfg.MaxEpisodes = w.episodes
	cfg.SolveThreshold = unreachable
	var tel *telemetry
	if w.eventsDir != "" {
		var err error
		if tel, err = startTelemetry(w.eventsDir, w.seed, tr); err != nil {
			return nil, err
		}
		cfg.Obs = tel.emitter.With(map[string]string{"hidden": fmt.Sprint(hidden), "seed": fmt.Sprint(w.seed)})
	}
	layer := "qnet"
	if w.design == trainFPGA {
		layer = "fpga"
	}
	agent := newAgentProbe(w.agent, layer, tr, w.episodes)
	var e env.Env = w.env
	var ep *envProbe
	if tr != nil {
		ep = &envProbe{Env: w.env, tr: tr}
		e = ep
	}

	before := readMem()
	agent.start = time.Now()
	res := harness.Run(agent, e, cfg)
	wall := time.Since(agent.start)
	after := readMem()

	r := &repResult{ops: res.TotalSteps, wall: wall, failed: agent.observeErrs, layers: make(map[string]float64)}
	r.setDelta(before, after)
	lat := episodeLatencies(agent.episodeEnds, res.Curve)
	r.setLatency(lat)
	r.heapMB = liveHeapMB()
	runtime.KeepAlive(res)
	runtime.KeepAlive(tel)

	if res.Episodes != w.episodes || len(lat) != w.episodes {
		r.failed++
	}
	d := resultDigest(res)
	switch {
	case w.digest == "":
		w.digest = d
	case d != w.digest:
		r.failed++
	}
	if w.refDigest != "" && d != w.refDigest {
		r.failed++
	}

	// Deterministic counts, identical on both passes. The total is summed
	// in phase order: Breakdown.Total ranges over a map, so its last bits
	// change from call to call.
	bd := harness.Breakdown(w.design, res.Counters)
	var total float64
	for _, p := range timing.AllPhases {
		total += bd[p]
	}
	for _, p := range phases {
		ph := timing.Phase(p)
		r.layers["timing."+p+".calls"] = float64(res.Counters.Calls(ph))
		r.layers["timing."+p+".work"] = res.Counters.Work(ph)
		r.layers["timing."+p+".model_s"] = bd[ph]
	}
	r.layers["model_device_us_per_step"] = total / float64(res.TotalSteps) * 1e6
	if fa, ok := w.agent.(*fpga.Agent); ok {
		r.layers["fpga.core.cycles"] = float64(fa.Core().Cycles())
		r.layers["fpga.denom_guard_trips"] = float64(fa.Core().DenomGuardTrips())
	}
	if tel != nil {
		if err := tel.close(r.layers); err != nil {
			return nil, err
		}
	}
	if tr == nil {
		return r, nil
	}

	children := agent.record(r.layers) + ep.record(r.layers)
	r.layers["harness.self_s"] = (wall - children).Seconds()
	return r, nil
}

// episodeLatencies turns the clock readings taken at each EndEpisode into
// host microseconds per env step for every episode.
func episodeLatencies(ends []time.Duration, curve []harness.EpisodeStat) []float64 {
	n := len(ends)
	if len(curve) < n {
		n = len(curve)
	}
	out := make([]float64, n)
	var prev time.Duration
	for i := 0; i < n; i++ {
		out[i] = float64(ends[i]-prev) / float64(time.Microsecond) / float64(curve[i].Steps)
		prev = ends[i]
	}
	return out
}

// resultDigest hashes what a training run computed: each episode's length
// and the final per-phase work counters.
func resultDigest(res *harness.Result) string {
	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, ep := range res.Curve {
		put(uint64(ep.Steps))
	}
	for _, p := range timing.AllPhases {
		put(uint64(res.Counters.Calls(p)))
		put(math.Float64bits(res.Counters.Work(p)))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// busy accumulates the calls into one layer and the wall time they took.
type busy struct {
	calls int64
	time  time.Duration
}

func begin(tr *obs.Tracer, span string) (obs.Span, time.Time) {
	return tr.StartSpan(span), time.Now()
}

func (b *busy) end(sp obs.Span, t0 time.Time) {
	b.time += time.Since(t0)
	b.calls++
	sp.End()
}

// agentProbe wraps the agent under test. On both passes it counts Observe
// errors and reads the clock once per episode, at EndEpisode; on the
// traced pass it also times every call and records a span for it.
type agentProbe struct {
	harness.Agent
	tr    *obs.Tracer
	start time.Time
	// episodeEnds are clock readings since start, one per EndEpisode.
	episodeEnds []time.Duration
	observeErrs int

	names                            [4]string // span and metric prefixes
	sel, observe, reinit, endEpisode busy
}

func newAgentProbe(a harness.Agent, layer string, tr *obs.Tracer, episodes int) *agentProbe {
	return &agentProbe{
		Agent:       a,
		tr:          tr,
		episodeEnds: make([]time.Duration, 0, episodes),
		names: [4]string{layer + ".select_action", layer + ".observe",
			layer + ".reinitialize", layer + ".end_episode"},
	}
}

func (p *agentProbe) SelectAction(state []float64) int {
	if p.tr == nil {
		return p.Agent.SelectAction(state)
	}
	sp, t0 := begin(p.tr, p.names[0])
	a := p.Agent.SelectAction(state)
	p.sel.end(sp, t0)
	return a
}

func (p *agentProbe) Observe(t replay.Transition) error {
	var err error
	if p.tr == nil {
		err = p.Agent.Observe(t)
	} else {
		sp, t0 := begin(p.tr, p.names[1])
		err = p.Agent.Observe(t)
		p.observe.end(sp, t0)
	}
	if err != nil {
		p.observeErrs++
	}
	return err
}

func (p *agentProbe) Reinitialize() {
	if p.tr == nil {
		p.Agent.Reinitialize()
		return
	}
	sp, t0 := begin(p.tr, p.names[2])
	p.Agent.Reinitialize()
	p.reinit.end(sp, t0)
}

func (p *agentProbe) EndEpisode(episode int) {
	if p.tr == nil {
		p.Agent.EndEpisode(episode)
	} else {
		sp, t0 := begin(p.tr, p.names[3])
		p.Agent.EndEpisode(episode)
		p.endEpisode.end(sp, t0)
	}
	p.episodeEnds = append(p.episodeEnds, time.Since(p.start))
}

// SetObserver and EnableDeviceProfile forward the optional interfaces
// harness.Run looks for, so wrapping the agent keeps telemetry attached.
func (p *agentProbe) SetObserver(e *obs.Emitter) {
	if o, ok := p.Agent.(harness.Observable); ok {
		o.SetObserver(e)
	}
}

func (p *agentProbe) EnableDeviceProfile() {
	if d, ok := p.Agent.(harness.DeviceProfilable); ok {
		d.EnableDeviceProfile()
	}
}

// record stores the traced per-call metrics and returns their total time.
func (p *agentProbe) record(layers map[string]float64) time.Duration {
	for i, b := range []busy{p.sel, p.observe, p.reinit} {
		layers[p.names[i]+".calls"] = float64(b.calls)
		layers[p.names[i]+".busy_s"] = b.time.Seconds()
	}
	layers[p.names[3]+".busy_s"] = p.endEpisode.time.Seconds()
	return p.sel.time + p.observe.time + p.reinit.time + p.endEpisode.time
}

// envProbe times the environment on the traced pass.
type envProbe struct {
	env.Env
	tr          *obs.Tracer
	step, reset busy
}

func (e *envProbe) Step(action int) ([]float64, float64, bool) {
	sp, t0 := begin(e.tr, "env.step")
	next, r, done := e.Env.Step(action)
	e.step.end(sp, t0)
	return next, r, done
}

func (e *envProbe) Reset() []float64 {
	sp, t0 := begin(e.tr, "env.reset")
	s := e.Env.Reset()
	e.reset.end(sp, t0)
	return s
}

func (e *envProbe) record(layers map[string]float64) time.Duration {
	layers["env.step.calls"] = float64(e.step.calls)
	layers["env.step.busy_s"] = e.step.time.Seconds()
	layers["env.reset.busy_s"] = e.reset.time.Seconds()
	return e.step.time + e.reset.time
}

// telemetry is the observability cmd/train -events -trace -watchdog turns
// on: a JSONL event log, the span tracer and the divergence watchdog.
type telemetry struct {
	emitter  *obs.Emitter
	tracer   *obs.Tracer
	watchdog *obs.Watchdog
	sink     *sinkProbe // traced pass only
	path     string
}

func startTelemetry(dir string, seed uint64, tr *obs.Tracer) (*telemetry, error) {
	path := filepath.Join(dir, fmt.Sprintf("events-%d.jsonl", seed))
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("events log: %w", err)
	}
	t := &telemetry{tracer: obs.NewTracer(), watchdog: obs.NewWatchdog(obs.DefaultWatchdogConfig()), path: path}
	t.tracer.SetMaxSpans(telemetrySpans)
	sink := obs.NewJSONLSink(f)
	if tr != nil {
		t.sink = &sinkProbe{Sink: sink, tr: tr}
		sink = t.sink
	}
	t.emitter = obs.NewEmitter(sink)
	t.emitter.SetTracer(t.tracer)
	t.emitter.SetWatchdog(t.watchdog)
	return t, nil
}

// close flushes the event log, records the telemetry layer's metrics and
// deletes the log.
func (t *telemetry) close(layers map[string]float64) error {
	cerr := t.emitter.Close()
	info, serr := os.Stat(t.path)
	rerr := os.Remove(t.path)
	if err := errors.Join(cerr, serr, rerr); err != nil {
		return fmt.Errorf("events log: %w", err)
	}
	layers["obs.tracer.spans"] = float64(t.tracer.Len())
	layers["obs.tracer.dropped"] = float64(t.tracer.Dropped())
	layers["obs.watchdog.alerts"] = float64(t.watchdog.AlertCount())
	if t.sink != nil {
		layers["obs.sink.writes"] = float64(t.sink.writes.calls)
		layers["obs.sink.bytes"] = float64(info.Size())
		layers["obs.sink.busy_s"] = t.sink.writes.time.Seconds()
	}
	return nil
}

// sinkProbe times event writes. The training loop is the only writer, so
// the counters need no lock.
type sinkProbe struct {
	obs.Sink
	tr     *obs.Tracer
	writes busy
}

func (s *sinkProbe) Write(ev *obs.Event) error {
	sp, t0 := begin(s.tr, "obs.sink.write")
	err := s.Sink.Write(ev)
	s.writes.end(sp, t0)
	return err
}
