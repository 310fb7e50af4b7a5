// Package obs is the runtime observability layer: structured run events,
// a metrics registry and run manifests. The training stack (harness,
// qnet/dqn/fpga agents, cmd tools) emits through an *Emitter; a nil
// *Emitter is the fully disabled state — every method is nil-safe and
// returns immediately, so the hot path pays one pointer comparison when
// observability is off.
//
// Events are JSON Lines: one JSON object per line, schema documented on
// Event (and in README.md §Observability). The JSONL sink writes the
// bytes encoding/json would write for an Event (fields in struct order,
// sorted map keys, floats in ES6 form), through an append encoder that
// reuses one buffer (encode.go). JSON has no NaN or ±Inf, so a
// non-finite value is left out of its event and counted in
// data.nonfinite; the event and every later one are still written. A
// sink reads an event only during Write and keeps none of it: a Sink
// that retains events copies what it keeps, so emitters may reuse their
// data maps. Manifests are single JSON documents tying a results file to
// the exact configuration that produced it (manifest.go). Metrics are
// in-process counters/gauges/histograms snapshotted into the run_end
// event and available programmatically (metrics.go).
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Event types emitted by the training stack. The set is open — consumers
// must tolerate unknown types — but these cover the paper's Algorithm 1
// control flow.
const (
	// EventRunStart opens a run: labels carry design and env.
	EventRunStart = "run_start"
	// EventEpisodeEnd closes one episode: episode, steps, score,
	// moving_avg, resets.
	EventEpisodeEnd = "episode_end"
	// EventSeqUpdate is one OS-ELM rank-1 sequential update (Algorithm 1
	// line 22): step, target, clipped (0/1).
	EventSeqUpdate = "seq_update"
	// EventInitTrain is an initial training / batch-ELM retrain on a full
	// buffer D (lines 16-19): size, wall_ms, retrain (0/1).
	EventInitTrain = "init_train"
	// EventReinit is a §4.3 weight reinitialization: episode,
	// episodes_since_reset.
	EventReinit = "reinit"
	// EventTheta2Sync is the θ2 ← θ1 target sync (lines 23-24): episode,
	// and beta_sigma_max when the model exposes it.
	EventTheta2Sync = "theta2_sync"
	// EventTrainStep is one DQN gradient step: step, batch.
	EventTrainStep = "train_step"
	// EventRunEnd closes a run with the solve/impossible verdict: solved
	// (0/1), episodes, total_steps, resets, wall_ms, plus one
	// wall_ms_<phase> entry per timed phase, and — with a watchdog
	// attached — diverged (0/1) and numeric_alerts.
	EventRunEnd = "run_end"
	// EventDeviceProfile is a cumulative device-profiler snapshot (FPGA
	// agents armed with -profile), flushed with the episode-end metrics:
	// data carries total_cycles, one cycles_<phase>_<kernel>_<unit> entry
	// per nonzero attribution cell, ops_<unit> operation counts and
	// bram_<bank>_<op> access counts — all cumulative, so the last event
	// per label group is the run's profile (what `runlog profile` reads).
	EventDeviceProfile = "device_profile"
	// EventNumericAlert is the first trip of one divergence-watchdog rule:
	// data carries value and threshold; labels carry rule and metric (see
	// the Rule* constants in watchdog.go). Emitted at most once per
	// (rule, metric) pair, so a runaway series cannot flood the log.
	EventNumericAlert = "numeric_alert"
	// EventFleetSim summarizes one simulated fleet device
	// (internal/fleet): data carries cores, jobs, dispatches,
	// makespan_s, speedup and dispatcher queue depths; the matching
	// fleet_* gauges hold the same numbers as scrapeable series.
	EventFleetSim = "fleet_sim"
)

// Event is one line of a JSONL run log.
type Event struct {
	// Type is one of the Event* constants (or a consumer-defined type).
	Type string `json:"type"`
	// Seq is a per-sink monotonically increasing sequence number; with
	// concurrent trials writing to one sink it orders the merged stream.
	Seq int64 `json:"seq"`
	// WallMS is milliseconds since the emitter was created.
	WallMS float64 `json:"wall_ms"`
	// Episode is the 1-based episode number, when meaningful.
	Episode int `json:"episode,omitempty"`
	// Data holds the event's numeric payload. JSON has no NaN or ±Inf:
	// the JSONL sink leaves a non-finite value out and sets "nonfinite" to
	// the number left out.
	Data map[string]float64 `json:"data,omitempty"`
	// Labels holds string context (design, env, trial, ...), set once per
	// emitter via With and attached to every event it emits.
	Labels map[string]string `json:"labels,omitempty"`
	// labelsJSON is Labels as the JSON object the JSONL sink writes,
	// encoded once per emitter; nil means encode Labels per event.
	labelsJSON []byte `json:"-"`
}

// Sink consumes events. Implementations must be safe for concurrent use;
// the harness's parallel trial runner writes one merged stream. The event
// and its Data and Labels maps are valid only during Write: the caller
// may reuse them afterwards, so a sink that keeps an event copies what it
// keeps. Write may set ev.Seq.
type Sink interface {
	Write(ev *Event) error
	Close() error
}

// jsonlSink writes one JSON document per line through a buffered writer.
// line is the encoder's output buffer, reused across events. err is the
// first write error; it stops the sink.
type jsonlSink struct {
	mu   sync.Mutex
	buf  *bufio.Writer
	enc  eventEncoder
	line []byte
	c    io.Closer
	seq  int64
	err  error
}

// NewJSONLSink wraps w in a buffered JSONL sink. If w is an io.Closer,
// Close closes it after flushing.
func NewJSONLSink(w io.Writer) Sink {
	buf := bufio.NewWriter(w)
	s := &jsonlSink{buf: buf}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

func (s *jsonlSink) Write(ev *Event) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err != nil {
		return s.err
	}
	s.seq++
	ev.Seq = s.seq
	line, err := s.enc.appendEvent(s.line[:0], ev)
	if err != nil {
		line, _ = s.enc.appendEvent(line[:0], finiteCopy(ev))
	}
	s.line = line
	if _, err := s.buf.Write(line); err != nil {
		s.err = err
		return err
	}
	return nil
}

func (s *jsonlSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if err := s.buf.Flush(); err != nil && s.err == nil {
		s.err = err
	}
	if s.c != nil {
		if err := s.c.Close(); err != nil && s.err == nil {
			s.err = err
		}
	}
	return s.err
}

// Emitter attaches a metrics registry and a label set to a sink. The zero
// value of *Emitter (nil) is the disabled state: every method no-ops, so
// callers thread a possibly-nil *Emitter without guards.
type Emitter struct {
	sink     Sink
	reg      *Registry
	tracer   *Tracer
	watchdog *Watchdog
	labels   map[string]string
	// labelsJSON is labels encoded once, for the JSONL sink.
	labelsJSON []byte
	start      time.Time
	// ev is the Event Emit and EmitLabeled hand to the sink; evBusy is
	// set while a write uses it.
	evBusy atomic.Bool
	ev     Event
}

// NewEmitter builds an emitter over sink with a fresh metrics registry.
// sink may be nil (metrics-only observability).
func NewEmitter(sink Sink) *Emitter {
	return &Emitter{sink: sink, reg: NewRegistry(), start: time.Now()}
}

// With derives an emitter sharing the sink, registry and clock but
// attaching the extra labels to every event — how the parallel trial
// runner tags each trial's events in the merged stream.
func (e *Emitter) With(labels map[string]string) *Emitter {
	if e == nil {
		return nil
	}
	merged := make(map[string]string, len(e.labels)+len(labels))
	for k, v := range e.labels {
		merged[k] = v
	}
	for k, v := range labels {
		merged[k] = v
	}
	return &Emitter{sink: e.sink, reg: e.reg, tracer: e.tracer, watchdog: e.watchdog,
		labels: merged, labelsJSON: encodeLabels(merged), start: e.start}
}

// SetWatchdog attaches a divergence watchdog: every Inc/SetGauge/Observe
// is additionally evaluated against its threshold rules, and a first trip
// emits one numeric_alert event plus the watchdog_* metrics. Attaching
// records watchdog_diverged = 0 immediately, so a metrics snapshot
// distinguishes "watched and clean" (0) from "never watched" (absent).
// Derived emitters created later via With share it. A nil watchdog (the
// default) disables the checks at the cost of one pointer comparison.
// Nil-safe.
func (e *Emitter) SetWatchdog(w *Watchdog) {
	if e == nil {
		return
	}
	e.watchdog = w
	if w != nil {
		e.reg.SetGauge(GaugeWatchdogDiverged, 0)
	}
}

// Watchdog returns the attached watchdog (nil when absent or for a nil
// emitter).
func (e *Emitter) Watchdog() *Watchdog {
	if e == nil {
		return nil
	}
	return e.watchdog
}

// alert records a first-trip watchdog alert: the watchdog_* metrics plus
// one numeric_alert event carrying the rule and offending metric as
// labels. Alerts are rare by construction (one event per (rule, metric)
// pair), so the label-merging allocation here is off the hot path.
func (e *Emitter) alert(al Alert) {
	e.reg.Inc(MetricWatchdogAlerts, 1)
	e.reg.SetGauge(GaugeWatchdogDiverged, 1)
	e.With(map[string]string{"rule": al.Rule, "metric": al.Metric}).
		Emit(EventNumericAlert, 0, map[string]float64{
			"value":     al.Value,
			"threshold": al.Threshold,
		})
}

// SetTracer attaches a span tracer; derived emitters created later via
// With share it. A nil tracer (the default) disables span recording.
// Nil-safe.
func (e *Emitter) SetTracer(t *Tracer) {
	if e == nil {
		return
	}
	e.tracer = t
}

// Tracer returns the attached tracer (nil when absent or for a nil
// emitter).
func (e *Emitter) Tracer() *Tracer {
	if e == nil {
		return nil
	}
	return e.tracer
}

// StartSpan opens a phase span on the attached tracer. With no tracer —
// or a nil emitter — it returns the inactive zero Span at the cost of a
// nil check, keeping the hot path free when tracing is off.
func (e *Emitter) StartSpan(name string) Span {
	if e == nil || e.tracer == nil {
		return Span{}
	}
	return e.tracer.StartSpan(name)
}

// Enabled reports whether the emitter records anything.
func (e *Emitter) Enabled() bool { return e != nil }

// Metrics returns the registry (nil for a nil emitter).
func (e *Emitter) Metrics() *Registry {
	if e == nil {
		return nil
	}
	return e.reg
}

// Emit writes one event. The sink reads data during the call and keeps
// none of it, so the caller may reuse the map for its next event.
func (e *Emitter) Emit(typ string, episode int, data map[string]float64) {
	if e == nil || e.sink == nil {
		return
	}
	e.write(Event{
		Type:       typ,
		WallMS:     float64(time.Since(e.start)) / float64(time.Millisecond),
		Episode:    episode,
		Data:       data,
		Labels:     e.labels,
		labelsJSON: e.labelsJSON,
	})
}

// write hands ev to the sink in the emitter's own Event, which sinks keep
// no part of past Write. While another write holds that Event, ev goes
// out in a fresh one instead of waiting for it.
func (e *Emitter) write(ev Event) {
	if !e.evBusy.CompareAndSwap(false, true) {
		e.writeFresh(ev)
		return
	}
	e.ev = ev
	e.sink.Write(&e.ev)
	e.ev = Event{}
	e.evBusy.Store(false)
}

// writeFresh hands ev to the sink in its own heap Event. It is a separate
// function so that only this path moves ev to the heap.
//
//go:noinline
func (e *Emitter) writeFresh(ev Event) { e.sink.Write(&ev) }

// EmitLabeled writes one event carrying extra per-event labels on top of
// the emitter's own label set — the per-request path behind serve_access
// events, where the trace ID and route differ on every line and deriving
// a whole emitter via With would be wasteful. As with Emit, the sink keeps
// neither data nor labels after the call. The merged labels are encoded
// per event. Like Emit, a nil emitter or sink-less emitter returns
// immediately.
func (e *Emitter) EmitLabeled(typ string, labels map[string]string, data map[string]float64) {
	if e == nil || e.sink == nil {
		return
	}
	if len(e.labels) > 0 {
		merged := make(map[string]string, len(e.labels)+len(labels))
		for k, v := range e.labels {
			merged[k] = v
		}
		for k, v := range labels {
			merged[k] = v
		}
		labels = merged
	}
	e.write(Event{
		Type:   typ,
		WallMS: float64(time.Since(e.start)) / float64(time.Millisecond),
		Data:   data,
		Labels: labels,
	})
}

// Inc adds delta to the named counter.
func (e *Emitter) Inc(name string, delta int64) {
	if e == nil {
		return
	}
	e.reg.Inc(name, delta)
	if e.watchdog != nil {
		if al, first := e.watchdog.CheckCounter(name, delta); first {
			e.alert(al)
		}
	}
}

// SetGauge records the latest value of the named gauge.
func (e *Emitter) SetGauge(name string, v float64) {
	if e == nil {
		return
	}
	e.reg.SetGauge(name, v)
	if e.watchdog != nil {
		if al, first := e.watchdog.CheckValue(name, v); first {
			e.alert(al)
		}
	}
}

// Observe adds v to the named histogram (created with DefaultBuckets on
// first use).
func (e *Emitter) Observe(name string, v float64) {
	if e == nil {
		return
	}
	e.reg.Observe(name, v)
	if e.watchdog != nil {
		if al, first := e.watchdog.CheckValue(name, v); first {
			e.alert(al)
		}
	}
}

// AddWall accumulates real wall-clock time for a phase (the companion to
// the modelled device seconds of internal/timing).
func (e *Emitter) AddWall(phase string, d time.Duration) {
	if e == nil {
		return
	}
	e.reg.AddWall(phase, d)
}

// Now returns the current time when enabled and the zero time when
// disabled, so hot paths can skip the clock read entirely:
//
//	t0 := e.Now()
//	... work ...
//	e.AddWallSince("seq_train", t0)
func (e *Emitter) Now() time.Time {
	if e == nil {
		return time.Time{}
	}
	return time.Now()
}

// AddWallSince accumulates wall-clock since t0 (a Now() result); no-op for
// a nil emitter or zero t0.
func (e *Emitter) AddWallSince(phase string, t0 time.Time) {
	if e == nil || t0.IsZero() {
		return
	}
	e.reg.AddWall(phase, time.Since(t0))
}

// Close flushes and closes the sink, if any.
func (e *Emitter) Close() error {
	if e == nil || e.sink == nil {
		return nil
	}
	return e.sink.Close()
}

// ScanEvents streams a JSONL event log, invoking fn once per decoded
// event. The *Event passed to fn is reused between calls — copy it to
// retain it. Memory stays constant in the log length, so multi-million
// step logs summarize without loading into RAM (the ReadEvents
// alternative). Unknown fields are ignored; decode errors (including a
// trailing partial line) and errors returned by fn stop the scan.
func ScanEvents(r io.Reader, fn func(*Event) error) error {
	dec := json.NewDecoder(r)
	var ev Event
	for {
		ev = Event{}
		if err := dec.Decode(&ev); err != nil {
			if err == io.EOF {
				return nil
			}
			return err
		}
		if err := fn(&ev); err != nil {
			return err
		}
	}
}

// ScanEventsPartial is ScanEvents for logs whose writer may have been
// killed mid-record: a malformed or unterminated *final* line is dropped
// and reported via the truncated return instead of failing the whole
// scan, so crash-landed runs still summarize (and the grid resumer can
// count how far a killed cell got). A newline-terminated line that fails
// to decode anywhere before the end of the stream is still a hard error
// — only the tail can legitimately be torn. A final line that decodes
// but lacks its terminating newline is delivered to fn and reported as
// truncated: the JSONL sink always writes the newline, so its absence
// means the writer died mid-flush and a trailing numeric field may have
// been cut short.
func ScanEventsPartial(r io.Reader, fn func(*Event) error) (truncated bool, err error) {
	br := bufio.NewReader(r)
	var ev Event
	for lineNo := 1; ; lineNo++ {
		line, rerr := br.ReadBytes('\n')
		if len(line) > 0 {
			terminated := line[len(line)-1] == '\n'
			trimmed := trimSpaceBytes(line)
			if len(trimmed) > 0 {
				ev = Event{}
				if jerr := json.Unmarshal(trimmed, &ev); jerr != nil {
					if terminated && rerr == nil {
						return false, fmt.Errorf("obs: event log line %d: %w", lineNo, jerr)
					}
					// Torn tail: drop it.
					return true, nil
				}
				if err := fn(&ev); err != nil {
					return false, err
				}
				if !terminated {
					truncated = true
				}
			}
		}
		if rerr != nil {
			if rerr == io.EOF {
				return truncated, nil
			}
			return truncated, rerr
		}
	}
}

// trimSpaceBytes strips leading/trailing ASCII whitespace without
// allocating (bytes.TrimSpace equivalent for the JSONL line case).
func trimSpaceBytes(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t' || b[0] == '\r' || b[0] == '\n') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t' || b[len(b)-1] == '\r' || b[len(b)-1] == '\n') {
		b = b[:len(b)-1]
	}
	return b
}

// ReadEvents decodes a JSONL stream produced by a JSONL sink into a
// slice. Unknown fields are ignored; a trailing partial line yields an
// error alongside the events decoded so far. Prefer ScanEvents for logs
// of unbounded size.
func ReadEvents(r io.Reader) ([]Event, error) {
	var out []Event
	err := ScanEvents(r, func(ev *Event) error {
		out = append(out, *ev)
		return nil
	})
	return out, err
}
