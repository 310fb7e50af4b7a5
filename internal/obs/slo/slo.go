// Package slo turns the serving path's per-request stream into
// enforceable service-level objectives: RED accounting (rate, errors,
// duration split into queue-wait and evaluator components) plus a
// multi-window burn-rate engine over declared latency and availability
// objectives — the standard SRE construction where the error budget is
// 1−target and the burn rate is the fraction of that budget consumed per
// unit time (burn 1 exactly exhausts the budget at the window's end;
// burn ≥ FastBurnRate on both the short and the long window is the
// page-worthy "fast burn" that flips /healthz degraded).
//
// Like the rest of the internal/obs stack, a nil *Engine is the fully
// disabled state: Record is a single pointer comparison and allocates
// nothing, so internal/serve threads a possibly-nil engine without
// guards.
package slo

import (
	"sync"
	"time"

	"oselmrl/internal/obs"
)

// Outcome classifies one request for availability accounting.
type Outcome int

const (
	// OK is a request answered 200.
	OK Outcome = iota
	// ClientError is a request rejected for a malformed body or state —
	// the client's fault, so it consumes no availability budget (but is
	// still counted in the request rate).
	ClientError
	// Shed is a request rejected 429 because the worker pool and its
	// bounded queue were full on arrival.
	Shed
	// Timeout is a request admitted to the queue but shed because its
	// request budget expired before a worker freed up.
	Timeout
	// ServerError is a request the service failed to answer (a 5xx), such
	// as a policy with non-finite weights producing a non-finite Q value;
	// it consumes availability budget.
	ServerError
)

// Objectives declares the service-level objectives the engine evaluates.
// The zero value disables both objectives; DefaultObjectives returns the
// serving defaults.
type Objectives struct {
	// LatencyP99MS declares "99% of OK requests complete within this
	// many milliseconds" (total latency, queue wait included). 0 disables
	// the latency objective. A request slower than the threshold consumes
	// latency error budget; the budget fraction is 1−0.99.
	LatencyP99MS float64 `json:"latency_p99_ms,omitempty"`
	// Availability declares the fraction of availability-eligible
	// requests (everything except client errors) that must not be shed,
	// timed out or failed by the server, e.g. 0.999. 0 disables the
	// availability objective.
	Availability float64 `json:"availability,omitempty"`
}

// DefaultObjectives are the serving defaults: p99 total latency ≤ 100 ms
// (generous for a sub-µs predict core behind localhost HTTP — breaching
// it means queueing, not evaluation) and 99.9% availability.
func DefaultObjectives() Objectives {
	return Objectives{LatencyP99MS: 100, Availability: 0.999}
}

// latencyTarget is the success-fraction target implied by LatencyP99MS.
const latencyTarget = 0.99

// FastBurnRate is the default fast-burn threshold: the Google SRE
// workbook's page-worthy rate for a 5m/1h window pair. At burn 14.4 a
// 30-day error budget is gone in 2 days.
const FastBurnRate = 14.4

// MinWindowRequests is the default minimum number of requests a window
// must hold before its burn rate can declare a fast burn — two requests
// with one slow outlier should not page.
const MinWindowRequests = 20

// Window geometries: a 5-minute window of 10-second buckets and a
// 1-hour window of 1-minute buckets.
const (
	shortWindowBuckets = 30
	shortBucketSeconds = 10
	longWindowBuckets  = 60
	longBucketSeconds  = 60
)

// ShortWindow and LongWindow are the two burn-rate horizons.
const (
	ShortWindow = shortWindowBuckets * shortBucketSeconds * time.Second // 5m
	LongWindow  = longWindowBuckets * longBucketSeconds * time.Second   // 1h
)

// latencyBuckets are the duration-histogram bounds in milliseconds,
// matching internal/serve's request-latency buckets.
var latencyBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250}

// bucket is one time slice of a sliding window.
type bucket struct {
	start time.Time // zero when the bucket holds no data
	total int64     // all requests
	slow  int64     // OK requests over the latency threshold
	avail int64     // availability-eligible requests (not client errors)
	bad   int64     // shed + timeout + server-error requests
}

// window is a ring of fixed-width buckets covering span seconds.
type window struct {
	buckets []bucket
	width   time.Duration
}

func newWindow(n int, width time.Duration) *window {
	return &window{buckets: make([]bucket, n), width: width}
}

// slot rotates the ring to now and returns the current bucket. Stale
// buckets (an earlier epoch mapped to the same slot) are zeroed lazily.
func (w *window) slot(now time.Time) *bucket {
	start := now.Truncate(w.width)
	i := int(start.UnixNano()/int64(w.width)) % len(w.buckets)
	if i < 0 {
		i += len(w.buckets)
	}
	b := &w.buckets[i]
	if !b.start.Equal(start) {
		*b = bucket{start: start}
	}
	return b
}

// sum totals the buckets still inside the window ending at now.
func (w *window) sum(now time.Time) (total, slow, avail, bad int64) {
	span := time.Duration(len(w.buckets)) * w.width
	oldest := now.Add(-span)
	for i := range w.buckets {
		b := &w.buckets[i]
		if b.start.IsZero() || b.start.Before(oldest) || b.start.After(now) {
			continue
		}
		total += b.total
		slow += b.slow
		avail += b.avail
		bad += b.bad
	}
	return
}

// dist summarizes an obs.Histogram of milliseconds.
func dist(h *obs.Histogram) Dist {
	return Dist{
		N:      h.N,
		MeanMS: h.Mean(),
		P50MS:  h.Quantile(0.50),
		P95MS:  h.Quantile(0.95),
		P99MS:  h.Quantile(0.99),
		MaxMS:  h.Max,
	}
}

// Engine ingests per-request observations and evaluates the declared
// objectives over a 5-minute and a 1-hour sliding window. All methods
// are safe for concurrent use; a nil *Engine disables everything.
type Engine struct {
	obj      Objectives
	fastBurn float64
	minReq   int64
	now      func() time.Time

	mu       sync.Mutex
	short    *window
	long     *window
	started  time.Time
	requests int64
	outcomes [5]int64 // indexed by Outcome
	slow     int64    // lifetime latency-threshold breaches
	// The histograms are unsynchronized; mu covers them.
	totalMS *obs.Histogram
	queueMS *obs.Histogram
	evalMS  *obs.Histogram
}

// NewEngine returns an engine evaluating obj. Zero objective fields
// disable the corresponding objective.
func NewEngine(obj Objectives) *Engine {
	e := &Engine{
		obj:      obj,
		fastBurn: FastBurnRate,
		minReq:   MinWindowRequests,
		now:      time.Now,
		short:    newWindow(shortWindowBuckets, shortBucketSeconds*time.Second),
		long:     newWindow(longWindowBuckets, longBucketSeconds*time.Second),
		totalMS:  obs.NewHistogram(latencyBuckets),
		queueMS:  obs.NewHistogram(latencyBuckets),
		evalMS:   obs.NewHistogram(latencyBuckets),
	}
	e.started = e.now()
	return e
}

// SetClock replaces the engine's time source — offline replay
// (cmd/runlog slo) drives the windows with the log's own wall clock, and
// tests rotate windows deterministically. Not for use concurrently with
// Record. Nil-safe.
func (e *Engine) SetClock(now func() time.Time) {
	if e == nil || now == nil {
		return
	}
	e.mu.Lock()
	e.now = now
	e.started = now()
	e.mu.Unlock()
}

// SetFastBurn overrides the fast-burn threshold and the minimum window
// population (n ≤ 0 keeps the current value). Nil-safe.
func (e *Engine) SetFastBurn(rate float64, minRequests int64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	if rate > 0 {
		e.fastBurn = rate
	}
	if minRequests > 0 {
		e.minReq = minRequests
	}
	e.mu.Unlock()
}

// Objectives returns the declared objectives (zero value on nil).
func (e *Engine) Objectives() Objectives {
	if e == nil {
		return Objectives{}
	}
	return e.obj
}

// Enabled reports whether the engine records anything.
func (e *Engine) Enabled() bool { return e != nil }

// Record ingests one request: its outcome and its latency split
// (milliseconds; queue wait, evaluator time, and the total including
// encode). Shed and timed-out requests carry only their queue wait.
// Nil-safe and allocation-free.
func (e *Engine) Record(o Outcome, queueMS, evalMS, totalMS float64) {
	if e == nil {
		return
	}
	e.mu.Lock()
	now := e.now()
	e.requests++
	if o >= 0 && int(o) < len(e.outcomes) {
		e.outcomes[o]++
	}
	slow := o == OK && e.obj.LatencyP99MS > 0 && totalMS > e.obj.LatencyP99MS
	if slow {
		e.slow++
	}
	for _, w := range [2]*window{e.short, e.long} {
		b := w.slot(now)
		b.total++
		if slow {
			b.slow++
		}
		if o != ClientError {
			b.avail++
			if o != OK {
				b.bad++
			}
		}
	}
	e.totalMS.Observe(totalMS)
	e.queueMS.Observe(queueMS)
	if o != Shed && o != Timeout {
		e.evalMS.Observe(evalMS)
	}
	e.mu.Unlock()
}

// Dist summarizes one duration distribution (milliseconds).
type Dist struct {
	N      int64   `json:"n"`
	MeanMS float64 `json:"mean_ms"`
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MaxMS  float64 `json:"max_ms"`
}

// Burn is one objective's burn rate over one window. A rate of 1 means
// the error budget is being consumed exactly as fast as the objective
// allows; 0 means no budget spent.
type Burn struct {
	// Requests is the window's population for this objective's
	// denominator (OK requests for latency, availability-eligible
	// requests for availability).
	Requests int64 `json:"requests"`
	// Bad counts the budget-consuming requests in the window.
	Bad int64 `json:"bad"`
	// Rate is (Bad/Requests) / (1 − target); 0 for an empty window.
	Rate float64 `json:"rate"`
}

// WindowReport is one window's burn rates.
type WindowReport struct {
	// Seconds is the window span.
	Seconds float64 `json:"seconds"`
	// Latency and Availability are present when the objective is
	// declared.
	Latency      *Burn `json:"latency,omitempty"`
	Availability *Burn `json:"availability,omitempty"`
}

// Report is the full SLO evaluation — the /slo payload and the
// cmd/loadgen -slo verdict input.
type Report struct {
	Objectives Objectives `json:"objectives"`
	// UptimeSeconds is the observation span so far.
	UptimeSeconds float64 `json:"uptime_seconds"`
	// Requests counts every recorded request; OK/ClientErrors/Shed/
	// Timeouts/ServerErrors break it down.
	Requests     int64 `json:"requests"`
	OK           int64 `json:"ok"`
	ClientErrors int64 `json:"client_errors"`
	Shed         int64 `json:"shed"`
	Timeouts     int64 `json:"timeouts"`
	ServerErrors int64 `json:"server_errors"`
	// SlowRequests counts lifetime latency-threshold breaches.
	SlowRequests int64 `json:"slow_requests"`
	// TotalMS, QueueMS and EvalMS are the lifetime latency distributions
	// (total includes queue wait and encode; eval is evaluator time
	// only).
	TotalMS Dist `json:"total_ms"`
	QueueMS Dist `json:"queue_ms"`
	EvalMS  Dist `json:"eval_ms"`
	// Window5m and Window1h are the two burn-rate horizons.
	Window5m WindowReport `json:"window_5m"`
	Window1h WindowReport `json:"window_1h"`
	// Overall mirrors the windows over the whole observation span — the
	// offline gate cmd/loadgen -slo evaluates (burn ≥ 1 over the run
	// means the run as a whole blew its budget).
	Overall WindowReport `json:"overall"`
	// FastBurn is true when some objective burns at ≥ the fast-burn
	// threshold on BOTH windows (with at least the minimum population in
	// each) — the condition that flips /healthz degraded.
	FastBurn bool `json:"fast_burn"`
	// Breached lists the objectives burning fast ("latency",
	// "availability").
	Breached []string `json:"breached,omitempty"`
}

// burn computes one objective's burn over a (good-denominator, bad)
// count pair.
func burnRate(denom, bad int64, target float64) float64 {
	if denom == 0 || target >= 1 {
		return 0
	}
	return (float64(bad) / float64(denom)) / (1 - target)
}

// windowReport evaluates both objectives over the given sums.
func (e *Engine) windowReport(seconds float64, total, slow, avail, bad int64) WindowReport {
	wr := WindowReport{Seconds: seconds}
	if e.obj.LatencyP99MS > 0 {
		// Latency denominator: requests that completed (total − shed −
		// timeouts is not tracked per window; OK-vs-slow uses total−bad,
		// which also excludes client errors only from slowness, never
		// from the denominator — slow is counted on OK requests only, so
		// the rate under-reports slightly under heavy shedding, which is
		// itself an availability breach).
		done := total - bad
		wr.Latency = &Burn{Requests: done, Bad: slow, Rate: burnRate(done, slow, latencyTarget)}
	}
	if e.obj.Availability > 0 {
		wr.Availability = &Burn{Requests: avail, Bad: bad, Rate: burnRate(avail, bad, e.obj.Availability)}
	}
	return wr
}

// fastBurning reports whether one objective extracted from two window
// reports exceeds the fast-burn threshold on both, with both windows
// sufficiently populated.
func (e *Engine) fastBurning(short, long *Burn) bool {
	return short != nil && long != nil &&
		short.Requests >= e.minReq && long.Requests >= e.minReq &&
		short.Rate >= e.fastBurn && long.Rate >= e.fastBurn
}

// Report evaluates the objectives now. A nil engine returns the zero
// Report.
func (e *Engine) Report() Report {
	if e == nil {
		return Report{}
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	rep := Report{
		Objectives:    e.obj,
		UptimeSeconds: now.Sub(e.started).Seconds(),
		Requests:      e.requests,
		OK:            e.outcomes[OK],
		ClientErrors:  e.outcomes[ClientError],
		Shed:          e.outcomes[Shed],
		Timeouts:      e.outcomes[Timeout],
		ServerErrors:  e.outcomes[ServerError],
		SlowRequests:  e.slow,
		TotalMS:       dist(e.totalMS),
		QueueMS:       dist(e.queueMS),
		EvalMS:        dist(e.evalMS),
	}
	st, ss, sa, sb := e.short.sum(now)
	lt, ls, la, lb := e.long.sum(now)
	rep.Window5m = e.windowReport(ShortWindow.Seconds(), st, ss, sa, sb)
	rep.Window1h = e.windowReport(LongWindow.Seconds(), lt, ls, la, lb)
	bad := e.outcomes[Shed] + e.outcomes[Timeout] + e.outcomes[ServerError]
	rep.Overall = e.windowReport(rep.UptimeSeconds, e.requests,
		e.slow, e.requests-e.outcomes[ClientError], bad)
	if e.fastBurning(rep.Window5m.Latency, rep.Window1h.Latency) {
		rep.Breached = append(rep.Breached, "latency")
	}
	if e.fastBurning(rep.Window5m.Availability, rep.Window1h.Availability) {
		rep.Breached = append(rep.Breached, "availability")
	}
	rep.FastBurn = len(rep.Breached) > 0
	return rep
}

// FastBurn reports whether some objective currently burns at or above
// the fast-burn threshold on both windows — the /healthz degraded
// condition. Nil-safe.
func (e *Engine) FastBurn() bool {
	if e == nil {
		return false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	now := e.now()
	st, ss, sa, sb := e.short.sum(now)
	lt, ls, la, lb := e.long.sum(now)
	short := e.windowReport(ShortWindow.Seconds(), st, ss, sa, sb)
	long := e.windowReport(LongWindow.Seconds(), lt, ls, la, lb)
	return e.fastBurning(short.Latency, long.Latency) ||
		e.fastBurning(short.Availability, long.Availability)
}

// GateBreaches evaluates r as a CI gate: each objective whose burn over
// the whole observation span reached 1 (the run as a whole spent more
// error budget than the objective allows) is returned by name. An empty
// result is a pass.
func GateBreaches(r Report) []string {
	var out []string
	if b := r.Overall.Latency; b != nil && b.Rate >= 1 {
		out = append(out, "latency")
	}
	if b := r.Overall.Availability; b != nil && b.Rate >= 1 {
		out = append(out, "availability")
	}
	return out
}
