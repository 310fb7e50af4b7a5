// Package serve is the deployment layer the paper's cheap-inference story
// points at: a concurrent policy-inference service over checkpointed
// OS-ELM Q-networks (internal/persist), answering predict/act requests as
// HTTP JSON with bounded worker-pool backpressure, request timeouts, and
// atomic checkpoint hot-reload — the current *Policy swaps through an
// atomic pointer, so reloads drop zero requests. Observability rides the
// internal/obs stack: request counters and a latency histogram in the
// metrics registry (scraped via the shared telemetry mux, see
// export.WithRoute), optional per-request tracer spans, and a structured
// event per reload.
//
// The service is multi-tenant: Config.Policies maps tenant names to
// independently hot-reloadable checkpoints, routed at /v1/t/{tenant}/*
// with per-tenant generation gauges, tenant-labeled serve_* metrics and
// optional per-tenant request quotas (429 on breach). The unprefixed
// /v1/* routes serve the "default" tenant (Config.Checkpoint).
//
// With Config.BatchWindow > 0 each tenant micro-batches its in-flight
// evaluations: requests arriving within the window (up to BatchMax)
// evaluate as one GEMM through qnet.Evaluator.QValuesBatch, amortizing
// per-request overhead while staying bit-identical to the per-request
// path — the host-side analogue of the batch inference hardware
// accelerators use to reach "millions of users" throughput.
//
// Endpoints (all JSON):
//
//	POST /v1/predict             {"state":[...]} → {"action":n,"q":[...],"generation":g}
//	POST /v1/act                 {"state":[...]} → {"action":n,"generation":g}
//	GET  /v1/info                checkpoint provenance, network dims, pool config
//	POST /v1/t/{tenant}/predict  per-tenant predict
//	POST /v1/t/{tenant}/act      per-tenant act
//	GET  /v1/t/{tenant}/info     per-tenant info
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"oselmrl/internal/obs"
	"oselmrl/internal/obs/slo"
	"oselmrl/internal/persist"
)

// Metric and event names the service records (results/README.md documents
// the exported forms under the oselmrl_ prefix). Each counter and the
// generation gauge also exist tenant-labeled (obs.Labeled, rendered as
// Prometheus labels); the unlabeled series aggregate across tenants.
const (
	// MetricRequests counts every /v1/predict and /v1/act request.
	MetricRequests = "serve_requests"
	// MetricOK counts requests answered 200.
	MetricOK = "serve_ok"
	// MetricErrors counts requests answered with an error: a 400 for a
	// bad body or state (one that drives a Q value out of range
	// included), or a 500 for a policy whose weights are not all finite
	// producing a non-finite Q value.
	MetricErrors = "serve_errors"
	// MetricShed counts requests shed with 429 because the worker pool
	// and its bounded queue were full on arrival.
	MetricShed = "serve_shed"
	// MetricTimeout counts requests admitted to the queue but shed with
	// 429 because their request budget expired before a worker freed up
	// — the distinct outcome that separates "overloaded now" (shed) from
	// "overloaded for longer than callers will wait" (timeout).
	MetricTimeout = "serve_timeouts"
	// MetricQuotaDenied counts requests rejected with 429 because the
	// tenant's request quota (Config.Quotas) was exhausted.
	MetricQuotaDenied = "serve_quota_denied"
	// MetricReloads and MetricReloadErrors count checkpoint hot-reloads.
	MetricReloads      = "serve_reloads"
	MetricReloadErrors = "serve_reload_errors"
	// HistLatencyMS is the total request latency histogram (milliseconds,
	// admission wait and response encode included).
	HistLatencyMS = "serve_latency_ms"
	// HistQueueMS is the admission-wait component: time from request
	// arrival to a worker slot (observed for every counted request,
	// including shed and timed-out ones — their whole life is queue
	// wait).
	HistQueueMS = "serve_queue_ms"
	// HistEvalMS is the evaluator component: acquiring an evaluator and
	// running the forward pass (observed only for requests that reached
	// evaluation).
	HistEvalMS = "serve_eval_ms"
	// HistBatchSize is the micro-batch size distribution, observed once
	// per flush (only with batching on; also tenant-labeled).
	HistBatchSize = "serve_batch_size"
	// GaugeGeneration is the current policy generation (tenant-labeled
	// per tenant; the unlabeled gauge tracks the default tenant).
	GaugeGeneration = "serve_generation"
	// EventReload is emitted once per successful hot-reload, labeled with
	// the tenant.
	EventReload = "serve_reload"
	// EventAccess is the structured access log: one event per request
	// when Config.AccessLog is on. Labels: trace (32-hex W3C trace ID),
	// route, tenant. Data: status, queue_ms, eval_ms, total_ms,
	// generation, batch (micro-batch size the request was evaluated in;
	// 1 on the per-request path, 0 when it never reached evaluation),
	// shed (0/1), timeout (0/1).
	EventAccess = "serve_access"
)

// Span names of the per-request trace tree (group "req:<trace-id-low>"):
// SpanRequest covers the whole request, with the queue-wait, evaluator
// and response-encode phases as child spans on the same track.
const (
	SpanRequest = "serve_predict"
	SpanQueue   = "serve_queue"
	SpanEval    = "serve_eval"
	SpanEncode  = "serve_encode"
)

// LatencyBuckets are the HistLatencyMS upper bounds in milliseconds,
// sized for an in-process predict path that answers in microseconds.
var LatencyBuckets = []float64{0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250}

// BatchBuckets are the HistBatchSize upper bounds (requests per flush).
var BatchBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// maxBodyBytes bounds a request body; states are tiny.
const maxBodyBytes = 1 << 20

// maxRetryAfterSeconds caps the queue-depth-derived Retry-After hint.
const maxRetryAfterSeconds = 30

// Config configures a Service.
type Config struct {
	// Checkpoint is the default tenant's agent snapshot path, loaded at
	// New and re-read by every Reload. Optional when Policies names at
	// least one tenant.
	Checkpoint string
	// Policies maps tenant names to checkpoint paths (cmd/serve's
	// repeatable -policy name=path). Each tenant hot-reloads
	// independently. A "default" entry conflicts with Checkpoint.
	Policies map[string]string
	// Quotas maps tenant names to a sustained request rate limit in
	// requests/second (token bucket, burst = max(rate, 1)). Tenants
	// absent from the map are unlimited. Breaches answer 429 with a
	// Retry-After derived from the bucket's refill time.
	Quotas map[string]float64
	// Pool caps concurrently evaluating requests (default GOMAXPROCS).
	Pool int
	// Queue caps requests waiting for a worker beyond the pool; arrivals
	// past pool+queue are shed immediately with 429 (default 4×Pool).
	Queue int
	// Timeout bounds one request including its wait for a worker
	// (default 1s). A request still queued at the deadline is shed.
	Timeout time.Duration
	// BatchWindow, when > 0, micro-batches evaluations per tenant:
	// requests arriving within the window coalesce into one GEMM. 0 (the
	// default) keeps the per-request path.
	BatchWindow time.Duration
	// BatchMax caps a micro-batch (default 16). Reaching it flushes the
	// batch before the window expires.
	BatchMax int
	// Obs receives metrics, events and tracer spans; nil disables
	// observability (every obs call is nil-safe).
	Obs *obs.Emitter
	// AccessLog emits one EventAccess per request through Obs's event
	// sink. Off (the default) the access path allocates nothing.
	AccessLog bool
	// SLO, when non-nil, receives every request's outcome and latency
	// split for burn-rate evaluation (internal/obs/slo); expose its
	// report via export.WithSLO. A nil engine costs one pointer
	// comparison per request.
	SLO *slo.Engine
}

func (c *Config) fill() {
	if c.Pool <= 0 {
		c.Pool = runtime.GOMAXPROCS(0)
	}
	if c.Queue < 0 {
		c.Queue = 0
	} else if c.Queue == 0 {
		c.Queue = 4 * c.Pool
	}
	if c.Timeout <= 0 {
		c.Timeout = time.Second
	}
	if c.BatchMax <= 0 {
		c.BatchMax = 16
	}
}

// Service serves checkpointed policies concurrently with hot-reload.
type Service struct {
	cfg     Config
	obs     *obs.Emitter
	slo     *slo.Engine
	tenants map[string]*Tenant // immutable after New
	names   []string           // sorted tenant names
	def     *Tenant            // tenant behind the unprefixed routes (may be nil)
	sem     chan struct{}      // worker slots
	queue   chan struct{}      // bounded wait slots beyond the pool

	// evalEWMA is the exponentially weighted per-request evaluation time
	// in milliseconds (float64 bits), fed by every eval and read by the
	// 429 Retry-After estimate.
	evalEWMA atomic.Uint64

	// reloading serializes Reload calls so generations stay monotonic.
	reloading chan struct{}

	// testHookEval, when set, runs inside the worker slot before each
	// evaluation — tests use it to hold workers busy deterministically.
	testHookEval func()
}

// New loads every configured checkpoint and returns a ready service.
func New(cfg Config) (*Service, error) {
	cfg.fill()
	specs := make(map[string]string, len(cfg.Policies)+1)
	for name, path := range cfg.Policies {
		if name == "" || path == "" {
			return nil, fmt.Errorf("serve: empty tenant name or path in Policies")
		}
		if strings.ContainsAny(name, "/{}=,") {
			return nil, fmt.Errorf("serve: tenant name %q contains reserved characters", name)
		}
		specs[name] = path
	}
	if cfg.Checkpoint != "" {
		if other, dup := specs[DefaultTenant]; dup && other != cfg.Checkpoint {
			return nil, fmt.Errorf("serve: both Checkpoint and Policies[%q] set", DefaultTenant)
		}
		specs[DefaultTenant] = cfg.Checkpoint
	}
	if len(specs) == 0 {
		return nil, errors.New("serve: no checkpoint configured")
	}
	s := &Service{
		cfg:       cfg,
		obs:       cfg.Obs,
		slo:       cfg.SLO,
		tenants:   make(map[string]*Tenant, len(specs)),
		sem:       make(chan struct{}, cfg.Pool),
		queue:     make(chan struct{}, cfg.Queue),
		reloading: make(chan struct{}, 1),
	}
	if reg := s.obs.Metrics(); reg != nil {
		reg.NewHistogram(HistLatencyMS, LatencyBuckets)
		reg.NewHistogram(HistQueueMS, LatencyBuckets)
		reg.NewHistogram(HistEvalMS, LatencyBuckets)
		if cfg.BatchWindow > 0 {
			reg.NewHistogram(HistBatchSize, BatchBuckets)
		}
	}
	for name, path := range specs {
		agent, err := persist.LoadAgentFile(path)
		if err != nil {
			return nil, fmt.Errorf("serve: tenant %q: %w", name, err)
		}
		t := newTenant(name, path)
		t.policy.Store(newPolicy(agent, path, 1))
		if rps := cfg.Quotas[name]; rps > 0 {
			t.quota = newTokenBucket(rps)
		}
		if cfg.BatchWindow > 0 {
			t.batch = newBatcher(s, t, cfg.BatchWindow, cfg.BatchMax)
			if reg := s.obs.Metrics(); reg != nil {
				reg.NewHistogram(t.hBatch, BatchBuckets)
			}
			go t.batch.run()
		}
		s.obs.SetGauge(t.gGen, 1)
		s.tenants[name] = t
		s.names = append(s.names, name)
	}
	sort.Strings(s.names)
	s.def = s.tenants[DefaultTenant]
	if s.def == nil && len(s.tenants) == 1 {
		s.def = s.tenants[s.names[0]]
	}
	if s.def != nil {
		s.obs.SetGauge(GaugeGeneration, 1)
	}
	return s, nil
}

// Close stops the per-tenant batch collectors, flushing anything already
// parked; requests arriving afterwards evaluate inline, so a drain never
// drops a request. Safe without batching and safe to call more than once.
func (s *Service) Close() {
	for _, name := range s.names {
		if b := s.tenants[name].batch; b != nil {
			b.close()
		}
	}
}

// Policy returns the default tenant's currently served policy (nil when
// no default tenant is configured).
func (s *Service) Policy() *Policy {
	if s.def == nil {
		return nil
	}
	return s.def.policy.Load()
}

// Tenant looks up a tenant by name.
func (s *Service) Tenant(name string) (*Tenant, bool) {
	t, ok := s.tenants[name]
	return t, ok
}

// Tenants returns the tenant names in sorted order.
func (s *Service) Tenants() []string {
	out := make([]string, len(s.names))
	copy(out, s.names)
	return out
}

// Reload re-reads the default tenant's checkpoint and atomically swaps it
// in. In-flight requests keep the policy they started with; new requests
// see the new generation. On error the old policy keeps serving.
func (s *Service) Reload() error {
	if s.def == nil {
		return errors.New("serve: no default tenant")
	}
	return s.reloadTenant(s.def)
}

// ReloadAll reloads every tenant, joining the per-tenant errors; tenants
// that reload cleanly swap in even when others fail.
func (s *Service) ReloadAll() error {
	var errs []error
	for _, name := range s.names {
		if err := s.reloadTenant(s.tenants[name]); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

func (s *Service) reloadTenant(t *Tenant) error {
	s.reloading <- struct{}{}
	defer func() { <-s.reloading }()
	agent, err := persist.LoadAgentFile(t.source)
	if err != nil {
		s.obs.Inc(MetricReloadErrors, 1)
		s.obs.Inc(t.mReloadErr, 1)
		return fmt.Errorf("serve: reload tenant %q: %w", t.name, err)
	}
	gen := t.policy.Load().Generation() + 1
	t.policy.Store(newPolicy(agent, t.source, gen))
	s.obs.SetGauge(t.gGen, float64(gen))
	if t == s.def {
		s.obs.SetGauge(GaugeGeneration, float64(gen))
	}
	s.obs.Inc(MetricReloads, 1)
	s.obs.Inc(t.mReloads, 1)
	s.obs.EmitLabeled(EventReload, map[string]string{"tenant": t.name},
		map[string]float64{"generation": float64(gen)})
	return nil
}

// Handler returns the /v1 mux. Mount it on a dedicated server or on the
// telemetry mux via export.WithRoute("/v1/", s.Handler()).
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/predict", func(w http.ResponseWriter, r *http.Request) {
		s.handleEval(w, r, s.def, true)
	})
	mux.HandleFunc("/v1/act", func(w http.ResponseWriter, r *http.Request) {
		s.handleEval(w, r, s.def, false)
	})
	mux.HandleFunc("/v1/info", func(w http.ResponseWriter, r *http.Request) {
		s.handleInfo(w, r, s.def)
	})
	mux.HandleFunc("/v1/t/", s.handleTenantRoute)
	return mux
}

// handleTenantRoute dispatches /v1/t/{tenant}/{predict|act|info}.
func (s *Service) handleTenantRoute(w http.ResponseWriter, r *http.Request) {
	rest := strings.TrimPrefix(r.URL.Path, "/v1/t/")
	name, op, ok := strings.Cut(rest, "/")
	if !ok || name == "" {
		writeJSON(w, http.StatusNotFound, errorResponse{"want /v1/t/{tenant}/{predict|act|info}"})
		return
	}
	t := s.tenants[name]
	if t == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown tenant " + strconv.Quote(name)})
		return
	}
	switch op {
	case "predict":
		s.handleEval(w, r, t, true)
	case "act":
		s.handleEval(w, r, t, false)
	case "info":
		s.handleInfo(w, r, t)
	default:
		writeJSON(w, http.StatusNotFound, errorResponse{"unknown endpoint " + strconv.Quote(op)})
	}
}

// admit implements the bounded-pool backpressure: a free worker slot
// admits immediately; otherwise the request takes a bounded queue slot
// and waits for a worker until ctx ends or its budget (Config.Timeout
// from start) runs out; a full queue sheds at once. Only a waiting
// request starts a timer. On ok the caller holds a worker slot and must
// free it exactly once with <-s.sem; timedOut distinguishes a queue-wait
// expiry from an immediate full-queue shed.
func (s *Service) admit(ctx context.Context, start time.Time) (ok, timedOut bool) {
	select {
	case s.sem <- struct{}{}:
		return true, false
	default:
	}
	select {
	case s.queue <- struct{}{}:
		defer func() { <-s.queue }()
		ctx, cancel := context.WithTimeout(ctx, s.cfg.Timeout-time.Since(start))
		defer cancel()
		select {
		case s.sem <- struct{}{}:
			return true, false
		case <-ctx.Done():
			return false, true
		}
	default:
		return false, false
	}
}

// noteEvalMS folds one per-request evaluation time into the EWMA the
// Retry-After estimate reads (lock-free; last CAS winner is fine).
func (s *Service) noteEvalMS(ms float64) {
	const alpha = 0.2
	for {
		old := s.evalEWMA.Load()
		next := ms
		if old != 0 {
			cur := math.Float64frombits(old)
			next = cur + alpha*(ms-cur)
		}
		if s.evalEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// retryAfterSeconds estimates when a shed caller should come back: the
// current backlog (busy workers plus queued waiters) times the EWMA
// per-request evaluation time, spread over the pool, rounded up and
// clamped to [1, maxRetryAfterSeconds]. A cold EWMA assumes 1ms.
func (s *Service) retryAfterSeconds() int {
	depth := len(s.sem) + len(s.queue)
	ms := math.Float64frombits(s.evalEWMA.Load())
	if ms <= 0 {
		ms = 1
	}
	secs := float64(depth+1) * ms / (float64(s.cfg.Pool) * 1000)
	ra := int(math.Ceil(secs))
	if ra < 1 {
		ra = 1
	}
	if ra > maxRetryAfterSeconds {
		ra = maxRetryAfterSeconds
	}
	return ra
}

// retryAfterHeader formats a duration as a whole-second Retry-After
// value, rounding up and clamping like retryAfterSeconds.
func retryAfterHeader(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	if secs > maxRetryAfterSeconds {
		secs = maxRetryAfterSeconds
	}
	return strconv.Itoa(secs)
}

// request is the per-request observability state threaded from admission
// to the final access-log record. Held by value on the handler stack so
// the fully disabled path allocates nothing.
type request struct {
	route      string
	tenant     string
	tc         traceContext
	traced     bool
	start      time.Time
	queueMS    float64
	evalMS     float64
	evaluated  bool
	status     int
	outcome    slo.Outcome
	generation int
	batch      int
	root       obs.Span
}

// msSince is the elapsed milliseconds since t.
func msSince(t time.Time) float64 {
	return float64(time.Since(t)) / float64(time.Millisecond)
}

// beginRequest establishes the trace context: an incoming W3C
// traceparent header continues the caller's trace; otherwise a fresh
// trace ID is generated whenever request observability (span tracing or
// access logging) will use one. With everything off and no incoming
// header, the request stays untraced at the cost of one header lookup.
// The key is spelled in canonical form: Get canonicalizes any other
// spelling into a new string on every request.
func (s *Service) beginRequest(r *http.Request, rq *request) {
	if h := r.Header.Get("Traceparent"); h != "" {
		if tc, ok := parseTraceparent(h); ok {
			rq.tc, rq.traced = tc, true
		}
	}
	if !rq.traced && (s.obs.Tracer() != nil || s.cfg.AccessLog) {
		rq.tc, rq.traced = newTraceContext(), true
	}
	if rq.traced {
		if tr := s.obs.Tracer(); tr != nil {
			rq.root = tr.StartSpanGroup(SpanRequest, rq.tc.spanGroup())
		}
	}
}

// span opens a child span of the request's trace tree (inactive when
// the request is untraced or no tracer is attached).
func (s *Service) span(rq *request, name string) obs.Span {
	if !rq.root.Active() {
		return obs.Span{}
	}
	return s.obs.Tracer().StartSpanGroup(name, rq.tc.spanGroup())
}

// finishRequest records the request's outcome everywhere it is
// observable: the latency histograms (total always, queue always, eval
// when an evaluator ran), the SLO engine, the request root span, and —
// with access logging on — one serve_access event. Every disabled
// consumer is skipped without allocating.
func (s *Service) finishRequest(rq *request) {
	totalMS := msSince(rq.start)
	s.obs.Observe(HistLatencyMS, totalMS)
	s.obs.Observe(HistQueueMS, rq.queueMS)
	if rq.evaluated {
		s.obs.Observe(HistEvalMS, rq.evalMS)
	}
	s.slo.Record(rq.outcome, rq.queueMS, rq.evalMS, totalMS)
	rq.root.End()
	if s.cfg.AccessLog {
		s.obs.EmitLabeled(EventAccess,
			map[string]string{"trace": rq.tc.traceIDHex(), "route": rq.route, "tenant": rq.tenant},
			map[string]float64{
				"status":     float64(rq.status),
				"queue_ms":   rq.queueMS,
				"eval_ms":    rq.evalMS,
				"total_ms":   totalMS,
				"generation": float64(rq.generation),
				"batch":      float64(rq.batch),
				"shed":       boolToFloat(rq.outcome == slo.Shed),
				"timeout":    boolToFloat(rq.outcome == slo.Timeout),
			})
	}
}

func boolToFloat(b bool) float64 {
	if b {
		return 1
	}
	return 0
}

// setHeaders sets the response's Content-Type (application/json) and
// annotates it with the request's identity and latency split: X-Trace-Id
// (when traced) and a standard Server-Timing header carrying the queue
// and eval components, which is how cmd/loadgen -slo splits
// client-observed latency without a server-side log. Content-Type and
// Server-Timing share one backing array.
func setHeaders(w http.ResponseWriter, rq *request) {
	var buf [64]byte
	vals := make([]string, 2)
	vals[0], vals[1] = "application/json", string(appendServerTiming(buf[:0], rq))
	h := w.Header()
	h["Content-Type"], h["Server-Timing"] = vals[0:1:1], vals[1:2:2]
	if rq.traced {
		h.Set("X-Trace-Id", rq.tc.traceIDHex())
	}
}

// fail answers the request with status and {"error":msg}, counting it as
// outcome.
func (s *Service) fail(w http.ResponseWriter, rq *request, status int, outcome slo.Outcome, msg string) {
	rq.status, rq.outcome = status, outcome
	setHeaders(w, rq)
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(errorResponse{msg})
	s.finishRequest(rq)
}

func (s *Service) handleEval(w http.ResponseWriter, r *http.Request, t *Tenant, includeQ bool) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"POST only"})
		return
	}
	if t == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"no default tenant; use /v1/t/{tenant}/"})
		return
	}
	rq := request{route: r.URL.Path, tenant: t.name, start: time.Now()}
	s.obs.Inc(MetricRequests, 1)
	s.obs.Inc(t.mReq, 1)
	s.beginRequest(r, &rq)
	rq.generation = t.policy.Load().Generation()

	if t.quota != nil {
		if ok, retryIn := t.quota.allow(rq.start); !ok {
			s.obs.Inc(MetricQuotaDenied, 1)
			s.obs.Inc(t.mQuota, 1)
			rq.queueMS = msSince(rq.start)
			w.Header().Set("Retry-After", retryAfterHeader(retryIn))
			s.fail(w, &rq, http.StatusTooManyRequests, slo.Shed, "tenant quota exceeded, retry later")
			return
		}
	}

	qSpan := s.span(&rq, SpanQueue)
	ok, timedOut := s.admit(r.Context(), rq.start)
	qSpan.End()
	rq.queueMS = msSince(rq.start)
	if !ok {
		outcome := slo.Shed
		if timedOut {
			outcome = slo.Timeout
			s.obs.Inc(MetricTimeout, 1)
			s.obs.Inc(t.mTimeout, 1)
		} else {
			s.obs.Inc(MetricShed, 1)
			s.obs.Inc(t.mShed, 1)
		}
		w.Header().Set("Retry-After", strconv.Itoa(s.retryAfterSeconds()))
		s.fail(w, &rq, http.StatusTooManyRequests, outcome, "overloaded, retry later")
		return
	}
	holding := true // the worker slot admit took
	defer func() {
		if holding {
			<-s.sem
		}
	}()

	sc := scratchPool.Get().(*evalScratch)
	defer scratchPool.Put(sc)
	state, err := sc.decodeState(w, r.Body)
	if err != nil {
		s.countError(t)
		s.fail(w, &rq, http.StatusBadRequest, slo.ClientError, "bad request body: "+err.Error())
		return
	}
	if s.testHookEval != nil {
		s.testHookEval()
	}

	var resp evalResponse
	evalStart := time.Now()
	eSpan := s.span(&rq, SpanEval)
	if t.batch != nil {
		// Micro-batched path: park with the tenant's collector; the reply
		// carries the batch size and a Q copy. A closed collector (drain)
		// falls back to inline evaluation so the request is never dropped.
		// The item gets its own copy of the state: sc goes back to the
		// pool when this handler returns.
		it := &batchItem{state: append([]float64(nil), state...), includeQ: includeQ, out: make(chan batchOut, 1)}
		var bo batchOut
		answered := false
		if t.batch.submit(it) {
			// The worker slot only gates admission: free it while parked so
			// peer requests can join the same batch (otherwise a small -pool
			// would cap every batch at the pool size). Eval concurrency is
			// bounded by the per-tenant collector and the evaluator pool.
			holding = false
			<-s.sem
			bo, answered = t.batch.await(it)
		}
		if !answered {
			bo = t.evalInline(state, includeQ)
		}
		rq.generation, rq.batch = bo.generation, bo.size
		resp = evalResponse{Action: bo.action, Q: bo.q, Generation: bo.generation}
		err = bo.err
		eSpan.End()
		rq.evalMS, rq.evaluated = msSince(evalStart), true
	} else {
		// Per-request path: the policy pointer read and the evaluation
		// both happen against one consistent snapshot — a concurrent
		// Reload swaps the pointer for future requests without touching
		// this one.
		p := t.policy.Load()
		rq.generation, rq.batch = p.generation, 1
		ev := p.acquire()
		defer p.release(ev) // after the response, which encodes its Q values
		var qs []float64
		qs, err = ev.QValues(state)
		eSpan.End()
		rq.evalMS, rq.evaluated = msSince(evalStart), true
		s.noteEvalMS(rq.evalMS)
		if err == nil {
			resp.Action, err = p.bestAction(qs)
			resp.Generation = p.generation
			if includeQ {
				resp.Q = qs
			}
		}
	}
	if err == nil {
		s.writeEvalOK(w, &rq, t, sc, &resp)
		return
	}
	s.countError(t)
	status, outcome := http.StatusBadRequest, slo.ClientError
	if errors.Is(err, errNonFiniteQ) {
		status, outcome = http.StatusInternalServerError, slo.ServerError
	}
	s.fail(w, &rq, status, outcome, err.Error())
}

// countError counts a request answered with an error status.
func (s *Service) countError(t *Tenant) {
	s.obs.Inc(MetricErrors, 1)
	s.obs.Inc(t.mErr, 1)
}

// writeEvalOK encodes the 200 response into sc and closes out the request
// bookkeeping shared by the batched and per-request paths.
func (s *Service) writeEvalOK(w http.ResponseWriter, rq *request, t *Tenant, sc *evalScratch, resp *evalResponse) {
	encSpan := s.span(rq, SpanEncode)
	rq.status, rq.outcome = http.StatusOK, slo.OK
	setHeaders(w, rq)
	sc.resp = appendEvalResponse(sc.resp[:0], resp)
	w.WriteHeader(http.StatusOK)
	w.Write(sc.resp)
	encSpan.End()
	s.obs.Inc(MetricOK, 1)
	s.obs.Inc(t.mOK, 1)
	s.finishRequest(rq)
}

// evalInline answers one request on the per-request path — the fallback
// when the batch collector has been closed for drain.
func (t *Tenant) evalInline(state []float64, includeQ bool) batchOut {
	p := t.policy.Load()
	ev := p.acquire()
	defer p.release(ev)
	qs, err := ev.QValues(state)
	return answer(p, qs, err, includeQ, 1)
}

func (s *Service) handleInfo(w http.ResponseWriter, r *http.Request, t *Tenant) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET only"})
		return
	}
	if t == nil {
		writeJSON(w, http.StatusNotFound, errorResponse{"no default tenant; use /v1/t/{tenant}/"})
		return
	}
	info := t.policy.Load().Info()
	writeJSON(w, http.StatusOK, struct {
		Info
		Tenant       string   `json:"tenant"`
		Tenants      []string `json:"tenants"`
		Pool         int      `json:"pool"`
		Queue        int      `json:"queue"`
		Timeout      float64  `json:"timeout_seconds"`
		BatchWindowS float64  `json:"batch_window_seconds"`
		BatchMax     int      `json:"batch_max"`
	}{info, t.name, s.Tenants(), s.cfg.Pool, s.cfg.Queue, s.cfg.Timeout.Seconds(),
		s.cfg.BatchWindow.Seconds(), s.cfg.BatchMax})
}
