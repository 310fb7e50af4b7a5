package serve

import (
	"bytes"
	"encoding/json"
	"maps"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"oselmrl/internal/obs"
	"oselmrl/internal/obs/slo"
)

// memSink captures emitted events for assertions. An event's data is
// only valid during Write, so it keeps a copy.
type memSink struct {
	mu     sync.Mutex
	events []obs.Event
}

func (m *memSink) Write(ev *obs.Event) error {
	kept := *ev
	kept.Data = maps.Clone(ev.Data)
	m.mu.Lock()
	m.events = append(m.events, kept)
	m.mu.Unlock()
	return nil
}

func (m *memSink) Close() error { return nil }

func (m *memSink) byType(typ string) []obs.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	var out []obs.Event
	for _, ev := range m.events {
		if ev.Type == typ {
			out = append(out, ev)
		}
	}
	return out
}

func TestAccessLogPerRequest(t *testing.T) {
	sink := &memSink{}
	em := obs.NewEmitter(sink)
	s, _ := newTestService(t, Config{Obs: em, AccessLog: true})
	h := s.Handler()

	if w := postPredict(h, "/v1/predict", []float64{0.1, -0.2, 0.3, 0}); w.Code != http.StatusOK {
		t.Fatalf("predict status %d", w.Code)
	}
	if w := postPredict(h, "/v1/act", []float64{1}); w.Code != http.StatusBadRequest {
		t.Fatalf("short state status %d", w.Code)
	}

	evs := sink.byType(EventAccess)
	if len(evs) != 2 {
		t.Fatalf("access events = %d, want 2", len(evs))
	}
	okEv, errEv := evs[0], evs[1]
	if okEv.Labels["route"] != "/v1/predict" || errEv.Labels["route"] != "/v1/act" {
		t.Errorf("routes: %q, %q", okEv.Labels["route"], errEv.Labels["route"])
	}
	if len(okEv.Labels["trace"]) != 32 {
		t.Errorf("trace label %q", okEv.Labels["trace"])
	}
	if okEv.Data["status"] != 200 || errEv.Data["status"] != 400 {
		t.Errorf("statuses: %v, %v", okEv.Data["status"], errEv.Data["status"])
	}
	if okEv.Data["generation"] != 1 {
		t.Errorf("generation %v", okEv.Data["generation"])
	}
	if okEv.Data["total_ms"] < okEv.Data["queue_ms"] || okEv.Data["total_ms"] < okEv.Data["eval_ms"] {
		t.Errorf("latency split inconsistent: %+v", okEv.Data)
	}
	if okEv.Data["shed"] != 0 || okEv.Data["timeout"] != 0 {
		t.Errorf("ok request flagged shed/timeout: %+v", okEv.Data)
	}
}

// The serve_access schema is pinned by a golden file: field names are a
// public contract for dashboards and cmd/runlog, so adding or renaming a
// field must show up as a reviewed diff of testdata/access_golden.json.
// Volatile values (timings, sequence, trace ID) are normalized before
// comparison.
func TestAccessEventGoldenSchema(t *testing.T) {
	sink := &memSink{}
	em := obs.NewEmitter(sink)
	s, _ := newTestService(t, Config{Obs: em, AccessLog: true})
	if w := postPredict(s.Handler(), "/v1/predict", []float64{0.1, -0.2, 0.3, 0}); w.Code != http.StatusOK {
		t.Fatalf("predict status %d", w.Code)
	}
	evs := sink.byType(EventAccess)
	if len(evs) != 1 {
		t.Fatalf("access events = %d", len(evs))
	}
	ev := evs[0]

	// Every volatile field must exist before being pinned.
	for _, k := range []string{"queue_ms", "eval_ms", "total_ms"} {
		if _, ok := ev.Data[k]; !ok {
			t.Fatalf("missing data field %q", k)
		}
	}
	if _, ok := ev.Labels["trace"]; !ok {
		t.Fatal("missing trace label")
	}
	ev.Seq = 1
	ev.WallMS = 1.25
	ev.Data["queue_ms"] = 0.01
	ev.Data["eval_ms"] = 0.02
	ev.Data["total_ms"] = 0.05
	ev.Labels["trace"] = "4bf92f3577b34da6a3ce929d0e0e4736"

	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", " ")
	if err := enc.Encode(ev); err != nil {
		t.Fatal(err)
	}
	got := buf.String()

	goldenPath := filepath.Join("testdata", "access_golden.json")
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("%v (regenerate with UPDATE_GOLDEN=1 go test ./internal/serve)", err)
	}
	if got != string(want) {
		t.Errorf("serve_access schema drifted from golden.\ngot:\n%s\nwant:\n%s\n(if intentional: UPDATE_GOLDEN=1 go test ./internal/serve)", got, want)
	}
}

// An incoming W3C traceparent continues the caller's trace: its trace ID
// shows up in the X-Trace-Id response header and the access log.
func TestTraceparentIngestion(t *testing.T) {
	sink := &memSink{}
	em := obs.NewEmitter(sink)
	s, _ := newTestService(t, Config{Obs: em, AccessLog: true})
	h := s.Handler()

	const callerTrace = "4bf92f3577b34da6a3ce929d0e0e4736"
	body, _ := json.Marshal(evalRequest{State: []float64{0, 0, 0, 0}})
	req := httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	req.Header.Set("traceparent", "00-"+callerTrace+"-00f067aa0ba902b7-01")
	w := httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if got := w.Header().Get("X-Trace-Id"); got != callerTrace {
		t.Errorf("X-Trace-Id = %q, want %q", got, callerTrace)
	}
	if st := w.Header().Get("Server-Timing"); !strings.Contains(st, "queue;dur=") || !strings.Contains(st, "eval;dur=") {
		t.Errorf("Server-Timing = %q", st)
	}
	evs := sink.byType(EventAccess)
	if len(evs) != 1 || evs[0].Labels["trace"] != callerTrace {
		t.Errorf("access trace label = %+v", evs)
	}

	// A malformed traceparent is ignored; a fresh ID is generated.
	req = httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(body))
	req.Header.Set("traceparent", "garbage")
	w = httptest.NewRecorder()
	h.ServeHTTP(w, req)
	if got := w.Header().Get("X-Trace-Id"); len(got) != 32 || got == callerTrace {
		t.Errorf("generated X-Trace-Id = %q", got)
	}
}

// With a tracer attached, one request produces the span tree
// queue→eval→encode under a per-request group, inspectable in Perfetto.
func TestRequestSpanTree(t *testing.T) {
	em := obs.NewEmitter(nil)
	tr := obs.NewTracer()
	em.SetTracer(tr)
	s, _ := newTestService(t, Config{Obs: em})
	if w := postPredict(s.Handler(), "/v1/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	spans := tr.Spans()
	byName := map[string]obs.SpanRecord{}
	for _, sp := range spans {
		byName[sp.Name] = sp
	}
	for _, name := range []string{SpanRequest, SpanQueue, SpanEval, SpanEncode} {
		sp, ok := byName[name]
		if !ok {
			t.Fatalf("span %q missing (have %v)", name, names(spans))
		}
		if !strings.HasPrefix(sp.Group, "req:") {
			t.Errorf("span %q group %q", name, sp.Group)
		}
	}
	root := byName[SpanRequest]
	for _, name := range []string{SpanQueue, SpanEval, SpanEncode} {
		sp := byName[name]
		if sp.Group != root.Group {
			t.Errorf("span %q group %q != root %q", name, sp.Group, root.Group)
		}
		if sp.StartUS < root.StartUS || sp.StartUS+sp.DurUS > root.StartUS+root.DurUS+50 {
			t.Errorf("span %q [%f,+%f] escapes root [%f,+%f]", name, sp.StartUS, sp.DurUS, root.StartUS, root.DurUS)
		}
	}
}

func names(spans []obs.SpanRecord) []string {
	out := make([]string, len(spans))
	for i, sp := range spans {
		out[i] = sp.Name
	}
	sort.Strings(out)
	return out
}

// The queue/eval histogram split and the SLO engine both see every
// request.
func TestLatencySplitAndSLORecording(t *testing.T) {
	em := obs.NewEmitter(nil)
	eng := slo.NewEngine(slo.DefaultObjectives())
	s, _ := newTestService(t, Config{Obs: em, SLO: eng})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if w := postPredict(h, "/v1/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	postPredict(h, "/v1/predict", []float64{1}) // client error

	snap := em.Metrics().Snapshot()
	if hq := snap.Histograms[HistQueueMS]; hq == nil || hq.N != 4 {
		t.Errorf("queue histogram %+v", hq)
	}
	if he := snap.Histograms[HistEvalMS]; he == nil || he.N != 4 {
		t.Errorf("eval histogram %+v", he)
	}
	if ht := snap.Histograms[HistLatencyMS]; ht == nil || ht.N != 4 {
		t.Errorf("total histogram %+v", ht)
	}

	rep := eng.Report()
	if rep.Requests != 4 || rep.OK != 3 || rep.ClientErrors != 1 {
		t.Errorf("slo report %+v", rep)
	}
	if rep.QueueMS.N != 4 || rep.EvalMS.N != 4 || rep.TotalMS.N != 4 {
		t.Errorf("slo distributions %+v", rep)
	}
}

// A forced breach — an absurd latency objective — must drive the engine
// into fast burn via real served traffic.
func TestForcedBreachFastBurn(t *testing.T) {
	eng := slo.NewEngine(slo.Objectives{LatencyP99MS: 0.00001})
	eng.SetFastBurn(0, 5) // default rate, tiny minimum population
	s, _ := newTestService(t, Config{Obs: obs.NewEmitter(nil), SLO: eng})
	h := s.Handler()
	for i := 0; i < 25; i++ {
		if w := postPredict(h, "/v1/predict", []float64{0, 0, 0, 0}); w.Code != http.StatusOK {
			t.Fatalf("status %d", w.Code)
		}
	}
	if !eng.FastBurn() {
		t.Fatalf("engine must fast-burn under a sub-µs objective: %+v", eng.Report())
	}
	if br := slo.GateBreaches(eng.Report()); len(br) != 1 || br[0] != "latency" {
		t.Errorf("gate breaches = %v", br)
	}
}

// Shed and timed-out requests carry distinct flags in the access log and
// distinct outcomes in the SLO engine.
func TestShedAndTimeoutOutcomes(t *testing.T) {
	sink := &memSink{}
	em := obs.NewEmitter(sink)
	eng := slo.NewEngine(slo.DefaultObjectives())
	s, _ := newTestService(t, Config{Pool: 1, Queue: 1, Timeout: 50 * time.Millisecond,
		Obs: em, SLO: eng, AccessLog: true})
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	s.testHookEval = func() {
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
	}
	h := s.Handler()

	done := make(chan struct{})
	go func() {
		postPredict(h, "/v1/predict", []float64{0, 0, 0, 0})
		close(done)
	}()
	<-entered

	// Second request: queued, then times out. Third: queue full, shed.
	timedOut := make(chan *httptest.ResponseRecorder, 1)
	go func() { timedOut <- postPredict(h, "/v1/predict", []float64{0, 0, 0, 0}) }()
	time.Sleep(10 * time.Millisecond) // let it take the queue slot
	wShed := postPredict(h, "/v1/predict", []float64{0, 0, 0, 0})
	if wShed.Code != http.StatusTooManyRequests {
		t.Fatalf("shed status %d", wShed.Code)
	}
	if w := <-timedOut; w.Code != http.StatusTooManyRequests {
		t.Fatalf("timeout status %d", w.Code)
	}
	close(release)
	<-done

	snap := em.Metrics().Snapshot()
	if snap.Counter(MetricShed) != 1 || snap.Counter(MetricTimeout) != 1 {
		t.Errorf("shed=%d timeouts=%d, want 1 each",
			snap.Counter(MetricShed), snap.Counter(MetricTimeout))
	}
	var sheds, timeouts int
	for _, ev := range sink.byType(EventAccess) {
		sheds += int(ev.Data["shed"])
		timeouts += int(ev.Data["timeout"])
	}
	if sheds != 1 || timeouts != 1 {
		t.Errorf("access flags: shed=%d timeout=%d", sheds, timeouts)
	}
	rep := eng.Report()
	if rep.Shed != 1 || rep.Timeouts != 1 || rep.OK != 1 {
		t.Errorf("slo outcomes %+v", rep)
	}
}

// With access logging, SLO evaluation and tracing all off, the
// per-request bookkeeping path must not allocate — the serving hot path
// stays as cheap as before this instrumentation existed.
func TestDisabledRequestObservabilityDoesNotAllocate(t *testing.T) {
	s, _ := newTestService(t, Config{Obs: obs.NewEmitter(nil)})
	rq := request{route: "/v1/predict", start: time.Now(),
		queueMS: 0.01, evalMS: 0.02, evaluated: true,
		status: http.StatusOK, outcome: slo.OK, generation: 1}
	if allocs := testing.AllocsPerRun(1000, func() {
		s.finishRequest(&rq)
	}); allocs != 0 {
		t.Errorf("disabled finishRequest allocates %v/op", allocs)
	}
	// Span helpers on the untraced path are free too.
	if allocs := testing.AllocsPerRun(1000, func() {
		sp := s.span(&rq, SpanQueue)
		sp.End()
	}); allocs != 0 {
		t.Errorf("untraced span allocates %v/op", allocs)
	}
}
