package obs

import (
	"bytes"
	"errors"
	"io"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilEmitterIsSafe(t *testing.T) {
	var e *Emitter
	if e.Enabled() {
		t.Fatal("nil emitter must report disabled")
	}
	// Every method must be callable on nil without panicking.
	e.Emit(EventEpisodeEnd, 1, map[string]float64{"steps": 10})
	e.Inc(MetricSeqUpdates, 1)
	e.SetGauge(GaugeBufferOccupancy, 0.5)
	e.Observe(GaugeBetaSigmaMax, 1.2)
	e.AddWall("seq_train", time.Millisecond)
	e.AddWallSince("seq_train", e.Now())
	if !e.Now().IsZero() {
		t.Fatal("nil emitter Now() must return the zero time")
	}
	if e.Metrics() != nil {
		t.Fatal("nil emitter must have nil registry")
	}
	if e.With(map[string]string{"a": "b"}) != nil {
		t.Fatal("With on nil must stay nil")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(NewJSONLSink(&buf))
	e.Emit(EventRunStart, 0, nil)
	e.Emit(EventEpisodeEnd, 1, map[string]float64{"steps": 17, "score": 17})
	e.Emit(EventRunEnd, 1, map[string]float64{"solved": 1})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	if n := strings.Count(buf.String(), "\n"); n != 3 {
		t.Fatalf("want 3 lines, got %d: %q", n, buf.String())
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 {
		t.Fatalf("want 3 events, got %d", len(events))
	}
	if events[0].Type != EventRunStart || events[2].Type != EventRunEnd {
		t.Fatalf("unexpected event order: %+v", events)
	}
	if events[1].Episode != 1 || events[1].Data["steps"] != 17 {
		t.Fatalf("episode_end payload mangled: %+v", events[1])
	}
	for i, ev := range events {
		if ev.Seq != int64(i+1) {
			t.Fatalf("event %d has seq %d, want %d", i, ev.Seq, i+1)
		}
		if ev.WallMS < 0 {
			t.Fatalf("negative wall_ms: %+v", ev)
		}
	}
}

// A non-finite value must not end the event log: its event is written
// with the offending fields omitted and counted in data.nonfinite, and
// every later event is still written.
func TestNonFiniteValueKeepsLogging(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(NewJSONLSink(&buf))
	e.Emit(EventSeqUpdate, 0, map[string]float64{"step": 3, "td_error": math.NaN(), "target": math.Inf(-1)})
	e.Emit(EventEpisodeEnd, 1, map[string]float64{"steps": 17})
	e.Emit(EventRunEnd, 1, map[string]float64{"solved": 0})
	if err := e.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var types []string
	for _, ev := range events {
		types = append(types, ev.Type)
	}
	if want := []string{EventSeqUpdate, EventEpisodeEnd, EventRunEnd}; !reflect.DeepEqual(types, want) {
		t.Fatalf("events %v, want %v", types, want)
	}
	if want := map[string]float64{"step": 3, "nonfinite": 2}; !reflect.DeepEqual(events[0].Data, want) {
		t.Errorf("non-finite event data %v, want %v", events[0].Data, want)
	}
	if events[1].Data["steps"] != 17 || events[1].Data["nonfinite"] != 0 {
		t.Errorf("finite event data %v", events[1].Data)
	}
}

func TestWithLabels(t *testing.T) {
	var buf bytes.Buffer
	root := NewEmitter(NewJSONLSink(&buf))
	trial := root.With(map[string]string{"trial": "3"})
	trial2 := trial.With(map[string]string{"seed": "7"})
	trial2.Emit(EventEpisodeEnd, 1, nil)
	root.Emit(EventEpisodeEnd, 2, nil)
	if err := root.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if events[0].Labels["trial"] != "3" || events[0].Labels["seed"] != "7" {
		t.Fatalf("derived labels missing: %+v", events[0].Labels)
	}
	if len(events[1].Labels) != 0 {
		t.Fatalf("root emitter must not inherit derived labels: %+v", events[1].Labels)
	}
	// Derived emitters share the registry.
	trial.Inc(MetricSeqUpdates, 2)
	root.Inc(MetricSeqUpdates, 1)
	if got := root.Metrics().Snapshot().Counter(MetricSeqUpdates); got != 3 {
		t.Fatalf("shared registry count = %d, want 3", got)
	}
}

func TestScanEventsStreams(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(NewJSONLSink(&buf))
	e.With(map[string]string{"trial": "1"}).Emit(EventEpisodeEnd, 1, map[string]float64{"steps": 9})
	e.Emit(EventRunEnd, 1, map[string]float64{"solved": 1})
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	log := buf.String()

	var got []Event
	err := ScanEvents(strings.NewReader(log), func(ev *Event) error {
		got = append(got, *ev) // the pointer is reused; copy to retain
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("want 2 events, got %d", len(got))
	}
	if got[0].Labels["trial"] != "1" || got[0].Data["steps"] != 9 {
		t.Fatalf("first event mangled: %+v", got[0])
	}
	// The reused decode target must not bleed fields between events: the
	// second event has no labels, so its map must be empty even though the
	// first event's decode populated one.
	if len(got[1].Labels) != 0 {
		t.Fatalf("label state leaked across ScanEvents iterations: %+v", got[1].Labels)
	}

	// Errors from fn abort the scan and surface verbatim.
	wantErr := errors.New("stop")
	calls := 0
	err = ScanEvents(strings.NewReader(log), func(*Event) error { calls++; return wantErr })
	if !errors.Is(err, wantErr) || calls != 1 {
		t.Fatalf("fn error not propagated: err=%v calls=%d", err, calls)
	}

	// A truncated final line (run killed mid-write) yields
	// io.ErrUnexpectedEOF after the complete events were delivered.
	truncated := log[:len(log)-10]
	calls = 0
	err = ScanEvents(strings.NewReader(truncated), func(*Event) error { calls++; return nil })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated log error = %v, want io.ErrUnexpectedEOF", err)
	}
	if calls != 1 {
		t.Fatalf("complete events before the truncation must be delivered, got %d", calls)
	}
}

func TestConcurrentEmission(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(NewJSONLSink(&buf))
	var wg sync.WaitGroup
	const workers, each = 8, 50
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				e.Emit(EventSeqUpdate, i, map[string]float64{"w": float64(w)})
				e.Inc(MetricSeqUpdates, 1)
				e.AddWall("seq_train", time.Microsecond)
			}
		}(w)
	}
	wg.Wait()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != workers*each {
		t.Fatalf("got %d events, want %d", len(events), workers*each)
	}
	// Every (worker, i) event arrives once with its own data: concurrent
	// Emits on one emitter must not overwrite each other's event.
	seen := make(map[int64]bool, len(events))
	sent := make(map[[2]int]bool, len(events))
	for _, ev := range events {
		if seen[ev.Seq] {
			t.Fatalf("duplicate seq %d", ev.Seq)
		}
		seen[ev.Seq] = true
		sent[[2]int{int(ev.Data["w"]), ev.Episode}] = true
	}
	if len(sent) != workers*each {
		t.Fatalf("got %d distinct (worker, i) events, want %d", len(sent), workers*each)
	}
	snap := e.Metrics().Snapshot()
	if snap.Counter(MetricSeqUpdates) != workers*each {
		t.Fatalf("counter = %d, want %d", snap.Counter(MetricSeqUpdates), workers*each)
	}
	if snap.WallSeconds["seq_train"] <= 0 {
		t.Fatal("wall clock not accumulated")
	}
}
