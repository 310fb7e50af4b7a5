package obs

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzEventEncode checks the JSONL sink's encoder against encoding/json:
// for any event, appendEvent must write exactly the bytes
// json.NewEncoder(w).Encode(ev) writes, and fail exactly when it fails
// (on a NaN or ±Inf value). The labels go through both the per-event path
// and the encoded-once path an emitter uses.
func FuzzEventEncode(f *testing.F) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 123456789, 3.364814285714286,
		1e-6, math.Nextafter(1e-6, 0), math.Nextafter(1e-6, 1),
		1e-7, -1e-7, 1.5e-300,
		1e21, math.Nextafter(1e21, 0), math.Nextafter(1e21, math.Inf(1)), -1e21,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	strs := []string{
		"", "seq_update", "td_error", "<a&b>", "x y ", "\xff\xfe", "a\xc3",
		"tab\there\n", `quote"back\slash`, "é€😀", "\x00\x1f\x7f", "\b\f\r",
	}
	for i, x := range floats {
		s := strs[i%len(strs)]
		f.Add(s, strs[(i+1)%len(strs)], strs[(i+2)%len(strs)], math.Float64bits(x), math.Float64bits(floats[(i+3)%len(floats)]), int64(i), i%3)
	}
	f.Fuzz(func(t *testing.T, typ, key, value string, bitsA, bitsB uint64, seq int64, episode int) {
		a, b := math.Float64frombits(bitsA), math.Float64frombits(bitsB)
		evs := []Event{
			{Type: typ, Seq: seq, WallMS: a, Episode: episode},
			{Type: typ, Seq: seq, WallMS: 1.25, Data: map[string]float64{key: a, "step": b, typ: 7}},
			{Type: typ, WallMS: b, Episode: episode, Data: map[string]float64{}, Labels: map[string]string{}},
			{Type: typ, Data: map[string]float64{key: b}, Labels: map[string]string{key: value, "env": typ, value: key}},
		}
		var enc eventEncoder
		for i := range evs {
			ev := &evs[i]
			var want bytes.Buffer
			werr := json.NewEncoder(&want).Encode(ev)
			for _, once := range []bool{false, true} {
				if once {
					ev.labelsJSON = encodeLabels(ev.Labels)
				}
				got, gerr := enc.appendEvent(nil, ev)
				if (gerr != nil) != (werr != nil) {
					t.Fatalf("event %d (labels once %v): error %v, encoding/json %v", i, once, gerr, werr)
				}
				if werr == nil && !bytes.Equal(got, want.Bytes()) {
					t.Fatalf("event %d (labels once %v):\ngot  %q\nwant %q", i, once, got, want.Bytes())
				}
			}
		}
	})
}

// The encoder's job is to take encoding/json off the event write path, so
// writing an event with a reused data map through an emitter with labels
// must not allocate.
func TestJSONLSinkWriteAllocs(t *testing.T) {
	var buf bytes.Buffer
	e := NewEmitter(NewJSONLSink(&buf)).With(map[string]string{"design": "OS-ELM-L2-Lipschitz", "seed": "1"})
	data := map[string]float64{"step": 1, "target": 0.5, "td_error": -0.25, "dur_ms": 0.003, "model_ms": 0.0125}
	allocs := testing.AllocsPerRun(1000, func() {
		buf.Reset()
		data["step"]++
		e.Emit(EventSeqUpdate, 0, data)
	})
	if allocs != 0 {
		t.Errorf("Emit through the JSONL sink: %v allocs, want 0", allocs)
	}
}
