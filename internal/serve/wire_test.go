package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"testing/iotest"
	"time"

	"oselmrl/internal/obs"
	"oselmrl/internal/obs/slo"
)

// checkDecode compares decodeState against the encoding/json decode it
// replaces, for body read whole, one byte per read, and followed by a read
// error: the same state bits, the same nil-versus-empty state and the same
// error text.
func checkDecode(t *testing.T, body []byte) {
	t.Helper()
	errRead := errors.New("connection reset")
	for _, rd := range []struct {
		name string
		open func() io.Reader
	}{
		{"whole", func() io.Reader { return bytes.NewReader(body) }},
		{"one byte", func() io.Reader { return iotest.OneByteReader(bytes.NewReader(body)) }},
		{"read error", func() io.Reader { return io.MultiReader(bytes.NewReader(body), iotest.ErrReader(errRead)) }},
	} {
		var want evalRequest
		werr := json.NewDecoder(http.MaxBytesReader(httptest.NewRecorder(), io.NopCloser(rd.open()), maxBodyBytes)).Decode(&want)
		sc := scratchPool.Get().(*evalScratch)
		got, gerr := sc.decodeState(httptest.NewRecorder(), rd.open())
		if fmt.Sprint(gerr) != fmt.Sprint(werr) {
			t.Fatalf("%s: error %v, encoding/json %v", rd.name, gerr, werr)
		}
		if (got == nil) != (want.State == nil) || len(got) != len(want.State) {
			t.Fatalf("%s: state %#v, encoding/json %#v", rd.name, got, want.State)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want.State[i]) {
				t.Fatalf("%s: state[%d] = %v, encoding/json %v", rd.name, i, got[i], want.State[i])
			}
		}
		scratchPool.Put(sc)
	}
}

// FuzzEvalRequestDecode checks the fast-path body decoder against
// json.Decoder over http.MaxBytesReader on arbitrary bodies.
func FuzzEvalRequestDecode(f *testing.F) {
	for _, s := range []string{
		`{"state":[0.1,-0.2,0.3,0]}`,
		" \t\r\n{ \"state\" :\n[ 1 , 2e3 , -0.5E-2,1E+2 ] } trailing",
		`{"state":[]}`, `{"state":null}`, `{"state":[-0, 0.0, 1e-400]}`,
		`{"STATE":[1]}`, `{"State":[1]}`, `{"st\u0061te":[1]}`, "{\"\u017ftate\":[1]}",
		`{"state":[1],"state":[2]}`, `{"x":0,"state":[1]}`, `{"state":[1],"x":2}`,
		`{"state":[1e400]}`, `{"state":[-1e309]}`, `{"state":[01]}`, `{"state":[1.]}`, `{"state":[.5]}`,
		`{"state":[-]}`, `{"state":[1e]}`, `{"state":[1e+]}`, `{"state":[1,]}`, `{"state":[,1]}`,
		`{"state":[0x10]}`, `{"state":[1_0]}`, `{"state":[Infinity]}`, `{"state":[NaN]}`, `{"state":["1"]}`,
		`{"state":[1]}{"state":[2]}`, `{"state":[1]} }`, `{"state":[1]`, `{"state":[1`, `{"sta`, `{`,
		``, ` `, `[1,2]`, `"x"`, `null`, "\xef\xbb\xbf{\"state\":[1]}", "{\"state\":[1]}\xff",
		`{"state":[` + strings.Repeat("0.25,", 900) + `1]}`,
		strings.Repeat(" ", bodyScratchBytes) + `{"state":[1]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, body []byte) { checkDecode(t, body) })
}

// A body past the 1 MiB limit fails with the limit's error text.
func TestEvalRequestDecodeBodyLimit(t *testing.T) {
	checkDecode(t, []byte(strings.Repeat(" ", maxBodyBytes)+`{"state":[1]}`))
	checkDecode(t, []byte(`{"state":[`+strings.Repeat("1,", maxBodyBytes/2)+`1]}`))
}

// The bodies clients send take the fast path, which is what keeps the
// request path allocation-light; the fuzz target alone would also pass if
// every body fell back to encoding/json.
func TestEvalRequestFastPath(t *testing.T) {
	for _, body := range []string{
		`{"state":[0.1,-0.2,0.3,0]}`,
		`{"state":[0.5]}` + "\n",
		" {\n \"state\": [ -1.5e-3, 2E+10, 0 ] }",
		`{"state":[]}`,
	} {
		var p stateParser
		if res := p.parse([]byte(body)); res != parseDone {
			t.Errorf("%q: parse result %d, want parseDone", body, res)
		}
	}
}

// FuzzEvalResponseEncode checks the append response encoder against
// json.Encoder byte for byte, bestAction's rejections against
// encoding/json's, and the Server-Timing value against fmt's %.4f.
func FuzzEvalResponseEncode(f *testing.F) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1.5, 0.1, 123456789, 3.364814285714286,
		1e-6, math.Nextafter(1e-6, 0), 1e-7, 1e21, math.Nextafter(1e21, 0), -1e21,
		math.SmallestNonzeroFloat64, math.Float64frombits(0x000fffffffffffff), math.MaxFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for i, x := range floats {
		f.Add(i%3, i, math.Float64bits(x), math.Float64bits(floats[(i+1)%len(floats)]),
			math.Float64bits(floats[(i+2)%len(floats)]), uint8(i))
	}
	f.Fuzz(func(t *testing.T, action, generation int, bitsA, bitsB, bitsC uint64, n uint8) {
		qs := []float64{math.Float64frombits(bitsA), math.Float64frombits(bitsB), math.Float64frombits(bitsC)}
		resp := evalResponse{Action: action, Q: qs[:n%4], Generation: generation}
		var want bytes.Buffer
		werr := json.NewEncoder(&want).Encode(resp)
		// The handler encodes only what bestAction accepts, which must be
		// exactly what encoding/json can encode.
		if _, err := (&Policy{}).bestAction(resp.Q); (err == nil) != (werr == nil) {
			t.Fatalf("%+v: bestAction error %v, encoding/json error %v", resp, err, werr)
		}
		if werr == nil {
			if got := appendEvalResponse(nil, &resp); !bytes.Equal(got, want.Bytes()) {
				t.Fatalf("%+v:\ngot  %q\nwant %q", resp, got, want.Bytes())
			}
		}

		rq := request{queueMS: qs[0], evalMS: qs[1], evaluated: n%2 == 0}
		wantTiming := fmt.Sprintf("queue;dur=%.4f", rq.queueMS)
		if rq.evaluated {
			wantTiming = fmt.Sprintf("queue;dur=%.4f, eval;dur=%.4f", rq.queueMS, rq.evalMS)
		}
		if got := string(appendServerTiming(nil, &rq)); got != wantTiming {
			t.Fatalf("Server-Timing %q, fmt %q", got, wantTiming)
		}
	})
}

// A policy whose weights are not all finite answers 500 on both routes,
// on the per-request and the batched path, counted as a server error: not
// a 200 with an empty body (/v1/predict) or a made-up action 0 (/v1/act).
// A finite policy driven out of float64 range by a huge but finite state
// answers 400, counted as a client error: a client cannot spend the
// service's availability budget. (The test policy's Lipschitz-normalized
// weights keep every finite state in range, so that case scales β up.)
func TestNonFiniteQAnswers(t *testing.T) {
	for _, c := range []struct {
		name      string
		beta      float64
		state     []float64
		status    int
		body      string
		serverErr int64
	}{
		{"NaN β", math.NaN(), []float64{0.1, -0.2, 0.3, 0}, http.StatusInternalServerError,
			`{"error":"policy produced a non-finite Q value"}`, 2},
		{"huge state", 1e300, []float64{1e308, 1e308, 1e308, 1e308}, http.StatusBadRequest,
			`{"error":"state produced a non-finite Q value"}`, 0},
	} {
		for _, window := range []time.Duration{0, time.Millisecond} {
			em := obs.NewEmitter(nil)
			eng := slo.NewEngine(slo.DefaultObjectives())
			s, _ := newTestService(t, Config{Obs: em, SLO: eng, BatchWindow: window})
			// A checkpoint cannot hold NaN, so set the loaded weights and
			// load them again as a new generation.
			p := s.Policy()
			beta := p.agent.Theta1().Beta.RawData()
			for i := range beta {
				beta[i] = c.beta
			}
			s.def.policy.Store(newPolicy(p.agent, p.source, p.generation+1))
			h := s.Handler()
			for _, route := range []string{"/v1/predict", "/v1/act"} {
				w := postPredict(h, route, c.state)
				if w.Code != c.status {
					t.Errorf("%s, window %v %s: status %d, want %d", c.name, window, route, w.Code, c.status)
				}
				if got, want := w.Body.String(), c.body+"\n"; got != want {
					t.Errorf("%s, window %v %s: body %q, want %q", c.name, window, route, got, want)
				}
			}
			s.Close()
			snap := em.Metrics().Snapshot()
			if snap.Counter(MetricErrors) != 2 || snap.Counter(MetricOK) != 0 {
				t.Errorf("%s, window %v: serve_errors %d, serve_ok %d", c.name, window,
					snap.Counter(MetricErrors), snap.Counter(MetricOK))
			}
			rep := eng.Report()
			var unavailable int64
			if rep.Overall.Availability != nil {
				unavailable = rep.Overall.Availability.Bad
			}
			if rep.ServerErrors != c.serverErr || rep.ClientErrors != 2-c.serverErr || unavailable != c.serverErr {
				t.Errorf("%s, window %v: slo report %+v", c.name, window, rep)
			}
		}
	}
}
