package serve

import (
	"encoding/json"
	"errors"
	"io"
	"math"
	"net/http"
	"strconv"
	"sync"

	"oselmrl/internal/obs"
)

// evalRequest and evalResponse are the /v1/predict / /v1/act wire types.
type evalRequest struct {
	State []float64 `json:"state"`
}

type evalResponse struct {
	Action     int       `json:"action"`
	Q          []float64 `json:"q,omitempty"`
	Generation int       `json:"generation"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// A NaN or ±Inf Q value yields no action, and JSON cannot carry it. Whose
// fault it is depends on the policy: one whose weights are all finite
// produces it only for a state that drives the network out of float64
// range (a finite state such as [1e308,1e308,1e308,1e308] can), which is
// the client's fault and answers 400; one whose weights are not all
// finite is broken and answers 500.
var (
	errNonFiniteState = errors.New("state produced a non-finite Q value")
	errNonFiniteQ     = errors.New("policy produced a non-finite Q value")
)

// bestAction returns the lowest-index argmax of qs, a Q row p evaluated.
// When some value is NaN or ±Inf it returns errNonFiniteQ if p's weights
// are not all finite and errNonFiniteState if they are.
func (p *Policy) bestAction(qs []float64) (int, error) {
	best := 0
	for a, q := range qs {
		if math.IsNaN(q) || math.IsInf(q, 0) {
			if !p.finite {
				return 0, errNonFiniteQ
			}
			return 0, errNonFiniteState
		}
		if q > qs[best] {
			best = a
		}
	}
	return best, nil
}

// bodyScratchBytes bounds the body the fast-path decoder reads. A
// CartPole request is under 100 bytes; a longer body goes to
// encoding/json.
const bodyScratchBytes = 4 << 10

// evalScratch is one request's reusable buffers: the body bytes, the
// decoded state and the encoded response. It goes back to scratchPool
// when the handler returns, so nothing that outlives the request may
// point into it.
type evalScratch struct {
	body  []byte
	state []float64
	resp  []byte
}

var scratchPool = sync.Pool{New: func() any {
	return &evalScratch{
		body:  make([]byte, 0, bodyScratchBytes),
		state: make([]float64, 0, 8),
		resp:  make([]byte, 0, 128),
	}
}}

// decodeState reads the state of an eval request body: the result and
// the error are those of
//
//	json.NewDecoder(http.MaxBytesReader(w, body, maxBodyBytes)).Decode(&req)
//
// A body whose first JSON value is exactly {"state":[numbers]}, with any
// JSON whitespace, is parsed in place into sc.state, and reading stops
// once that value has closed; like Decode, anything after it is ignored.
// Every other body (other key spellings, more keys, numbers out of range,
// more than bodyScratchBytes before the value closes, a read error) goes
// to encoding/json, which reads the bytes already consumed and then the
// rest of the body.
func (sc *evalScratch) decodeState(w http.ResponseWriter, body io.Reader) ([]float64, error) {
	buf := sc.body[:0]
	p := stateParser{state: sc.state[:0]}
	var err error
	for len(buf) < cap(buf) && err == nil {
		var n int
		n, err = body.Read(buf[len(buf):cap(buf)])
		if n == 0 {
			continue
		}
		buf = buf[:len(buf)+n]
		res := p.parse(buf)
		if res == parseDone {
			sc.state = p.state // keep any growth for the next request
			return p.state, nil
		}
		if res == parseOther {
			break
		}
	}
	var req evalRequest
	err = json.NewDecoder(http.MaxBytesReader(w, &replayReader{buf, err, body}, maxBodyBytes)).Decode(&req)
	return req.State, err
}

// replayReader is the body as the fallback decoder sees it: the bytes the
// fast path consumed, then the read error it stopped at, if any, or else
// the rest of the body.
type replayReader struct {
	buf  []byte
	err  error
	rest io.Reader
}

func (r *replayReader) Read(p []byte) (int, error) {
	switch {
	case len(r.buf) > 0:
		n := copy(p, r.buf)
		r.buf = r.buf[n:]
		return n, nil
	case r.err != nil:
		return 0, r.err
	}
	return r.rest.Read(p)
}

func (r *replayReader) Close() error { return nil }

// parseResult is stateParser's verdict on the body read so far.
type parseResult int

const (
	// parseMore: the bytes are a proper prefix of a fast-path value.
	parseMore parseResult = iota
	// parseDone: a fast-path value closed within the bytes.
	parseDone
	// parseOther: the bytes do not start a fast-path value.
	parseOther
)

// stateParser parses a body as ws { ws "state" ws : ws [ numbers ] ws },
// appending the numbers to state. A body arrives read by read; each parse
// call resumes at next, so a body sent in many small reads is still
// scanned about once. Numbers follow the JSON grammar, which is checked
// before strconv.ParseFloat sees them (ParseFloat also takes forms JSON
// does not, such as "0x1p3" or "Inf"); a number ParseFloat rejects, which
// for a JSON number means out of range, is parseOther.
type stateParser struct {
	state []float64
	next  int // index in the body where parsing resumes
	step  int // prefix literals matched, then stepFirst, stepElem or stepSuffix
}

var prefixLits = [...]string{"{", `"state"`, ":", "["}

const (
	stepFirst  = len(prefixLits) + iota // just after the '['
	stepElem                            // just after a ','
	stepSuffix                          // just after the ']'
)

// parse advances over b, the whole body read so far.
func (p *stateParser) parse(b []byte) parseResult {
	for {
		i := skipSpace(b, p.next)
		if i == len(b) {
			p.next = i
			return parseMore
		}
		switch {
		case p.step < stepFirst:
			lit := prefixLits[p.step]
			n := min(len(lit), len(b)-i)
			if string(b[i:i+n]) != lit[:n] {
				return parseOther
			}
			if n < len(lit) {
				p.next = i
				return parseMore
			}
			p.next, p.step = i+n, p.step+1
		case p.step == stepFirst && b[i] == ']':
			p.next, p.step = i+1, stepSuffix
		case p.step == stepSuffix:
			if b[i] != '}' {
				return parseOther
			}
			return parseDone
		default:
			end, res := scanNumber(b, i)
			if res != parseDone {
				p.next = i
				return res
			}
			j := skipSpace(b, end)
			if j == len(b) {
				p.next = i
				return parseMore
			}
			if b[j] != ',' && b[j] != ']' {
				return parseOther
			}
			f, err := strconv.ParseFloat(string(b[i:end]), 64)
			if err != nil {
				return parseOther
			}
			p.state = append(p.state, f)
			p.next, p.step = j+1, stepElem
			if b[j] == ']' {
				p.step = stepSuffix
			}
		}
	}
}

// skipSpace returns the index of the first non-whitespace byte of b at or
// after i, whitespace as JSON defines it.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scanNumber scans a JSON number, -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)?,
// starting at b[i]. With parseDone, end is the index after it. A number
// that runs to the end of b may continue, so it is parseMore.
func scanNumber(b []byte, i int) (end int, res parseResult) {
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i == len(b):
		return 0, parseMore
	case b[i] == '0':
		i++
	case isDigit(b[i]):
		i = skipDigits(b, i)
	default:
		return 0, parseOther
	}
	if i < len(b) && b[i] == '.' {
		i++
		if i, res = digits(b, i); res != parseDone {
			return 0, res
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if i, res = digits(b, i); res != parseDone {
			return 0, res
		}
	}
	if i == len(b) {
		return 0, parseMore
	}
	return i, parseDone
}

// digits scans the one or more digits a fraction or an exponent needs,
// starting at b[i].
func digits(b []byte, i int) (end int, res parseResult) {
	switch {
	case i == len(b):
		return 0, parseMore
	case !isDigit(b[i]):
		return 0, parseOther
	}
	return skipDigits(b, i), parseDone
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

func skipDigits(b []byte, i int) int {
	for i < len(b) && isDigit(b[i]) {
		i++
	}
	return i
}

// appendEvalResponse appends the bytes json.NewEncoder(w).Encode(resp)
// writes, newline included. Every Q value must be finite, as bestAction
// has checked: encoding/json rejects NaN and ±Inf.
func appendEvalResponse(b []byte, resp *evalResponse) []byte {
	b = append(b, `{"action":`...)
	b = strconv.AppendInt(b, int64(resp.Action), 10)
	if len(resp.Q) > 0 {
		b = append(b, `,"q":[`...)
		for i, q := range resp.Q {
			if i > 0 {
				b = append(b, ',')
			}
			b, _ = obs.AppendFloat(b, q)
		}
		b = append(b, ']')
	}
	b = append(b, `,"generation":`...)
	b = strconv.AppendInt(b, int64(resp.Generation), 10)
	return append(b, "}\n"...)
}

// appendServerTiming appends the request's Server-Timing value, the bytes
// fmt's "queue;dur=%.4f, eval;dur=%.4f" writes (the eval part only once
// the request was evaluated).
func appendServerTiming(b []byte, rq *request) []byte {
	b = append(b, "queue;dur="...)
	b = strconv.AppendFloat(b, rq.queueMS, 'f', 4, 64)
	if rq.evaluated {
		b = append(b, ", eval;dur="...)
		b = strconv.AppendFloat(b, rq.evalMS, 'f', 4, 64)
	}
	return b
}
