package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"oselmrl/internal/cli"
	"oselmrl/internal/harness"
	"oselmrl/internal/obs"
	"oselmrl/internal/persist"
	"oselmrl/internal/qnet"
	"oselmrl/internal/rng"
	"oselmrl/internal/serve"
	"oselmrl/internal/stats"
)

const (
	// serveClients closed-loop clients, one per core of the 2-core machine
	// the bounds were set on.
	serveClients = 2
	// serveStates fixed states are cycled through by every client.
	serveStates = 64
)

// serveWorkload answers POST /v1/act from an in-process serve.Service
// with the default configuration: unbatched, pool = GOMAXPROCS. Clients
// call Handler().ServeHTTP directly and send their next request only when
// the previous one is answered (a closed loop).
type serveWorkload struct {
	ckpt      string
	perClient int
	// bodies are the request bodies, one per fixed state; refs are the
	// responses recorded for them during preparation. Every served
	// response must equal its reference byte for byte.
	bodies, refs [][]byte
	// pending counts preparation checks that failed; the first repetition
	// reports them.
	pending int

	svc     *serve.Service
	handler http.Handler
}

// newServeWorkload trains the served policy, checkpoints it, and records
// the reference responses, cross-checking each reference action against
// qnet.Evaluator.Best on the trained agent. None of this is timed.
func newServeWorkload(seed uint64, b budgets, dir string) (*serveWorkload, error) {
	e, err := cli.MakeEnv("cartpole", seed+100)
	if err != nil {
		return nil, err
	}
	agent, err := harness.NewAgent(trainFloat, e.ObservationSize(), e.ActionCount(), hidden, seed)
	if err != nil {
		return nil, err
	}
	cfg := harness.RunConfigFor(trainFloat, harness.Defaults())
	cfg.MaxEpisodes = b.checkpointEpisodes
	cfg.SolveThreshold = unreachable
	harness.Run(agent, e, cfg)
	qa := agent.(*qnet.Agent)
	w := &serveWorkload{ckpt: filepath.Join(dir, "policy.json"), perClient: b.requestsPerClient}
	if err := persist.SaveAgentFile(w.ckpt, qa); err != nil {
		return nil, err
	}

	r := rng.New(seed)
	states := make([][]float64, serveStates)
	for i := range states {
		// Spread over CartPole's termination box: cart position, cart
		// velocity, pole angle (rad), pole angular velocity.
		states[i] = []float64{r.Uniform(-2.4, 2.4), r.Uniform(-2, 2), r.Uniform(-0.2, 0.2), r.Uniform(-2, 2)}
		body, err := json.Marshal(map[string][]float64{"state": states[i]})
		if err != nil {
			return nil, err
		}
		w.bodies = append(w.bodies, body)
	}
	if err := w.setup(0); err != nil {
		return nil, err
	}
	ev := qa.NewEvaluator()
	for i, body := range w.bodies {
		rec := post(w.handler, body)
		var resp struct {
			Action int `json:"action"`
		}
		want, _, err := ev.Best(states[i])
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || err != nil || resp.Action != want {
			w.pending++
		}
		w.refs = append(w.refs, rec.Body.Bytes())
	}
	return w, nil
}

func post(h http.Handler, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/act", bytes.NewReader(body)))
	return rec
}

// setup starts a fresh service and waits for its first 200 response. The
// service does not depend on a seed, so every variant builds the same one.
func (w *serveWorkload) setup(uint64) error {
	if w.svc != nil {
		w.svc.Close()
	}
	svc, err := serve.New(serve.Config{Checkpoint: w.ckpt})
	if err != nil {
		return err
	}
	h := svc.Handler()
	if rec := post(h, w.bodies[0]); rec.Code != http.StatusOK {
		return fmt.Errorf("first request answered %d: %s", rec.Code, rec.Body)
	}
	w.svc, w.handler = svc, h
	return nil
}

// procs keeps every core: the clients and the service's worker pool share
// them.
func (w *serveWorkload) procs() int { return 0 }

func (w *serveWorkload) rep(tr *obs.Tracer) (*repResult, error) {
	before := readMem()
	start := time.Now()
	cs := closedLoop(w.handler, w.bodies, w.refs, serveClients, w.perClient, tr)
	wall := time.Since(start)
	after := readMem()

	r := &repResult{ops: serveClients * w.perClient, wall: wall, failed: w.pending, layers: make(map[string]float64)}
	w.pending = 0
	r.setDelta(before, after)
	var handler busy
	var lat, queue, eval, other []float64
	var s429, s5xx int
	for _, c := range cs {
		lat = append(lat, c.latUS...)
		r.failed += c.failed
		handler.calls += c.handler.calls
		handler.time += c.handler.time
		queue = append(queue, c.queueUS...)
		eval = append(eval, c.evalUS...)
		other = append(other, c.otherUS...)
		s429 += c.status429
		s5xx += c.status5xx
	}
	r.setLatency(lat)
	r.heapMB = liveHeapMB()
	runtime.KeepAlive(cs)
	if tr == nil {
		return r, nil
	}
	r.layers["serve.handler.calls"] = float64(handler.calls)
	r.layers["serve.handler.busy_s"] = handler.time.Seconds()
	for name, xs := range map[string][]float64{"queue": queue, "eval": eval, "other": other} {
		r.layers["serve."+name+"_us_p50"] = stats.Percentile(xs, 50)
		r.layers["serve."+name+"_us_p99"] = stats.Percentile(xs, 99)
	}
	r.layers["serve.status_429"] = float64(s429)
	r.layers["serve.status_5xx"] = float64(s5xx)
	return r, nil
}

// client is one closed-loop caller's record.
type client struct {
	latUS                        []float64
	failed, status429, status5xx int
	// Traced pass only: handler time, and each request split by its
	// Server-Timing header into queue wait, evaluation and the rest
	// (decode, admission and encode).
	handler                  busy
	queueUS, evalUS, otherUS []float64
}

// closedLoop runs clients concurrently; each sends perClient requests,
// cycling through bodies from its own offset, and checks every response
// against refs.
func closedLoop(h http.Handler, bodies, refs [][]byte, clients, perClient int, tr *obs.Tracer) []*client {
	cs := make([]*client, clients)
	var wg sync.WaitGroup
	for i := range cs {
		c := &client{latUS: make([]float64, 0, perClient)}
		if tr != nil {
			c.queueUS = make([]float64, 0, perClient)
			c.evalUS = make([]float64, 0, perClient)
			c.otherUS = make([]float64, 0, perClient)
		}
		cs[i] = c
		wg.Add(1)
		go func(offset int, group string) {
			defer wg.Done()
			c.run(h, bodies, refs, offset, perClient, tr, group)
		}(i*len(bodies)/clients, fmt.Sprintf("client-%d", i))
	}
	wg.Wait()
	return cs
}

func (c *client) run(h http.Handler, bodies, refs [][]byte, offset, n int, tr *obs.Tracer, group string) {
	for i := 0; i < n; i++ {
		k := (offset + i) % len(bodies)
		req := httptest.NewRequest(http.MethodPost, "/v1/act", bytes.NewReader(bodies[k]))
		rec := httptest.NewRecorder()
		sp := tr.StartSpanGroup("serve.handler", group)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		d := time.Since(t0)
		sp.End()
		us := float64(d) / float64(time.Microsecond)
		c.latUS = append(c.latUS, us)
		switch {
		case rec.Code == http.StatusTooManyRequests:
			c.status429++
			c.failed++
		case rec.Code >= 500:
			c.status5xx++
			c.failed++
		case rec.Code != http.StatusOK || !bytes.Equal(rec.Body.Bytes(), refs[k]):
			c.failed++
		}
		if tr == nil {
			continue
		}
		c.handler.calls++
		c.handler.time += d
		queueMS, evalMS := parseServerTiming(rec.Header().Get("Server-Timing"))
		c.queueUS = append(c.queueUS, queueMS*1e3)
		c.evalUS = append(c.evalUS, evalMS*1e3)
		c.otherUS = append(c.otherUS, us-(queueMS+evalMS)*1e3)
	}
}

// parseServerTiming reads the queue and eval durations (ms) from a
// Server-Timing header such as "queue;dur=0.0012, eval;dur=0.0034".
func parseServerTiming(h string) (queueMS, evalMS float64) {
	for _, part := range strings.Split(h, ",") {
		name, attr, ok := strings.Cut(strings.TrimSpace(part), ";dur=")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(attr, 64)
		if err != nil {
			continue
		}
		switch name {
		case "queue":
			queueMS = v
		case "eval":
			evalMS = v
		}
	}
	return queueMS, evalMS
}
