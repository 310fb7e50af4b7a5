package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// tinyBudgets run every workload in a fraction of a second. The training
// budgets still pass the 64-step buffer fill, so init_train and the
// sequential updates both run.
var tinyBudgets = budgets{
	floatEpisodes:      60,
	fpgaEpisodes:       40,
	checkpointEpisodes: 20,
	requestsPerClient:  100,
	setupPanel:         2,
}

// manifest is the part of BENCHMARK.json the benchmark must honour.
type manifest struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// printed is one run's output: units by workload and metric from the
// text lines, and the final result line.
type printed struct {
	units  map[string]map[string]string
	result resultLine
}

func runAll(t *testing.T, trace bool) printed {
	t.Helper()
	dir := t.TempDir()
	cfg := config{
		workloads: workloadNames,
		seed:      1,
		trace:     trace,
		traceDir:  dir,
		jsonPath:  filepath.Join(dir, "metrics.json"),
		budgets:   tinyBudgets,
	}
	var out bytes.Buffer
	ok, err := execute(cfg, &out)
	if err != nil || !ok {
		t.Fatalf("execute: ok=%v err=%v\n%s", ok, err, out.String())
	}
	p := printed{units: make(map[string]map[string]string)}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	workload := ""
	for _, line := range lines[:len(lines)-1] {
		fields := strings.Fields(line)
		if !strings.HasPrefix(line, "  ") {
			workload = fields[0]
			p.units[workload] = make(map[string]string)
			continue
		}
		if len(fields) != 4 || !strings.HasPrefix(fields[3], "samples=") {
			t.Fatalf("malformed metric line %q", line)
		}
		if _, err := strconv.ParseFloat(fields[1], 64); err != nil {
			t.Fatalf("metric line %q: %v", line, err)
		}
		p.units[workload][fields[0]] = fields[2]
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &p.result); err != nil {
		t.Fatalf("result line: %v", err)
	}

	var records []record
	b, err := os.ReadFile(cfg.jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(b, &records); err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if p.units[r.Workload][r.Metric] != r.Unit {
			t.Errorf("-json record %s/%s has unit %q, text output %q", r.Workload, r.Metric, r.Unit, p.units[r.Workload][r.Metric])
		}
	}
	if trace {
		for _, name := range workloadNames {
			if _, err := os.Stat(filepath.Join(dir, "trace-"+name+".json")); err != nil {
				t.Errorf("no trace file for %s: %v", name, err)
			}
		}
	}
	return p
}

func TestEveryManifestMetricIsPrinted(t *testing.T) {
	m := readManifest(t)
	if len(m.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(m.Workloads), len(workloadNames))
	}
	for i, w := range m.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: BENCHMARK.json %q, benchmark %q", i, w.Name, workloadNames[i])
		}
	}
	for _, pass := range []struct {
		trace bool
		defs  []struct {
			Name string `json:"name"`
			Unit string `json:"unit"`
		}
	}{{false, m.EndToEnd}, {true, m.PerLayer}} {
		p := runAll(t, pass.trace)
		if !p.result.Correct || p.result.Failed != 0 || p.result.Attempted == 0 {
			t.Errorf("trace=%v: result line %+v", pass.trace, p.result)
		}
		if len(p.result.Metrics) != len(pass.defs)*len(workloadNames) {
			t.Errorf("trace=%v: result line has %d metrics, want %d", pass.trace, len(p.result.Metrics), len(pass.defs)*len(workloadNames))
		}
		for _, w := range workloadNames {
			for _, d := range pass.defs {
				if got := p.units[w][d.Name]; got != d.Unit {
					t.Errorf("trace=%v %s: %s printed with unit %q, BENCHMARK.json says %q", pass.trace, w, d.Name, got, d.Unit)
				}
				if got := p.result.Metrics[w+"/"+d.Name]; got.Unit != d.Unit {
					t.Errorf("trace=%v %s: result line has %s with unit %q, want %q", pass.trace, w, d.Name, got.Unit, d.Unit)
				}
			}
			// The modelled device time is exact, so the untraced pass prints
			// it for every training workload too.
			if strings.HasPrefix(w, "train-") && p.units[w]["model_device_us_per_step"] != "us" {
				t.Errorf("trace=%v %s: model_device_us_per_step not printed in us", pass.trace, w)
			}
		}
	}
}

// traced runs one workload with tracing on tiny budgets and returns its
// untraced warm-up and its traced repetition.
func traced(t *testing.T, name string) (warmup, tr *repResult) {
	t.Helper()
	w, err := newWorkload(name, 2, tinyBudgets, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	out, err := measure(name, w, config{trace: true, budgets: tinyBudgets})
	if err != nil {
		t.Fatal(err)
	}
	untraced, withTrace := out.pass(false), out.pass(true)
	if len(untraced) != 1 || len(withTrace) != 1 {
		t.Fatalf("want one untraced and one traced repetition after the warm-up, got %d and %d", len(untraced), len(withTrace))
	}
	if n := out.failed(); n != 0 {
		t.Errorf("%s: %d failed", name, n)
	}
	return out.warmup, withTrace[0]
}

func TestDeterministicCountsMatchAcrossPasses(t *testing.T) {
	for _, name := range []string{"train-oselm-64", "train-fpga-64", "train-oselm-64-telemetry"} {
		plain, tr := traced(t, name)
		if plain.ops != tr.ops || plain.latN != tr.latN {
			t.Errorf("%s: untraced %d steps in %d episodes, traced %d in %d", name, plain.ops, plain.latN, tr.ops, tr.latN)
		}
		if len(plain.layers) == 0 {
			t.Fatalf("%s: untraced pass recorded no counts", name)
		}
		for k, v := range plain.layers {
			if tr.layers[k] != v {
				t.Errorf("%s: %s untraced %v, traced %v", name, k, v, tr.layers[k])
			}
		}
		layer := "qnet"
		if name == "train-fpga-64" {
			layer = "fpga"
		}
		for _, k := range []string{"env.step.calls", layer + ".select_action.calls", layer + ".observe.calls"} {
			if tr.layers[k] != float64(tr.ops) {
				t.Errorf("%s: %s = %v, want one per step (%d)", name, k, tr.layers[k], tr.ops)
			}
		}
	}
}

func TestLayerBusyWithinWall(t *testing.T) {
	for _, name := range []string{"train-oselm-64", "train-fpga-64", "train-oselm-64-telemetry"} {
		_, tr := traced(t, name)
		wall := tr.wall.Seconds()
		for k, v := range tr.layers {
			if strings.HasSuffix(k, ".busy_s") && (v < 0 || v > wall) {
				t.Errorf("%s: %s = %gs outside [0, %gs wall]", name, k, v, wall)
			}
		}
		if self := tr.layers["harness.self_s"]; self <= 0 || self > wall {
			t.Errorf("%s: harness.self_s = %gs; the timed layers exceed the %gs wall", name, self, wall)
		}
		if name == "train-oselm-64-telemetry" && tr.layers["obs.sink.writes"] == 0 {
			t.Errorf("%s: no event writes recorded", name)
		}
	}
	_, tr := traced(t, "serve-act-closed")
	// Each client spends at most the whole wall time in the handler.
	if busy, limit := tr.layers["serve.handler.busy_s"], float64(serveClients)*tr.wall.Seconds(); busy <= 0 || busy > limit {
		t.Errorf("serve.handler.busy_s = %gs outside (0, %gs]", busy, limit)
	}
	if tr.layers["serve.handler.calls"] != float64(tr.ops) || tr.layers["serve.eval_us_p50"] <= 0 {
		t.Errorf("serve layers %v for %d requests", tr.layers, tr.ops)
	}
}

func TestCorruptedServeResponseCountsAsFailed(t *testing.T) {
	w, err := newServeWorkload(1, tinyBudgets, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	const n = 50
	count := func(h http.Handler) (failed, s5xx int) {
		for _, c := range closedLoop(h, w.bodies, w.refs, serveClients, n, nil) {
			failed += c.failed
			s5xx += c.status5xx
		}
		return failed, s5xx
	}
	if failed, _ := count(w.handler); failed != 0 {
		t.Fatalf("honest service: %d failed", failed)
	}
	flip := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		w.handler.ServeHTTP(rec, r)
		body := rec.Body.Bytes()
		body[len(body)/2] ^= 1
		rw.WriteHeader(rec.Code)
		rw.Write(body)
	})
	if failed, _ := count(flip); failed != serveClients*n {
		t.Errorf("corrupted bodies: %d of %d requests failed", failed, serveClients*n)
	}
	broken := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		http.Error(rw, "boom", http.StatusInternalServerError)
	})
	if failed, s5xx := count(broken); failed != serveClients*n || s5xx != serveClients*n {
		t.Errorf("500s: %d failed, %d counted as 5xx, want %d", failed, s5xx, serveClients*n)
	}
}
