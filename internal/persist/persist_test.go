package persist

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"oselmrl/internal/activation"
	"oselmrl/internal/elm"
	"oselmrl/internal/env"
	"oselmrl/internal/mat"
	"oselmrl/internal/oselm"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
)

func trainedModel(t *testing.T) *oselm.Model {
	t.Helper()
	r := rng.New(1)
	base := elm.NewModel(3, 12, 2, activation.Sigmoid, r, elm.DefaultOptions())
	m := oselm.New(base, 0.4)
	x := mat.Zeros(15, 3)
	y := mat.Zeros(15, 2)
	r.FillUniform(x.RawData(), -1, 1)
	r.FillUniform(y.RawData(), -1, 1)
	if err := m.InitTrain(x, y); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		xi := make([]float64, 3)
		r.FillUniform(xi, -1, 1)
		if err := m.SeqTrainOne(xi, []float64{r.Float64(), r.Float64()}); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

func TestOSELMRoundTrip(t *testing.T) {
	m := trainedModel(t)
	var buf bytes.Buffer
	if err := SaveOSELM(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOSELM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Initialized() {
		t.Fatal("restored model must be initialized")
	}
	if got.Delta != m.Delta || got.Updates() != m.Updates() {
		t.Error("hyperparameters not restored")
	}
	// Predictions identical.
	probe := []float64{0.3, -0.2, 0.9}
	a, b := m.PredictOne(probe), got.PredictOne(probe)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("prediction[%d]: %v vs %v", i, a[i], b[i])
		}
	}
	// Restored model can continue sequential training.
	if err := got.SeqTrainOne(probe, []float64{0.5, 0.5}); err != nil {
		t.Fatal(err)
	}
}

func TestOSELMUntrainedRoundTrip(t *testing.T) {
	base := elm.NewModel(2, 6, 1, activation.ReLU, rng.New(2), elm.DefaultOptions())
	m := oselm.New(base, 0.1)
	var buf bytes.Buffer
	if err := SaveOSELM(&buf, m); err != nil {
		t.Fatal(err)
	}
	got, err := LoadOSELM(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Initialized() {
		t.Error("untrained model must restore as untrained")
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := LoadOSELM(strings.NewReader("{not json")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := LoadOSELM(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("wrong version must fail")
	}
	// Inconsistent dimensions.
	bad := `{"version":1,"input_size":2,"hidden_size":3,"output_size":1,
		"activation":"relu","alpha":{"rows":2,"cols":2,"data":[1,2,3,4]},
		"bias":[0,0,0],"beta":{"rows":3,"cols":1,"data":[1,2,3]}}`
	if _, err := LoadOSELM(strings.NewReader(bad)); err == nil {
		t.Error("inconsistent dims must fail")
	}
	// Unknown activation.
	bad2 := strings.Replace(bad, `"relu"`, `"mystery"`, 1)
	if _, err := LoadOSELM(strings.NewReader(bad2)); err == nil {
		t.Error("unknown activation must fail")
	}
}

// TestAgentRoundTrip: a trained Q-network agent survives save/load with
// identical greedy behaviour, and can keep learning.
func TestAgentRoundTrip(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 16)
	cfg.Seed = 5
	agent := qnet.MustNew(cfg)
	trainOnCartPole(t, agent, 2000)
	if !agent.Trained() {
		t.Fatal("agent should be trained")
	}

	var buf bytes.Buffer
	if err := SaveAgent(&buf, agent); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadAgent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != agent.Name() {
		t.Errorf("restored design %q", restored.Name())
	}
	if !restored.Trained() {
		t.Fatal("restored agent must be trained")
	}
	// Greedy decisions must agree across a batch of probe states.
	r := rng.New(9)
	for i := 0; i < 100; i++ {
		probe := make([]float64, 4)
		r.FillUniform(probe, -1, 1)
		if agent.GreedyAction(probe) != restored.GreedyAction(probe) {
			t.Fatalf("greedy action mismatch at probe %d", i)
		}
	}
	// σmax(β) identical.
	if math.Abs(agent.BetaSigmaMax()-restored.BetaSigmaMax()) > 1e-9 {
		t.Error("restored beta differs")
	}
	// The restored agent continues learning without error.
	trainOnCartPole(t, restored, 100)
}

// trainOnCartPole runs agent for steps environment steps of shaped
// CartPole, resetting at episode ends.
func trainOnCartPole(t *testing.T, agent *qnet.Agent, steps int) {
	t.Helper()
	e := env.NewShaped(env.NewCartPoleV0(105), env.RewardSurvival)
	s := e.Reset()
	for i := 0; i < steps; i++ {
		act := agent.SelectAction(s)
		ns, r, done := e.Step(act)
		if err := agent.Observe(replay.Transition{State: s, Action: act, Reward: r, NextState: ns, Done: done}); err != nil {
			t.Fatal(err)
		}
		s = ns
		if done {
			s = e.Reset()
		}
	}
}

// Each extension flag changes the network's shape or its learning rule,
// so a checkpoint must carry it: the reloaded agent has the flag set and
// returns the saved agent's Q values exactly. A default-config checkpoint
// carries none of the flag keys, so it reads as it did before they
// existed.
func TestAgentRoundTripExtensionFlags(t *testing.T) {
	flagKeys := []string{`"one_hot_actions"`, `"double_q"`, `"standard_output_model"`}
	var buf bytes.Buffer
	if err := SaveAgent(&buf, qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8))); err != nil {
		t.Fatal(err)
	}
	for _, key := range flagKeys {
		if strings.Contains(buf.String(), key) {
			t.Errorf("default checkpoint carries %s", key)
		}
	}

	for _, tc := range []struct {
		key string
		set func(*qnet.Config)
	}{
		{flagKeys[0], func(c *qnet.Config) { c.OneHotActions = true }},
		{flagKeys[1], func(c *qnet.Config) { c.DoubleQ = true }},
		{flagKeys[2], func(c *qnet.Config) { c.StandardOutputModel = true }},
	} {
		t.Run(strings.Trim(tc.key, `"`), func(t *testing.T) {
			cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
			tc.set(&cfg)
			agent := qnet.MustNew(cfg)
			trainOnCartPole(t, agent, 300)
			path := filepath.Join(t.TempDir(), "agent.json")
			if err := SaveAgentFile(path, agent); err != nil {
				t.Fatal(err)
			}
			restored, err := LoadAgentFile(path)
			if err != nil {
				t.Fatal(err)
			}
			got, want := restored.Config(), agent.Config()
			if got.OneHotActions != want.OneHotActions || got.DoubleQ != want.DoubleQ ||
				got.StandardOutputModel != want.StandardOutputModel {
				t.Fatalf("restored flags one-hot=%v double-q=%v standard-output=%v, saved %v/%v/%v",
					got.OneHotActions, got.DoubleQ, got.StandardOutputModel,
					want.OneHotActions, want.DoubleQ, want.StandardOutputModel)
			}
			before, after := agent.NewEvaluator(), restored.NewEvaluator()
			r := rng.New(9)
			for i := 0; i < 50; i++ {
				probe := make([]float64, 4)
				r.FillUniform(probe, -1, 1)
				qb, _ := before.QValues(probe)
				qa, _ := after.QValues(probe)
				for k := range qb {
					if qa[k] != qb[k] {
						t.Fatalf("probe %d action %d: Q %v after reload, %v before", i, k, qa[k], qb[k])
					}
				}
			}
		})
	}
}

func TestAgentSnapshotIsJSON(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELM, 4, 2, 8)
	agent := qnet.MustNew(cfg)
	var buf bytes.Buffer
	if err := SaveAgent(&buf, agent); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, key := range []string{`"config"`, `"theta1"`, `"theta2"`, `"alpha"`, `"hidden":8`} {
		if !strings.Contains(out, key) {
			t.Errorf("snapshot missing %s", key)
		}
	}
}

func TestLoadAgentErrorPaths(t *testing.T) {
	if _, err := LoadAgent(strings.NewReader("{bad")); err == nil {
		t.Error("garbage must fail")
	}
	if _, err := LoadAgent(strings.NewReader(`{"version":99}`)); err == nil {
		t.Error("wrong version must fail")
	}
	if _, err := LoadAgent(strings.NewReader(`{"version":1}`)); err == nil {
		t.Error("missing networks must fail")
	}
	// A valid snapshot with corrupted theta dimensions must be rejected by
	// RestoreModels.
	cfg := qnet.DefaultConfig(qnet.VariantOSELM, 4, 2, 8)
	agent := qnet.MustNew(cfg)
	var buf bytes.Buffer
	if err := SaveAgent(&buf, agent); err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(buf.String(), `"hidden":8`, `"hidden":16`, 1)
	if _, err := LoadAgent(strings.NewReader(corrupted)); err == nil {
		t.Error("config/network dimension mismatch must fail")
	}
}

func TestDecodeMatrixErrors(t *testing.T) {
	if _, err := decodeMatrix(&matrixJSON{Rows: 2, Cols: 2, Data: []float64{1}}); err == nil {
		t.Error("length mismatch must fail")
	}
	if _, err := decodeMatrix(&matrixJSON{Rows: -1, Cols: 2}); err == nil {
		t.Error("negative dims must fail")
	}
	m, err := decodeMatrix(nil)
	if err != nil || m != nil {
		t.Error("nil payload must decode to nil")
	}
}

func TestAgentFileRoundTrip(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2, 4, 2, 8)
	agent := qnet.MustNew(cfg)
	path := filepath.Join(t.TempDir(), "agent.json")
	if err := SaveAgentFile(path, agent); err != nil {
		t.Fatal(err)
	}
	restored, err := LoadAgentFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Name() != agent.Name() || restored.Config().Hidden != 8 {
		t.Errorf("restored %s hidden=%d", restored.Name(), restored.Config().Hidden)
	}
}

func TestLoadAgentFileErrors(t *testing.T) {
	if _, err := LoadAgentFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing file must error")
	}
	// A future format version must be rejected with the path in the error.
	path := filepath.Join(t.TempDir(), "v999.json")
	agent := qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELM, 4, 2, 8))
	var buf bytes.Buffer
	if err := SaveAgent(&buf, agent); err != nil {
		t.Fatal(err)
	}
	snap := strings.Replace(buf.String(), `{"version":1,`, `{"version":999,`, 1)
	if !strings.Contains(snap, `"version":999`) {
		t.Fatal("fixture did not rewrite the version field")
	}
	if err := os.WriteFile(path, []byte(snap), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadAgentFile(path)
	if err == nil {
		t.Fatal("version 999 snapshot must be rejected")
	}
	if !strings.Contains(err.Error(), "version 999") || !strings.Contains(err.Error(), path) {
		t.Errorf("error should name the version and path: %v", err)
	}
}

// A reader polling the checkpoint while it is rewritten, the way
// cmd/serve -watch does, must always load a complete snapshot.
func TestSaveAgentFileAtomicUnderConcurrentLoad(t *testing.T) {
	agent := qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELML2, 4, 2, 16))
	trainOnCartPole(t, agent, 200)
	dir := t.TempDir()
	path := filepath.Join(dir, "agent.json")
	if err := SaveAgentFile(path, agent); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	loadErr := make(chan error, 1)
	loads := 0
	go func() {
		defer close(loadErr)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := LoadAgentFile(path); err != nil {
				loadErr <- err
				return
			}
			loads++
		}
	}()
	var saveErr error
	for i := 0; i < 200 && saveErr == nil; i++ {
		saveErr = SaveAgentFile(path, agent)
	}
	close(stop)
	if err := <-loadErr; err != nil {
		t.Fatalf("load during save failed: %v", err)
	}
	if saveErr != nil {
		t.Fatal(saveErr)
	}
	t.Logf("%d loads during 200 saves", loads)

	info, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if perm := info.Mode().Perm(); perm != 0o644 {
		t.Errorf("checkpoint mode %v, want 0644", perm)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after saving, want only agent.json", len(entries))
	}
}

// A save that fails part way must leave the previous checkpoint in place
// and no temp file beside it.
func TestSaveAgentFileFailureKeepsOldFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "agent.json")
	if err := SaveAgentFile(path, qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELM, 4, 2, 8))); err != nil {
		t.Fatal(err)
	}
	old, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// encoding/json rejects NaN, so this save fails after its temp file
	// has been created and partly written.
	bad := qnet.MustNew(qnet.DefaultConfig(qnet.VariantOSELM, 4, 2, 8))
	bad.Theta1().Beta.RawData()[0] = math.NaN()
	if err := SaveAgentFile(path, bad); err == nil {
		t.Fatal("saving a NaN weight must fail")
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, old) {
		t.Error("failed save changed the existing checkpoint")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.Name() != "agent.json" {
			t.Errorf("failed save left %s behind", e.Name())
		}
	}
	if err := SaveAgentFile(filepath.Join(dir, "missing", "agent.json"), bad); err == nil {
		t.Error("saving into a missing directory must fail")
	}
}
