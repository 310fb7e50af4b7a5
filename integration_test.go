package oselmrl_test

import (
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"math"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"oselmrl"
	"oselmrl/internal/env"
	"oselmrl/internal/fpga"
	"oselmrl/internal/harness"
	"oselmrl/internal/persist"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
	"oselmrl/internal/timing"
)

// TestFullRunDeterminism: two identical facade runs produce identical
// results — episodes, steps, counters. The whole stack (env physics, RNG,
// agent updates) must be deterministic for the figures to be reproducible.
func TestFullRunDeterminism(t *testing.T) {
	run := func() *oselmrl.Result {
		agent, err := oselmrl.NewAgent(oselmrl.DesignOSELML2Lipschitz, 4, 2, 16, 9)
		if err != nil {
			t.Fatal(err)
		}
		cfg := oselmrl.DefaultRunConfig()
		cfg.MaxEpisodes = 300
		return oselmrl.Run(agent, oselmrl.NewCartPole(109), cfg)
	}
	a, b := run(), run()
	if a.Episodes != b.Episodes || a.TotalSteps != b.TotalSteps || a.Solved != b.Solved {
		t.Fatalf("non-deterministic runs: %+v vs %+v", a, b)
	}
	for _, p := range timing.AllPhases {
		if a.Counters.Calls(p) != b.Counters.Calls(p) || a.Counters.Work(p) != b.Counters.Work(p) {
			t.Fatalf("counters diverge in phase %s", p)
		}
	}
}

// TestFPGAAgentTracksFloatAgent: with identical seeds the fixed-point FPGA
// agent and the float OS-ELM-L2-Lipschitz agent start from the same random
// weights; their initial-training outputs must agree closely (drift grows
// only through the quantized sequential updates).
func TestFPGAAgentTracksFloatAgent(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 16)
	cfg.Seed = 21
	floatAgent := qnet.MustNew(cfg)
	fpgaAgent := fpga.MustNewAgent(cfg, fpga.DefaultCycleModel())

	// Feed both the exact same transitions to fill buffer D.
	s := []float64{0.1, -0.1, 0.05, -0.05}
	for i := 0; i < 16; i++ {
		tr := replay.Transition{State: s, Action: i % 2, Reward: 0.1, NextState: s}
		if err := floatAgent.Observe(tr); err != nil {
			t.Fatal(err)
		}
		if err := fpgaAgent.Observe(tr); err != nil {
			t.Fatal(err)
		}
	}
	if !floatAgent.Trained() || !fpgaAgent.Trained() {
		t.Fatal("both agents must have completed initial training")
	}
	// The fixed-point core's predictions must track the float model.
	qf := floatAgent.Theta1().PredictOne([]float64{0.1, -0.1, 0.05, -0.05, 1})
	qx := fpgaAgent.Core().PredictFloat([]float64{0.1, -0.1, 0.05, -0.05, 1})
	if math.Abs(qf[0]-qx[0]) > 1e-3 {
		t.Errorf("post-init predictions diverge: float %v fixed %v", qf[0], qx[0])
	}
}

// TestPersistAcrossHarness: train through the harness, persist, reload,
// and verify the restored agent scores at least as well greedily.
func TestPersistAcrossHarness(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2, 4, 2, 16)
	cfg.Seed = 2
	agent := qnet.MustNew(cfg)
	rc := harness.Defaults()
	rc.MaxEpisodes = 400
	rc.RecordCurve = false
	harness.Run(agent, env.NewShaped(env.NewCartPoleV0(102), env.RewardSurvival), rc)

	var buf bytes.Buffer
	if err := persist.SaveAgent(&buf, agent); err != nil {
		t.Fatal(err)
	}
	restored, err := persist.LoadAgent(&buf)
	if err != nil {
		t.Fatal(err)
	}
	evalEnv := env.NewCartPoleV0(555)
	a := harness.EvaluateGreedy(agent, evalEnv, 10, true)
	b := harness.EvaluateGreedy(restored, env.NewCartPoleV0(555), 10, true)
	if a != b {
		t.Errorf("greedy scores differ after round trip: %v vs %v", a, b)
	}
}

// TestCountersFeedBreakdownsConsistently: for every design, a short run
// produces counters whose modelled breakdown is positive, finite, and
// dominated by the phases the paper attributes to that design.
func TestCountersFeedBreakdownsConsistently(t *testing.T) {
	for _, d := range harness.AllDesigns {
		d := d
		t.Run(string(d), func(t *testing.T) {
			agent, err := harness.NewAgent(d, 4, 2, 16, 3)
			if err != nil {
				t.Fatal(err)
			}
			rc := harness.RunConfigFor(d, harness.Defaults())
			rc.MaxEpisodes = 60
			rc.RecordCurve = false
			res := harness.Run(agent, env.NewShaped(env.NewCartPoleV0(103), env.RewardSurvival), rc)
			bd := harness.Breakdown(d, res.Counters)
			total := bd.Total()
			if total <= 0 || math.IsNaN(total) || math.IsInf(total, 0) {
				t.Fatalf("breakdown total = %v", total)
			}
			switch d {
			case harness.DesignDQN:
				if bd[timing.PhaseTrainDQN] <= 0 {
					t.Error("DQN must spend time in train_DQN")
				}
				if bd[timing.PhaseSeqTrain] != 0 {
					t.Error("DQN must not record seq_train")
				}
			case harness.DesignELM:
				if bd[timing.PhaseSeqTrain] != 0 {
					t.Error("batch ELM must not record seq_train")
				}
				if bd[timing.PhaseInitTrain] <= 0 {
					t.Error("ELM must record its batch trainings as init_train")
				}
			default:
				if bd[timing.PhaseSeqTrain] <= 0 {
					t.Errorf("%s must record seq_train", d)
				}
				if bd[timing.PhaseTrainDQN] != 0 {
					t.Errorf("%s must not record train_DQN", d)
				}
			}
		})
	}
}

// TestSevenDesignsRunConcurrently: the multi-trial runner executes all
// designs in parallel goroutines without data races (run with -race in CI).
func TestSevenDesignsRunConcurrently(t *testing.T) {
	spec := harness.TrialSpec{
		MakeAgent: func(seed uint64) (harness.Agent, error) {
			d := harness.AllDesigns[int(seed)%len(harness.AllDesigns)]
			return harness.NewAgent(d, 4, 2, 16, seed)
		},
		MakeEnv: func(seed uint64) env.Env {
			return env.NewShaped(env.NewCartPoleV0(seed+100), env.RewardSurvival)
		},
		Config: harness.Config{MaxEpisodes: 30, SolveWindow: 10, SolveThreshold: 1e18,
			ScoreIsSteps: true},
		Trials:      7,
		BaseSeed:    0,
		Parallelism: 7,
	}
	results := harness.RunTrials(spec)
	for i, r := range results {
		if r == nil || r.Err != nil {
			t.Errorf("trial %d: %+v", i, r)
		}
		if r.Episodes != 30 {
			t.Errorf("trial %d episodes = %d", i, r.Episodes)
		}
	}
}

// TestEveryInternalPackageHasAnImporter keeps dead packages from coming
// back: every package under internal/ must be imported by some non-test
// file outside its own directory and outside examples/. A package whose
// only users are its own tests or an example is a feature nothing
// depends on.
func TestEveryInternalPackageHasAnImporter(t *testing.T) {
	const module = "oselmrl/"
	pkgs := map[string]bool{}     // internal/... dirs holding non-test Go files
	imported := map[string]bool{} // internal/... dirs imported from elsewhere
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || name == "testdata" || path == "examples") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if strings.HasPrefix(dir, "internal/") {
			pkgs[dir] = true
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			ip, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				return err
			}
			if target := strings.TrimPrefix(ip, module); target != ip && target != dir {
				imported[target] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no internal packages; run from the module root")
	}
	var dead []string
	for pkg := range pkgs {
		if !imported[pkg] {
			dead = append(dead, pkg)
		}
	}
	sort.Strings(dead)
	if len(dead) > 0 {
		t.Errorf("no non-test importer outside itself and examples/ (delete or use them): %s", strings.Join(dead, ", "))
	}
}
