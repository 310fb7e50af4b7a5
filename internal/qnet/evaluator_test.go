package qnet

import (
	"sync"
	"testing"

	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
)

// trainSmallAgent builds an agent and feeds enough random transitions to
// complete the initial training plus some sequential updates, so β is
// non-trivial.
func trainSmallAgent(t *testing.T, cfg Config) *Agent {
	t.Helper()
	a := MustNew(cfg)
	r := rng.New(99)
	randState := func() []float64 {
		s := make([]float64, cfg.ObservationSize)
		for i := range s {
			s[i] = r.Uniform(-1, 1)
		}
		return s
	}
	for i := 0; i < 4*cfg.Hidden; i++ {
		tr := replay.Transition{
			State:     randState(),
			Action:    r.Intn(cfg.ActionCount),
			Reward:    r.Uniform(-1, 1),
			NextState: randState(),
			Done:      i%17 == 0,
		}
		if err := a.Observe(tr); err != nil {
			t.Fatalf("observe %d: %v", i, err)
		}
	}
	if !a.Trained() {
		t.Fatal("agent did not reach the trained state")
	}
	return a
}

// The evaluator must reproduce the agent's own Q values and greedy argmax
// exactly, for both output models and both action encodings.
func TestEvaluatorMatchesAgent(t *testing.T) {
	configs := map[string]func(*Config){
		"simplified": func(c *Config) {},
		"onehot":     func(c *Config) { c.OneHotActions = true },
		"standard":   func(c *Config) { c.StandardOutputModel = true },
	}
	for name, mod := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(VariantOSELML2Lipschitz, 4, 3, 8)
			mod(&cfg)
			a := trainSmallAgent(t, cfg)
			ev := a.NewEvaluator()
			if ev.ObservationSize() != 4 || ev.ActionCount() != 3 {
				t.Fatalf("dims %d/%d", ev.ObservationSize(), ev.ActionCount())
			}
			r := rng.New(7)
			for trial := 0; trial < 50; trial++ {
				state := []float64{r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1)}
				qs, err := ev.QValues(state)
				if err != nil {
					t.Fatal(err)
				}
				for act := 0; act < cfg.ActionCount; act++ {
					if want := a.qValue(a.theta1, state, act); qs[act] != want {
						t.Fatalf("Q(s,%d) = %v, agent says %v", act, qs[act], want)
					}
				}
				best, bestQ, err := ev.Best(state)
				if err != nil {
					t.Fatal(err)
				}
				if wantQ, _ := a.maxQ(a.dp.Values(state, false)); bestQ != wantQ {
					t.Fatalf("Best Q = %v, agent max = %v", bestQ, wantQ)
				}
				if qs[best] != bestQ {
					t.Fatalf("Best action %d inconsistent with QValues", best)
				}
			}
		})
	}
}

func TestEvaluatorRejectsWrongStateLength(t *testing.T) {
	a := trainSmallAgent(t, DefaultConfig(VariantOSELML2, 4, 2, 8))
	ev := a.NewEvaluator()
	if _, err := ev.QValues([]float64{1, 2}); err == nil {
		t.Error("short state must error")
	}
	if _, _, err := ev.Best(make([]float64, 9)); err == nil {
		t.Error("long state must error")
	}
}

// Many evaluators over one frozen model must be race-free (run with
// -race): this is the serving concurrency contract.
func TestEvaluatorsConcurrent(t *testing.T) {
	a := trainSmallAgent(t, DefaultConfig(VariantOSELML2Lipschitz, 4, 2, 8))
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ev := a.NewEvaluator()
			r := rng.New(uint64(g))
			for i := 0; i < 200; i++ {
				state := []float64{r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1), r.Uniform(-1, 1)}
				if _, _, err := ev.Best(state); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// Batched evaluation must be BIT-identical to the per-request path — this
// is the golden contract the serving tier's micro-batcher relies on: a
// request's answer may never depend on who it shared a batch with.
func TestQValuesBatchBitIdentical(t *testing.T) {
	configs := map[string]func(*Config){
		"simplified": func(c *Config) {},
		"onehot":     func(c *Config) { c.OneHotActions = true },
		"standard":   func(c *Config) { c.StandardOutputModel = true },
	}
	for name, mod := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(VariantOSELML2Lipschitz, 4, 3, 16)
			mod(&cfg)
			a := trainSmallAgent(t, cfg)
			ev := a.NewEvaluator()
			evRef := a.NewEvaluator()
			r := rng.New(31)
			// Vary batch sizes, including shrink-then-regrow to exercise
			// the scratch re-viewing.
			for _, k := range []int{1, 7, 3, 16, 2, 16} {
				states := make([][]float64, k)
				for i := range states {
					s := make([]float64, 4)
					for j := range s {
						s[j] = r.Uniform(-1, 1)
					}
					states[i] = s
				}
				qm, err := ev.QValuesBatch(states)
				if err != nil {
					t.Fatal(err)
				}
				if qm.Rows() != k || qm.Cols() != cfg.ActionCount {
					t.Fatalf("batch result %dx%d, want %dx%d", qm.Rows(), qm.Cols(), k, cfg.ActionCount)
				}
				acts, qs, err := ev.BestBatch(states)
				if err != nil {
					t.Fatal(err)
				}
				for i, st := range states {
					want, err := evRef.QValues(st)
					if err != nil {
						t.Fatal(err)
					}
					for act := range want {
						if got := qm.At(i, act); got != want[act] {
							t.Fatalf("k=%d row %d act %d: batch %v, single %v", k, i, act, got, want[act])
						}
					}
					wantAct, wantQ, err := evRef.Best(st)
					if err != nil {
						t.Fatal(err)
					}
					if acts[i] != wantAct || qs[i] != wantQ {
						t.Fatalf("k=%d row %d: BestBatch (%d,%v), Best (%d,%v)",
							k, i, acts[i], qs[i], wantAct, wantQ)
					}
				}
			}
		})
	}
}

func TestQValuesBatchRejectsBadRow(t *testing.T) {
	a := trainSmallAgent(t, DefaultConfig(VariantOSELML2, 4, 2, 8))
	ev := a.NewEvaluator()
	states := [][]float64{make([]float64, 4), make([]float64, 3), make([]float64, 4)}
	if _, err := ev.QValuesBatch(states); err == nil {
		t.Error("bad row must error")
	}
	if _, _, err := ev.BestBatch(states); err == nil {
		t.Error("BestBatch must propagate the error")
	}
	// Empty batch is legal and returns an empty view.
	if qm, err := ev.QValuesBatch(nil); err != nil || qm.Rows() != 0 {
		t.Errorf("empty batch: %v rows=%d", err, qm.Rows())
	}
}
