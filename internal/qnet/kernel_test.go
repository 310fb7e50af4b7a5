package qnet

import (
	"math"
	"testing"

	"oselmrl/internal/oselm"
	"oselmrl/internal/replay"
	"oselmrl/internal/rng"
)

var kernelConfigs = map[string]func(*Config){
	"scalar":   func(c *Config) {},
	"onehot":   func(c *Config) { c.OneHotActions = true },
	"standard": func(c *Config) { c.StandardOutputModel = true },
}

// trainDivergedAgent trains an agent, syncs θ2 ← θ1, then trains θ1
// further, so θ1 and θ2 are both trained and differ.
func trainDivergedAgent(t *testing.T, cfg Config) *Agent {
	t.Helper()
	a := trainSmallAgent(t, cfg)
	a.EndEpisode(cfg.UpdateEvery)
	r := rng.New(5)
	for i := 0; i < 2*cfg.Hidden; i++ {
		s, next := make([]float64, cfg.ObservationSize), make([]float64, cfg.ObservationSize)
		r.FillUniform(s, -1, 1)
		r.FillUniform(next, -1, 1)
		if err := a.Observe(replay.Transition{State: s, Action: r.Intn(cfg.ActionCount),
			Reward: r.Uniform(-1, 1), NextState: next}); err != nil {
			t.Fatal(err)
		}
	}
	return a
}

// The shared-prefix Q kernel must give every Q value BIT-identical to
// elm.Model.PredictOne on the encoded input, on θ1 and θ2, for all three
// input/output layouts — including states with exact +0 and −0 entries,
// which the prefix skips as VecMulInto does.
func TestQKernelBitIdenticalToPredictOne(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for name, mod := range kernelConfigs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(VariantOSELML2Lipschitz, 4, 3, 16)
			mod(&cfg)
			a := trainDivergedAgent(t, cfg)
			states := [][]float64{
				{0, 0, 0, 0},
				{negZero, negZero, negZero, negZero},
				{0.25, negZero, -1.5, 0},
				{negZero, 0.7, 0, -0.1},
			}
			r := rng.New(11)
			for i := 0; i < 20; i++ {
				s := make([]float64, 4)
				r.FillUniform(s, -2, 2)
				s[r.Intn(4)] = negZero
				states = append(states, s)
			}
			in := make([]float64, a.dims.In)
			for mi, m := range []*oselm.Model{a.theta1, a.theta2} {
				for si, s := range states {
					var want []float64
					if cfg.StandardOutputModel {
						want = m.PredictOne(s)
					} else {
						for act := 0; act < cfg.ActionCount; act++ {
							want = append(want, m.PredictOne(a.encode(in, s, act))[0])
						}
					}
					got := append([]float64(nil), a.kernel.values(m.Model, s)...)
					for act := range want {
						one := a.qValue(m, s, act)
						for _, g := range []float64{got[act], one} {
							if math.Float64bits(g) != math.Float64bits(want[act]) {
								t.Fatalf("θ%d state %d %v action %d: kernel %v (%#x), PredictOne %v (%#x)",
									mi+1, si, s, act, g, math.Float64bits(g), want[act], math.Float64bits(want[act]))
							}
						}
					}
				}
			}
		})
	}
}

// A trained float agent's step allocates nothing: SelectAction on the
// greedy path and Observe on the sequential-update path, for every
// layout and with Double-Q targets.
func TestFloatAgentStepDoesNotAllocate(t *testing.T) {
	configs := map[string]func(*Config){"doubleq": func(c *Config) { c.DoubleQ = true }}
	for name, mod := range kernelConfigs {
		configs[name] = mod
	}
	for name, mod := range configs {
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig(VariantOSELML2Lipschitz, 4, 2, 32)
			mod(&cfg)
			cfg.Epsilon1 = 1 // always greedy
			cfg.Epsilon2 = 1 // always a sequential update
			a := trainSmallAgent(t, cfg)
			r := rng.New(3)
			trans := make([]replay.Transition, 8)
			for i := range trans {
				s, next := make([]float64, 4), make([]float64, 4)
				r.FillUniform(s, -1, 1)
				r.FillUniform(next, -1, 1)
				trans[i] = replay.Transition{State: s, Action: i % 2, Reward: r.Uniform(-1, 1),
					NextState: next, Done: i == 5}
			}
			i := 0
			if got := testing.AllocsPerRun(100, func() {
				a.SelectAction(trans[i%len(trans)].State)
				i++
			}); got != 0 {
				t.Errorf("SelectAction: %g allocs/op, want 0", got)
			}
			updates := a.Theta1().Updates()
			if got := testing.AllocsPerRun(100, func() {
				if err := a.Observe(trans[i%len(trans)]); err != nil {
					t.Fatal(err)
				}
				i++
			}); got != 0 {
				t.Errorf("Observe: %g allocs/op, want 0", got)
			}
			if a.Theta1().Updates() == updates {
				t.Error("Observe ran no sequential update")
			}
		})
	}
}
