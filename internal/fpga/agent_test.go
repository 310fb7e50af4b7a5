package fpga

import (
	"strings"
	"testing"

	"oselmrl/internal/activation"
	"oselmrl/internal/fixed"
	"oselmrl/internal/qnet"
	"oselmrl/internal/replay"
)

// TestNewAgentRejectsUnimplementedFlags: the device design trains the
// scalar-action single-output network with plain Q-learning targets, so
// a config asking for any qnet extension is refused, naming each flag,
// instead of being trained as the default design.
func TestNewAgentRejectsUnimplementedFlags(t *testing.T) {
	for _, tc := range []struct {
		set  func(*qnet.Config)
		want []string
	}{
		{func(c *qnet.Config) { c.DoubleQ = true }, []string{"DoubleQ"}},
		{func(c *qnet.Config) { c.OneHotActions = true }, []string{"OneHotActions"}},
		{func(c *qnet.Config) { c.StandardOutputModel = true }, []string{"StandardOutputModel"}},
		{func(c *qnet.Config) { c.DoubleQ, c.OneHotActions = true, true }, []string{"DoubleQ", "OneHotActions"}},
	} {
		cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
		tc.set(&cfg)
		_, err := NewAgentQ(cfg, DefaultCycleModel(), fixed.Q16)
		if err == nil {
			t.Errorf("%v: NewAgentQ accepted the config", tc.want)
			continue
		}
		for _, name := range tc.want {
			if !strings.Contains(err.Error(), name) {
				t.Errorf("error %q does not name %s", err, name)
			}
		}
	}
	if _, err := NewAgent(qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8), DefaultCycleModel()); err != nil {
		t.Errorf("default config rejected: %v", err)
	}
}

// TestNewAgentValidatesConfig: the device agent runs qnet's config
// validation, so a config the shared loop cannot run is an error at
// construction instead of a panic mid-run, and an activation the core's
// hidden pass does not implement is refused. A zero Activation takes
// qnet's ReLU default and trains.
func TestNewAgentValidatesConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*qnet.Config)
		want string // "" = accepted
	}{
		{"UpdateEvery 0", func(c *qnet.Config) { c.UpdateEvery = 0 }, "UpdateEvery"},
		{"Gamma 2", func(c *qnet.Config) { c.Gamma = 2 }, "gamma"},
		{"Epsilon2 3", func(c *qnet.Config) { c.Epsilon2 = 3 }, "epsilons"},
		{"empty clip range", func(c *qnet.Config) { c.ClipLow, c.ClipHigh = 1, 1 }, "clip range"},
		{"Tanh", func(c *qnet.Config) { c.Activation = activation.Tanh }, "Activation tanh"},
		{"zero Activation", func(c *qnet.Config) { c.Activation = activation.Func{} }, ""},
	} {
		cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
		tc.set(&cfg)
		a, err := NewAgentQ(cfg, DefaultCycleModel(), fixed.Q16)
		if tc.want != "" {
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s: NewAgentQ error %v, want one naming %q", tc.name, err, tc.want)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: rejected: %v", tc.name, err)
			continue
		}
		s := []float64{0.1, 0.2, 0.3, 0.4}
		for i := 0; i < 10; i++ {
			act := a.SelectAction(s)
			if err := a.Observe(replay.Transition{State: s, Action: act, NextState: s, Reward: 0.1}); err != nil {
				t.Fatal(err)
			}
		}
		a.EndEpisode(2)
		if !a.Trained() {
			t.Errorf("%s: agent did not load the core", tc.name)
		}
	}
}
