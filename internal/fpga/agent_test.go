package fpga

import (
	"strings"
	"testing"

	"oselmrl/internal/fixed"
	"oselmrl/internal/qnet"
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
