package main

import (
	"bufio"
	"bytes"
	"strconv"
	"strings"
	"testing"

	"oselmrl/internal/cli"
	"oselmrl/internal/harness"
)

// TestFleetModeSpeedupMonotone runs the fleet path of
// `train -design FPGA -cores 4 -episodes 30` in process: it must end with
// the solved (0) or impossible (3) verdict, and its printed speedup
// column must cover 1..4 cores and never fall as cores are added.
func TestFleetModeSpeedupMonotone(t *testing.T) {
	const cores = 4
	task, err := cli.MakeEnv("cartpole", 101)
	if err != nil {
		t.Fatal(err)
	}
	tel, err := cli.StartTelemetry(cli.TelemetryFlags{})
	if err != nil {
		t.Fatal(err)
	}
	cfg := harness.RunConfigFor(harness.DesignFPGA, harness.Defaults())
	cfg.MaxEpisodes = 30
	cli.SolveFor("cartpole", &cfg)
	cfg.Obs = tel.Emitter

	var out bytes.Buffer
	code := runFleetMode(fleetParams{
		design: harness.DesignFPGA, envName: "cartpole", task: task, hidden: 8,
		seed: 1, cfg: cfg, tel: tel, cores: cores, devices: 1, out: &out,
	})
	if code != 0 && code != exitImpossible {
		t.Fatalf("fleet mode exited %d, want 0 or %d\n%s", code, exitImpossible, out.String())
	}

	speedups := speedupColumn(t, out.String())
	if len(speedups) != cores {
		t.Fatalf("speedup table has %d rows, want %d\n%s", len(speedups), cores, out.String())
	}
	for i := 1; i < len(speedups); i++ {
		if speedups[i] < speedups[i-1] {
			t.Errorf("speedup falls from %g at %d cores to %g at %d cores",
				speedups[i-1], i, speedups[i], i+1)
		}
	}
}

// speedupColumn parses the speedup column of the "Fleet speedup" table
// in report, in core-count order.
func speedupColumn(t *testing.T, report string) []float64 {
	t.Helper()
	var col []float64
	table := false
	sc := bufio.NewScanner(strings.NewReader(report))
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		switch {
		case strings.HasPrefix(sc.Text(), "Fleet speedup"):
			table = true
		case !table || len(f) == 0 || f[0] == "cores":
		default:
			if _, err := strconv.Atoi(f[0]); err != nil {
				return col
			}
			v, err := strconv.ParseFloat(f[2], 64)
			if err != nil {
				t.Fatalf("speedup cell %q: %v", f[2], err)
			}
			col = append(col, v)
		}
	}
	if !table {
		t.Fatalf("no Fleet speedup table in the report:\n%s", report)
	}
	return col
}
