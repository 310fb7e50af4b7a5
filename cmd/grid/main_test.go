package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"oselmrl/internal/ledger"
)

// TestMain doubles as the grid binary for the kill-and-resume test: with
// GRID_HELPER set, the test executable runs the real grid entry point on
// the unit-separator-delimited args from GRID_ARGS instead of the suite.
func TestMain(m *testing.M) {
	if os.Getenv("GRID_HELPER") == "1" {
		os.Exit(run(strings.Split(os.Getenv("GRID_ARGS"), "\x1f")))
	}
	os.Exit(m.Run())
}

func writeMatrix(t *testing.T, dir string, m Matrix) string {
	t.Helper()
	data, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "matrix.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestMatrixExpansion(t *testing.T) {
	m := Matrix{
		Name: "t", Envs: []string{"cartpole", "gridworld"},
		Designs:  []string{"OS-ELM-L2", "DQN", "FPGA"},
		Hidden:   []int{16, 32},
		QFormats: []string{"Q16", "Q20"},
		Seeds:    3, Episodes: 500, DQNEpisodes: 100,
	}
	cells := m.Cells()
	// Per env: OS-ELM-L2 and DQN get 2 cells each (hidden), FPGA 2*2.
	if want := 2 * (2 + 2 + 4); len(cells) != want {
		t.Fatalf("expanded to %d cells, want %d", len(cells), want)
	}
	var dqn, fpga int
	for _, c := range cells {
		switch {
		case c.Design == "DQN":
			dqn++
			if c.Episodes != 100 {
				t.Errorf("DQN cell %s has budget %d, want the dqn_episodes override 100", c.ID(), c.Episodes)
			}
		case c.Design == "FPGA":
			fpga++
			if c.QFormat == "" {
				t.Errorf("FPGA cell %s missing its qformat", c.ID())
			}
		default:
			if c.QFormat != "" {
				t.Errorf("software cell %s carries qformat %s", c.ID(), c.QFormat)
			}
			if c.Episodes != 500 {
				t.Errorf("cell %s has budget %d, want 500", c.ID(), c.Episodes)
			}
		}
	}
	if dqn != 4 || fpga != 8 {
		t.Fatalf("got %d DQN / %d FPGA cells, want 4 / 8", dqn, fpga)
	}

	h1, err := cells[0].ConfigHash()
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := cells[0].ConfigHash()
	if h1 != h2 {
		t.Fatal("config hash is not deterministic")
	}
	mod := cells[0]
	mod.Hidden++
	h3, _ := mod.ConfigHash()
	if h3 == h1 {
		t.Fatal("config hash ignores the hidden width")
	}
}

func TestGridResumeSkipsCompletedCells(t *testing.T) {
	dir := t.TempDir()
	matrix := writeMatrix(t, dir, Matrix{
		Name: "resume", Envs: []string{"cartpole"},
		Designs: []string{"ELM", "OS-ELM-L2"}, Hidden: []int{8},
		Seeds: 1, Episodes: 15,
	})
	out := filepath.Join(dir, "results", "grid")
	led := filepath.Join(dir, "results", "ledger")
	args := []string{"-matrix", matrix, "-out", out, "-ledger", led}

	if code := run(args); code != 0 {
		t.Fatalf("first run exited %d", code)
	}
	records, _, err := ledger.Read(filepath.Join(led, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	firstLen := len(records)
	cellCount := 0
	for _, r := range records {
		if r.Kind == ledger.KindCell {
			cellCount++
		}
	}
	if cellCount != 2 {
		t.Fatalf("first run recorded %d cells, want 2", cellCount)
	}
	tables := map[string][]byte{}
	for _, name := range []string{successTableFile, timeToCompleteFile, wordlengthTableFile} {
		data, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		tables[name] = data
	}

	// Second run: everything is in the ledger, so nothing re-runs, no new
	// records appear (not even a report record — the tables are unchanged)
	// and every table regenerates byte for byte.
	if code := run(args); code != 0 {
		t.Fatalf("second run exited %d", code)
	}
	records, _, err = ledger.Read(filepath.Join(led, ledger.FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != firstLen {
		t.Fatalf("second run grew the ledger %d -> %d records; expected zero re-runs", firstLen, len(records))
	}
	for name, want := range tables {
		got, err := os.ReadFile(filepath.Join(out, name))
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("%s changed across an all-skipped re-run", name)
		}
	}

	// The ledger (chain, Merkle seals, artifact digests) verifies clean.
	if _, err := ledger.Verify(records, ledger.VerifyOptions{
		ArtifactRoot: filepath.Join(dir, "results"),
	}); err != nil {
		t.Fatalf("Verify: %v", err)
	}
}

// TestGridKillResume is the crash-recovery acceptance test: a grid killed
// with SIGKILL mid-matrix must, on re-run, skip the cells that completed
// and execute only the unfinished ones.
func TestGridKillResume(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess and trains DQN")
	}
	dir := t.TempDir()
	// Cell order is matrix order: the ELM cell (15-episode budget)
	// finishes in milliseconds, then the DQN cell grinds on a 200k-episode
	// budget — plenty of time to kill the process mid-cell.
	matrix := writeMatrix(t, dir, Matrix{
		Name: "kill", Envs: []string{"cartpole"},
		Designs: []string{"ELM", "DQN"}, Hidden: []int{8},
		Seeds: 1, Episodes: 15, DQNEpisodes: 200000,
	})
	out := filepath.Join(dir, "results", "grid")
	led := filepath.Join(dir, "results", "ledger")
	ledgerPath := filepath.Join(led, ledger.FileName)
	args := []string{"-matrix", matrix, "-out", out, "-ledger", led, "-workers", "1"}

	cmd := exec.Command(os.Args[0])
	cmd.Env = append(os.Environ(), "GRID_HELPER=1", "GRID_ARGS="+strings.Join(args, "\x1f"))
	killWithParent(cmd)
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	// The helper would train DQN for a long time: whatever path the test
	// leaves by, the child goes with it. Kill and Wait errors only mean
	// the child is already gone.
	t.Cleanup(func() {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
	})
	// Wait for the fast cell's record to land (fsynced before the slow
	// cell starts on the single worker), then SIGKILL mid-DQN-training.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if records, _, err := ledger.Read(ledgerPath); err == nil && len(records) >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("first cell never reached the ledger")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatal(err)
	}
	cmd.Wait()

	records, _, err := ledger.Read(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	cellsBefore := map[string]string{}
	for _, r := range records {
		if r.Kind == ledger.KindCell {
			cellsBefore[r.Cell] = r.Verdict
		}
	}
	if _, ok := cellsBefore["cartpole/ELM/h8"]; !ok {
		t.Fatalf("killed run's ledger lacks the completed cell: %v", cellsBefore)
	}
	if _, ok := cellsBefore["cartpole/DQN/h8"]; ok {
		t.Fatal("the killed-mid-run cell has a verdict; the kill came too late to exercise resume")
	}

	// Resume in-process with a short timeout: only the unfinished DQN cell
	// executes, recording a timeout verdict.
	if code := run(append(args, "-cell-timeout", "2s")); code != 0 {
		t.Fatalf("resume run exited %d", code)
	}
	records, _, err = ledger.Read(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	elm, dqn := 0, 0
	for _, r := range records {
		switch {
		case r.Kind != ledger.KindCell:
		case r.Cell == "cartpole/ELM/h8":
			elm++
		case r.Cell == "cartpole/DQN/h8":
			dqn++
			if r.Verdict != "timeout" {
				t.Errorf("resumed cell verdict = %q, want timeout", r.Verdict)
			}
		}
	}
	if elm != 1 {
		t.Errorf("completed cell ran again on resume (%d records)", elm)
	}
	if dqn != 1 {
		t.Errorf("unfinished cell has %d records after resume, want 1", dqn)
	}
	resumedLen := len(records)

	// Third run: the whole matrix is complete; nothing executes.
	if code := run(args); code != 0 {
		t.Fatalf("third run exited %d", code)
	}
	records, _, err = ledger.Read(ledgerPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(records) != resumedLen {
		t.Fatalf("third run grew the ledger %d -> %d records; expected zero re-runs", resumedLen, len(records))
	}
	if _, err := ledger.Verify(records, ledger.VerifyOptions{
		ArtifactRoot: filepath.Join(dir, "results"),
	}); err != nil {
		t.Fatalf("Verify after kill-resume: %v", err)
	}
}

func TestCompareReports(t *testing.T) {
	prev := &gridReport{Cells: []reportCell{
		{ID: "a", Metrics: map[string]float64{"solved_trials": 3, "trials": 3, "mean_episodes": 100}},
		{ID: "b", Metrics: map[string]float64{"solved_trials": 2, "trials": 3, "mean_episodes": 200}},
		{ID: "c", Metrics: map[string]float64{"solved_trials": 0, "trials": 3}},
	}}
	cur := &gridReport{Cells: []reportCell{
		{ID: "a", Metrics: map[string]float64{"solved_trials": 3, "trials": 3, "mean_episodes": 105}},
		{ID: "b", Metrics: map[string]float64{"solved_trials": 1, "trials": 3, "mean_episodes": 190}},
		{ID: "c", Metrics: map[string]float64{"solved_trials": 0, "trials": 3}},
	}}
	if regs := compareReports(prev, cur, 10); len(regs) != 1 || !strings.Contains(regs[0], "b:") {
		t.Fatalf("regressions = %v, want exactly the lost solve on b", regs)
	}
	// Tighten the threshold: a's 5% episode increase now regresses too.
	if regs := compareReports(prev, cur, 3); len(regs) != 2 {
		t.Fatalf("regressions at 3%% threshold = %v, want 2", regs)
	}
	// A vanished cell is a regression.
	cur.Cells = cur.Cells[1:]
	if regs := compareReports(prev, cur, 10); len(regs) != 2 || !strings.Contains(regs[0], "missing") {
		t.Fatalf("regressions with missing cell = %v", regs)
	}
}
