package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"oselmrl/internal/ledger"
	"oselmrl/internal/timing"
	"oselmrl/internal/trace"
	"oselmrl/internal/vcs"
)

// The paper-ready artifacts regenerated from the ledger after every run.
// The three tables are pure functions of the ledger's cell records (no
// timestamps, stable ordering), so re-running a finished grid rewrites
// them byte for byte; their digests are sealed in a report record. The
// JSON report carries a generation timestamp for tooling and is therefore
// NOT digested.
const (
	successTableFile    = "success_rate.txt"
	timeToCompleteFile  = "time_to_complete.csv"
	wordlengthTableFile = "wordlength.txt"
	reportFile          = "grid_report.json"
)

// reportCell is one grid point in grid_report.json — the unit cmd/grid
// -compare matches on (by ID).
type reportCell struct {
	ID         string             `json:"id"`
	ConfigHash string             `json:"config_hash"`
	Verdict    string             `json:"verdict"`
	Metrics    map[string]float64 `json:"metrics"`
}

// gridReport is the machine-readable grid outcome that -compare reads
// back to gate regressions against a prior run.
type gridReport struct {
	SchemaVersion int          `json:"schema_version"`
	Matrix        string       `json:"matrix"`
	GitSHA        string       `json:"git_sha"`
	GitDirty      bool         `json:"git_dirty,omitempty"`
	LedgerHead    string       `json:"ledger_head"`
	Generated     time.Time    `json:"generated"`
	Cells         []reportCell `json:"cells"`
}

// latestCells returns the newest record per config hash, ordered by cell
// label — the deterministic view of "the grid's current results" behind
// every table.
func latestCells(records []ledger.Record) []ledger.Record {
	latest := map[string]ledger.Record{}
	for _, r := range records {
		if r.Kind == ledger.KindCell && r.ConfigHash != "" {
			latest[r.ConfigHash] = r
		}
	}
	out := make([]ledger.Record, 0, len(latest))
	for _, r := range latest {
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Cell != out[j].Cell {
			return out[i].Cell < out[j].Cell
		}
		return out[i].Seq < out[j].Seq
	})
	return out
}

// writeReports regenerates the paper tables and the JSON report from the
// ledger, then seals the deterministic tables' digests in a report record
// — only when they changed since the last seal, so an all-skipped re-run
// appends nothing and the ledger converges.
func writeReports(l *ledger.Ledger, m *Matrix, outDir, artifactRoot string, git vcs.Info) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	cells := latestCells(l.Records())

	if err := writeText(filepath.Join(outDir, successTableFile), successTable(cells)); err != nil {
		return err
	}
	if err := writeText(filepath.Join(outDir, timeToCompleteFile), timeToCompleteCSV(cells)); err != nil {
		return err
	}
	if err := writeText(filepath.Join(outDir, wordlengthTableFile), wordlengthTable(cells)); err != nil {
		return err
	}

	var arts []ledger.Artifact
	for _, name := range []string{successTableFile, timeToCompleteFile, wordlengthTableFile} {
		full := filepath.Join(outDir, name)
		digest, err := ledger.HashFile(full)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(artifactRoot, full)
		if err != nil {
			rel = full
		}
		arts = append(arts, ledger.Artifact{Path: filepath.ToSlash(rel), SHA256: digest})
	}
	if !sameArtifacts(lastReportArtifacts(l.Records()), arts) {
		if _, err := l.Append(ledger.Record{
			Kind:      ledger.KindReport,
			Time:      time.Now().UTC().Format(time.RFC3339),
			Cell:      m.Name,
			GitSHA:    git.SHA,
			GitDirty:  git.Dirty,
			Artifacts: arts,
		}); err != nil {
			return err
		}
	}

	report := gridReport{
		SchemaVersion: 1,
		Matrix:        m.Name,
		GitSHA:        git.SHA,
		GitDirty:      git.Dirty,
		LedgerHead:    l.Head(),
		Generated:     time.Now().UTC(),
	}
	for _, r := range cells {
		report.Cells = append(report.Cells, reportCell{
			ID: r.Cell, ConfigHash: r.ConfigHash, Verdict: r.Verdict, Metrics: r.Metrics,
		})
	}
	return writeJSON(filepath.Join(outDir, reportFile), report)
}

func lastReportArtifacts(records []ledger.Record) []ledger.Artifact {
	for i := len(records) - 1; i >= 0; i-- {
		if records[i].Kind == ledger.KindReport {
			return records[i].Artifacts
		}
	}
	return nil
}

func sameArtifacts(a, b []ledger.Artifact) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// successTable renders the per-cell success rates (the paper's Table 2
// shape): one row per grid point, solved trials over trials plus the
// episodes-to-solve statistics.
func successTable(cells []ledger.Record) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-44s %-9s %10s %14s %14s\n",
		"cell", "verdict", "solved", "mean_episodes", "std_episodes")
	for _, r := range cells {
		solved := fmt.Sprintf("%.0f/%.0f", r.Metrics["solved_trials"], r.Metrics["trials"])
		mean, std := "-", "-"
		if r.Metrics["solved_trials"] > 0 {
			mean = fmt.Sprintf("%.1f", r.Metrics["mean_episodes"])
			std = fmt.Sprintf("%.1f", r.Metrics["std_episodes"])
		}
		fmt.Fprintf(&sb, "%-44s %-9s %10s %14s %14s\n", r.Cell, r.Verdict, solved, mean, std)
	}
	return sb.String()
}

// timeToCompleteCSV renders the Figure 5/6-style modelled execution-time
// breakdown, one row per grid point, via the shared CSV schema
// (trace.WriteBreakdownCSV) so existing plot tooling reads it unchanged.
func timeToCompleteCSV(cells []ledger.Record) string {
	var rows []trace.BreakdownRow
	for _, r := range cells {
		bd := timing.Breakdown{}
		for k, v := range r.Metrics {
			if phase, ok := strings.CutPrefix(k, "sec_"); ok && phase != "total" && phase != "solved_mean" {
				bd[timing.Phase(phase)] = v
			}
		}
		rows = append(rows, trace.BreakdownRow{
			Design:    r.Cell,
			Hidden:    int(r.Metrics["hidden"]),
			Breakdown: bd,
			Solved:    r.Verdict == "solved",
			Episodes:  int(r.Metrics["mean_episodes"]),
		})
	}
	var sb strings.Builder
	if err := trace.WriteBreakdownCSV(&sb, rows); err != nil {
		// strings.Builder cannot fail to write.
		panic(err)
	}
	return sb.String()
}

// wordlengthTable renders the §4.4 fixed-point ablation: the FPGA cells
// grouped by format, showing where narrow wordlengths stop solving.
func wordlengthTable(cells []ledger.Record) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-44s %-9s %10s %14s\n", "cell", "verdict", "solved", "mean_episodes")
	n := 0
	for _, r := range cells {
		if !strings.Contains(r.Cell, "FPGA") {
			continue
		}
		n++
		solved := fmt.Sprintf("%.0f/%.0f", r.Metrics["solved_trials"], r.Metrics["trials"])
		mean := "-"
		if r.Metrics["solved_trials"] > 0 {
			mean = fmt.Sprintf("%.1f", r.Metrics["mean_episodes"])
		}
		fmt.Fprintf(&sb, "%-44s %-9s %10s %14s\n", r.Cell, r.Verdict, solved, mean)
	}
	if n == 0 {
		sb.WriteString("(no FPGA cells in this grid)\n")
	}
	return sb.String()
}

// compareReportFiles loads two grid reports and returns the regressions of
// cur against prev: cells that disappeared, lost solves, or slowed beyond
// the threshold.
func compareReportFiles(prevPath, curPath string, thresholdPct float64) ([]string, error) {
	prev, err := readReport(prevPath)
	if err != nil {
		return nil, err
	}
	cur, err := readReport(curPath)
	if err != nil {
		return nil, err
	}
	return compareReports(prev, cur, thresholdPct), nil
}

func compareReports(prev, cur *gridReport, thresholdPct float64) []string {
	curByID := map[string]reportCell{}
	for _, c := range cur.Cells {
		curByID[c.ID] = c
	}
	var regressions []string
	for _, p := range prev.Cells {
		c, ok := curByID[p.ID]
		if !ok {
			regressions = append(regressions, fmt.Sprintf("%s: present in prior report, missing now", p.ID))
			continue
		}
		pSolved, cSolved := p.Metrics["solved_trials"], c.Metrics["solved_trials"]
		if cSolved < pSolved {
			regressions = append(regressions,
				fmt.Sprintf("%s: solved trials fell %.0f -> %.0f", p.ID, pSolved, cSolved))
			continue
		}
		pMean, cMean := p.Metrics["mean_episodes"], c.Metrics["mean_episodes"]
		if pSolved > 0 && cSolved > 0 && pMean > 0 {
			pct := (cMean - pMean) / pMean * 100
			if pct > thresholdPct {
				regressions = append(regressions,
					fmt.Sprintf("%s: mean episodes to solve rose %.1f -> %.1f (+%.1f%% > %.1f%%)",
						p.ID, pMean, cMean, pct, thresholdPct))
			}
		}
	}
	return regressions
}

func readReport(path string) (*gridReport, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r gridReport
	if err := json.Unmarshal(data, &r); err != nil {
		return nil, fmt.Errorf("report %s: %w", path, err)
	}
	return &r, nil
}

func writeText(path, content string) error {
	return os.WriteFile(path, []byte(content), 0o644)
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
