package main

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"oselmrl/internal/obs"
)

func feedLearn(t *testing.T, s *learnSummary, evs []obs.Event) {
	t.Helper()
	for i := range evs {
		if err := s.add(&evs[i]); err != nil {
			t.Fatal(err)
		}
	}
}

// TestLearnSummaryHealthyRun covers the report over a clean log with a
// live watchdog that never tripped: statistics render, no alerts, and a
// healthy verdict.
func TestLearnSummaryHealthyRun(t *testing.T) {
	labels := map[string]string{"design": "OS-ELM", "trial": "0"}
	s := newLearnSummary(obs.DefaultWatchdogConfig())
	feedLearn(t, s, []obs.Event{
		{Type: obs.EventSeqUpdate, Labels: labels, Data: map[string]float64{"td_error": 0.5, "target": 1, "clipped": 1}},
		{Type: obs.EventSeqUpdate, Labels: labels, Data: map[string]float64{"td_error": 0.25, "target": 0.7, "clipped": 0}},
		{Type: obs.EventTheta2Sync, Labels: labels, Data: map[string]float64{"beta_sigma_max": 1.5, "beta_norm": 3}},
		{Type: obs.EventTheta2Sync, Labels: labels, Data: map[string]float64{"beta_sigma_max": 2.0, "beta_norm": 4}},
		{Type: obs.EventRunEnd, Labels: labels, Data: map[string]float64{"solved": 1, "diverged": 0, "numeric_alerts": 0}},
	})

	var b strings.Builder
	s.print(&b)
	out := b.String()
	for _, want := range []string{
		"design=OS-ELM trial=0",
		"|TD error|    n=2",
		"clipped=1 (50.0%)",
		"sigma(B)      syncs=2",
		"last=2.0000",
		"healthy (zero numeric alerts)",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "ALERT") {
		t.Errorf("healthy run reported an alert:\n%s", out)
	}
}

// TestLearnSummaryRecordedAlerts checks that numeric_alert events group
// with their run despite the extra rule/metric labels, and that the
// run_end diverged flag wins the verdict.
func TestLearnSummaryRecordedAlerts(t *testing.T) {
	labels := map[string]string{"design": "OS-ELM"}
	alertLabels := map[string]string{"design": "OS-ELM", "rule": obs.RuleSigmaRunaway, "metric": obs.GaugeBetaSigmaMax}
	s := newLearnSummary(obs.DefaultWatchdogConfig())
	feedLearn(t, s, []obs.Event{
		{Type: obs.EventTheta2Sync, Labels: labels, Data: map[string]float64{"beta_sigma_max": 500}},
		{Type: obs.EventNumericAlert, Labels: alertLabels, Data: map[string]float64{"value": 500, "threshold": 100}},
		{Type: obs.EventRunEnd, Labels: labels, Data: map[string]float64{"solved": 0, "diverged": 1, "numeric_alerts": 1}},
	})

	if len(s.order) != 1 {
		t.Fatalf("alert event split into its own group: %v", s.order)
	}
	var b strings.Builder
	s.print(&b)
	out := b.String()
	if !strings.Contains(out, "ALERT         "+obs.RuleSigmaRunaway) ||
		!strings.Contains(out, "recorded by live watchdog") {
		t.Errorf("recorded alert missing:\n%s", out)
	}
	if !strings.Contains(out, "DIVERGED (1 numeric alerts)") {
		t.Errorf("diverged verdict missing:\n%s", out)
	}
	// The offline re-evaluation must not double-report when the live
	// watchdog already recorded the trip.
	if strings.Contains(out, "offline re-evaluation") {
		t.Errorf("offline alert double-reported:\n%s", out)
	}
}

// TestLearnSummaryOfflineScreen: a log recorded without -watchdog (no
// numeric_alert events) is re-screened offline and flagged as suspect.
func TestLearnSummaryOfflineScreen(t *testing.T) {
	labels := map[string]string{"design": "OS-ELM"}
	s := newLearnSummary(obs.DefaultWatchdogConfig())
	feedLearn(t, s, []obs.Event{
		// Signed TD error: a large negative blowup must still trip the
		// magnitude rule.
		{Type: obs.EventSeqUpdate, Labels: labels, Data: map[string]float64{"td_error": -1e6, "target": 1, "clipped": 1}},
		{Type: obs.EventTheta2Sync, Labels: labels, Data: map[string]float64{"beta_sigma_max": 500}},
		{Type: obs.EventRunEnd, Labels: labels, Data: map[string]float64{"solved": 0}},
	})

	var b strings.Builder
	s.print(&b)
	out := b.String()
	for _, want := range []string{
		obs.RuleTDBlowup,
		obs.RuleSigmaRunaway,
		"offline re-evaluation",
		"suspect — 2 offline alerts",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("offline screen missing %q:\n%s", want, out)
		}
	}
}

// TestLearnSummaryDroppedNonFinite reads a log as the JSONL sink writes
// it: a NaN TD error and a NaN alert value are left out of their events
// and counted in data.nonfinite. The report must show the alert value as
// NaN, not 0, and the offline screen must still see the NaN TD error.
func TestLearnSummaryDroppedNonFinite(t *testing.T) {
	var log bytes.Buffer
	em := obs.NewEmitter(obs.NewJSONLSink(&log))
	run := em.With(map[string]string{"design": "OS-ELM"})
	run.Emit(obs.EventSeqUpdate, 0, map[string]float64{"td_error": math.NaN(), "target": 1, "clipped": 0})
	em.EmitLabeled(obs.EventNumericAlert,
		map[string]string{"design": "OS-ELM", "rule": obs.RuleNonFinite, "metric": obs.HistLearnTDErrorAbs},
		map[string]float64{"value": math.NaN(), "threshold": 0})
	if err := em.Close(); err != nil {
		t.Fatal(err)
	}

	live := newLearnSummary(obs.DefaultWatchdogConfig())
	if err := obs.ScanEvents(bytes.NewReader(log.Bytes()), live.add); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	live.print(&b)
	if want := "ALERT         " + obs.RuleNonFinite + " on " + obs.HistLearnTDErrorAbs + ": value NaN"; !strings.Contains(b.String(), want) {
		t.Errorf("report missing %q:\n%s", want, b.String())
	}

	// The same run without its live alert: the offline screen must flag
	// the dropped TD error.
	var seqOnly bytes.Buffer
	for _, line := range bytes.SplitAfter(log.Bytes(), []byte("\n")) {
		if bytes.Contains(line, []byte(`"type":"`+obs.EventSeqUpdate+`"`)) {
			seqOnly.Write(line)
		}
	}
	offline := newLearnSummary(obs.DefaultWatchdogConfig())
	if err := obs.ScanEvents(&seqOnly, offline.add); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	offline.print(&b)
	if want := obs.RuleNonFinite + " on " + obs.HistLearnTDErrorAbs; !strings.Contains(b.String(), want) ||
		!strings.Contains(b.String(), "offline re-evaluation") {
		t.Errorf("offline screen missed the dropped TD error:\n%s", b.String())
	}
}
