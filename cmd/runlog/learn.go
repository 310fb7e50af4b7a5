package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"

	"oselmrl/internal/obs"
)

// runLearn implements "runlog learn [run.jsonl]": an offline
// learning-dynamics and numeric-health report over a JSONL event log. It
// streams the log once and renders, per run: |TD-error| statistics from
// seq_update/train_step events, target statistics and the clip rate,
// σmax(β) and ‖β‖_F drift across theta2_sync events, the numeric_alert
// events a live -watchdog recorded, and the run_end diverged verdict. It
// also re-evaluates the watchdog rules offline against the streamed
// values (thresholds overridable with -max-sigma/-max-td), so a log
// recorded without -watchdog can still be screened for divergence after
// the fact.
func runLearn(args []string) error {
	fs := flag.NewFlagSet("runlog learn", flag.ContinueOnError)
	maxSigma := fs.Float64("max-sigma", obs.DefaultWatchdogConfig().MaxBetaSigmaMax,
		"offline σmax(β) threshold (0 disables the rule)")
	maxTD := fs.Float64("max-td", obs.DefaultWatchdogConfig().MaxTDErrorAbs,
		"offline |TD error| threshold (0 disables the rule)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 1 {
		return errors.New("at most one input file")
	}

	in, closeIn, err := openInput(fs.Arg(0))
	if err != nil {
		return err
	}
	defer closeIn()

	acc := newLearnSummary(obs.WatchdogConfig{
		MaxBetaSigmaMax:   *maxSigma,
		MaxTDErrorAbs:     *maxTD,
		MaxSaturationRate: obs.DefaultWatchdogConfig().MaxSaturationRate,
	})
	if err := obs.ScanEvents(in, acc.add); err != nil {
		if !errors.Is(err, io.ErrUnexpectedEOF) || acc.total == 0 {
			return err
		}
		fmt.Fprintln(os.Stderr, "runlog learn: warning: log ends mid-event (run killed?); reporting the complete events")
	}
	if acc.total == 0 {
		return errors.New("no events in the log")
	}
	acc.print(os.Stdout)
	return nil
}

// series accumulates streaming statistics for one scalar sequence without
// retaining the values.
type series struct {
	n           int
	sum, sumSq  float64
	min, max    float64
	first, last float64
}

func (s *series) add(v float64) {
	if s.n == 0 {
		s.min, s.max, s.first = v, v, v
	}
	s.n++
	s.sum += v
	s.sumSq += v * v
	s.last = v
	if v < s.min {
		s.min = v
	}
	if v > s.max {
		s.max = v
	}
}

func (s *series) mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum / float64(s.n)
}

func (s *series) std() float64 {
	if s.n < 2 {
		return 0
	}
	m := s.mean()
	v := s.sumSq/float64(s.n) - m*m
	if v < 0 {
		v = 0
	}
	return math.Sqrt(v)
}

// learnGroup accumulates one run's learning-dynamics events.
type learnGroup struct {
	key    string
	td     series // |TD error| per sequential update / gradient step
	target series // clip-bounded regression targets
	sigma  series // σmax(β) sampled at each θ2 sync
	norm   series // ‖β‖_F (or DQN weight norm) at each θ2 sync
	qval   series // predicted Q(s,a) per update

	clipped, targets int64 // seq_update clipped flags

	alerts  []obs.Alert // numeric_alert events recorded by a live watchdog
	offline *obs.Watchdog

	end        *obs.Event
	endDivergd bool
	endAlerts  int
}

// learnSummary is the streaming accumulator behind "runlog learn"; like
// the default summarize mode, only per-run aggregates stay resident.
type learnSummary struct {
	total  int
	cfg    obs.WatchdogConfig
	groups map[string]*learnGroup
	order  []string
}

func newLearnSummary(cfg obs.WatchdogConfig) *learnSummary {
	return &learnSummary{cfg: cfg, groups: map[string]*learnGroup{}}
}

// groupFor resolves the run group for an event, stripping the per-alert
// rule/metric labels numeric_alert events carry so they land in the same
// group as the run that produced them.
func (s *learnSummary) groupFor(ev *obs.Event) *learnGroup {
	labels := ev.Labels
	if ev.Type == obs.EventNumericAlert && labels != nil {
		stripped := make(map[string]string, len(labels))
		for k, v := range labels {
			if k == "rule" || k == "metric" {
				continue
			}
			stripped[k] = v
		}
		labels = stripped
	}
	key := labelKey(labels)
	g := s.groups[key]
	if g == nil {
		g = &learnGroup{key: key, offline: obs.NewWatchdog(s.cfg)}
		s.groups[key] = g
		s.order = append(s.order, key)
	}
	return g
}

// add consumes one event; its signature matches obs.ScanEvents. The event
// pointer is reused by the scanner, so retained payloads are copied.
func (s *learnSummary) add(ev *obs.Event) error {
	s.total++
	g := s.groupFor(ev)
	switch ev.Type {
	case obs.EventSeqUpdate, obs.EventTrainStep:
		if v, ok := ev.Data["td_error"]; ok {
			// Events carry the signed TD error; the report and the offline
			// rules track its magnitude (a -60 blowup is still a blowup).
			g.td.add(math.Abs(v))
			g.offline.CheckValue(obs.HistLearnTDErrorAbs, math.Abs(v))
		} else if droppedNonFinite(ev) {
			// Both event types always carry td_error, so a missing one is
			// the non-finite value the sink left out. It stays out of the
			// statistics but reaches the offline non-finite rule.
			g.offline.CheckValue(obs.HistLearnTDErrorAbs, math.NaN())
		}
		if v, ok := ev.Data["target"]; ok {
			g.target.add(v)
			g.targets++
			if ev.Data["clipped"] == 1 {
				g.clipped++
			}
		}
		if v, ok := ev.Data["q_value"]; ok {
			g.qval.add(v)
		}
	case obs.EventTheta2Sync:
		if v, ok := ev.Data["beta_sigma_max"]; ok {
			g.sigma.add(v)
			g.offline.CheckValue(obs.GaugeBetaSigmaMax, v)
		}
		if v, ok := ev.Data["beta_norm"]; ok {
			g.norm.add(v)
		} else if v, ok := ev.Data["weight_norm"]; ok {
			g.norm.add(v)
		}
	case obs.EventNumericAlert:
		g.alerts = append(g.alerts, obs.Alert{
			Rule:      ev.Labels["rule"],
			Metric:    ev.Labels["metric"],
			Value:     dataValue(ev, "value"),
			Threshold: ev.Data["threshold"],
		})
	case obs.EventRunEnd:
		end := *ev
		g.end = &end
		g.endDivergd = ev.Data["diverged"] == 1
		g.endAlerts = int(ev.Data["numeric_alerts"])
	}
	return nil
}

// droppedNonFinite reports whether the JSONL sink left non-finite values
// out of ev (it counts them in data.nonfinite).
func droppedNonFinite(ev *obs.Event) bool { return ev.Data["nonfinite"] > 0 }

// dataValue returns ev's data value for key, or NaN when the key is absent
// because the sink dropped it as non-finite. Which non-finite value it was
// is not recorded, so NaN stands for all of them.
func dataValue(ev *obs.Event, key string) float64 {
	if v, ok := ev.Data[key]; ok || !droppedNonFinite(ev) {
		return v
	}
	return math.NaN()
}

func (s *learnSummary) print(w io.Writer) {
	fmt.Fprintf(w, "Learning dynamics and numeric health (%d events)\n\n", s.total)
	for _, key := range s.order {
		g := s.groups[key]
		if g.empty() {
			continue
		}
		fmt.Fprintf(w, "  %s\n", key)
		if g.td.n > 0 {
			fmt.Fprintf(w, "    |TD error|    n=%-7d mean=%-9.4f std=%-9.4f max=%.4f\n",
				g.td.n, g.td.mean(), g.td.std(), g.td.max)
		}
		if g.target.n > 0 {
			clipPct := 0.0
			if g.targets > 0 {
				clipPct = 100 * float64(g.clipped) / float64(g.targets)
			}
			fmt.Fprintf(w, "    target        n=%-7d mean=%-9.4f min=%-9.4f max=%-9.4f clipped=%d (%.1f%%)\n",
				g.target.n, g.target.mean(), g.target.min, g.target.max, g.clipped, clipPct)
		}
		if g.qval.n > 0 {
			fmt.Fprintf(w, "    Q(s,a)        n=%-7d mean=%-9.4f min=%-9.4f max=%.4f\n",
				g.qval.n, g.qval.mean(), g.qval.min, g.qval.max)
		}
		if g.sigma.n > 0 {
			fmt.Fprintf(w, "    sigma(B)      syncs=%-3d first=%-9.4f last=%-9.4f max=%.4f\n",
				g.sigma.n, g.sigma.first, g.sigma.last, g.sigma.max)
		}
		if g.norm.n > 0 {
			fmt.Fprintf(w, "    weight norm   syncs=%-3d first=%-9.4f last=%-9.4f max=%.4f\n",
				g.norm.n, g.norm.first, g.norm.last, g.norm.max)
		}
		s.printVerdict(w, g)
		fmt.Fprintln(w)
	}
}

// printVerdict renders the recorded (live-watchdog) alerts, the offline
// re-evaluation, and the run_end diverged verdict for one run.
func (s *learnSummary) printVerdict(w io.Writer, g *learnGroup) {
	for _, al := range g.alerts {
		fmt.Fprintf(w, "    ALERT         %s on %s: value %g vs threshold %g (recorded by live watchdog)\n",
			al.Rule, al.Metric, al.Value, al.Threshold)
	}
	// The offline pass covers only what the event stream carries (TD
	// errors and σmax(β) samples); it is a screen for logs recorded
	// without -watchdog, not a replay of the full rule set.
	if len(g.alerts) == 0 {
		for _, al := range g.offline.Alerts() {
			fmt.Fprintf(w, "    ALERT         %s on %s: value %g vs threshold %g (offline re-evaluation, %d violations)\n",
				al.Rule, al.Metric, al.Value, al.Threshold, al.Count)
		}
	}
	switch {
	case g.end == nil:
		fmt.Fprintln(w, "    verdict       (run still in progress — no run_end event)")
	case g.endDivergd:
		fmt.Fprintf(w, "    verdict       DIVERGED (%d numeric alerts)\n", g.endAlerts)
	case len(g.alerts) == 0 && g.offline.Diverged():
		fmt.Fprintf(w, "    verdict       suspect — %d offline alerts (run had no live watchdog)\n",
			g.offline.AlertCount())
	default:
		fmt.Fprintln(w, "    verdict       healthy (zero numeric alerts)")
	}
}

// empty reports whether a group carries no learning-dynamics signal at
// all (e.g. the synthetic group created by an alert-only label set).
func (g *learnGroup) empty() bool {
	return g.td.n == 0 && g.target.n == 0 && g.sigma.n == 0 &&
		g.norm.n == 0 && g.qval.n == 0 && len(g.alerts) == 0 && g.end == nil
}
