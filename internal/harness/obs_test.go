package harness

import (
	"bytes"
	"math"
	"testing"

	"oselmrl/internal/env"
	"oselmrl/internal/obs"
	"oselmrl/internal/qnet"
	"oselmrl/internal/timing"
)

// runObserved trains a small OS-ELM agent with observability on and
// returns the result plus the decoded event stream.
func runObserved(t *testing.T, maxEpisodes int) (*Result, []obs.Event) {
	t.Helper()
	var buf bytes.Buffer
	emitter := obs.NewEmitter(obs.NewJSONLSink(&buf))

	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 16)
	cfg.Seed = 5
	agent := qnet.MustNew(cfg)
	task := env.NewShaped(env.NewCartPoleV0(105), env.RewardSurvival)
	rc := Defaults()
	rc.MaxEpisodes = maxEpisodes
	rc.ResetAfter = 50
	rc.Obs = emitter

	res := Run(agent, task, rc)
	if err := emitter.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	return res, events
}

// TestRunEventRoundTrip is the acceptance check for the observability
// layer: a full harness run with events enabled produces a parseable JSONL
// stream whose run_end verdict, episode count and per-phase wall-clock
// totals match the returned Result.
func TestRunEventRoundTrip(t *testing.T) {
	res, events := runObserved(t, 120)
	if len(events) == 0 {
		t.Fatal("no events emitted")
	}
	if events[0].Type != obs.EventRunStart {
		t.Fatalf("first event is %q, want run_start", events[0].Type)
	}
	if events[0].Labels["design"] != "OS-ELM-L2-Lipschitz" || events[0].Labels["env"] == "" {
		t.Fatalf("run_start labels missing: %+v", events[0].Labels)
	}

	byType := map[string][]obs.Event{}
	for _, ev := range events {
		byType[ev.Type] = append(byType[ev.Type], ev)
	}

	// One episode_end per consumed episode, in order.
	eps := byType[obs.EventEpisodeEnd]
	if len(eps) != res.Episodes {
		t.Fatalf("episode_end count = %d, want %d", len(eps), res.Episodes)
	}
	for i, ev := range eps {
		if ev.Episode != i+1 {
			t.Fatalf("episode_end %d has episode %d", i, ev.Episode)
		}
	}
	// The per-episode payloads mirror the recorded curve.
	for i, p := range res.Curve {
		if int(eps[i].Data["steps"]) != p.Steps || eps[i].Data["moving_avg"] != p.MovingAvg {
			t.Fatalf("episode %d payload %v disagrees with curve %+v", i+1, eps[i].Data, p)
		}
	}

	// Reinit events match the reset count.
	if len(byType[obs.EventReinit]) != res.Resets {
		t.Fatalf("reinit events = %d, want %d resets", len(byType[obs.EventReinit]), res.Resets)
	}

	// Exactly one verdict, and it matches the Result.
	ends := byType[obs.EventRunEnd]
	if len(ends) != 1 {
		t.Fatalf("run_end events = %d, want 1", len(ends))
	}
	end := ends[0]
	if got := end.Data["solved"] == 1; got != res.Solved {
		t.Fatalf("run_end solved = %v, Result.Solved = %v", got, res.Solved)
	}
	if int(end.Data["episodes"]) != res.Episodes || int(end.Data["total_steps"]) != res.TotalSteps {
		t.Fatalf("run_end totals %v disagree with Result %+v", end.Data, res)
	}
	if int(end.Data["resets"]) != res.Resets {
		t.Fatalf("run_end resets = %v, want %d", end.Data["resets"], res.Resets)
	}
	if end.Data["wall_ms"] <= 0 || end.Data["wall_ms"] > 1.05*float64(res.WallTime.Milliseconds()+1) {
		t.Fatalf("run_end wall_ms = %v vs WallTime %v", end.Data["wall_ms"], res.WallTime)
	}

	// Phase wall-clock totals in the run_end event match the metrics
	// snapshot attached to the Result, and only cover time inside the run.
	if res.Metrics == nil {
		t.Fatal("Result.Metrics not filled")
	}
	var phaseTotal float64
	for phase, sec := range res.Metrics.WallSeconds {
		key := "wall_ms_" + phase
		if math.Abs(end.Data[key]-sec*1e3) > 1e-9 {
			t.Fatalf("%s = %v, snapshot says %v ms", key, end.Data[key], sec*1e3)
		}
		phaseTotal += sec
	}
	if phaseTotal > res.WallTime.Seconds() {
		t.Fatalf("phase wall total %.6fs exceeds run wall %.6fs", phaseTotal, res.WallTime.Seconds())
	}
	if res.Metrics.WallSeconds[string(timing.PhaseSeqTrain)] <= 0 {
		t.Fatal("no seq_train wall-clock recorded")
	}

	// Agent-level event/metric consistency: one seq_update event per
	// executed update, counted updates + skips = gated opportunities, and
	// the timing counters agree with the metrics registry.
	seqEvents := len(byType[obs.EventSeqUpdate])
	if int64(seqEvents) != res.Metrics.Counter(obs.MetricSeqUpdates) {
		t.Fatalf("seq_update events = %d, counter = %d",
			seqEvents, res.Metrics.Counter(obs.MetricSeqUpdates))
	}
	if got, want := res.Metrics.Counter(obs.MetricSeqUpdates), res.Counters.Calls(timing.PhaseSeqTrain); got != want {
		t.Fatalf("metrics seq_updates = %d, timing counters say %d", got, want)
	}
	if res.Metrics.Counter(obs.MetricSeqSkipped) == 0 {
		t.Fatal("ε₂ gate never skipped in 120 episodes — implausible")
	}
	if len(byType[obs.EventInitTrain]) == 0 || len(byType[obs.EventTheta2Sync]) == 0 {
		t.Fatal("init_train / theta2_sync events missing")
	}
	if res.Metrics.Counter(obs.MetricTargets) == 0 {
		t.Fatal("no Bellman targets counted")
	}
}

// TestRunWithoutObserver ensures the disabled path stays disabled: no
// metrics snapshot, no panic, identical behaviour.
func TestRunWithoutObserver(t *testing.T) {
	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 16)
	cfg.Seed = 5
	agent := qnet.MustNew(cfg)
	task := env.NewShaped(env.NewCartPoleV0(105), env.RewardSurvival)
	rc := Defaults()
	rc.MaxEpisodes = 30
	res := Run(agent, task, rc)
	if res.Metrics != nil {
		t.Fatal("Metrics must stay nil without an emitter")
	}
}

// TestRunDeterministicUnderObservation: observability must not perturb the
// run (it reads, never writes, agent state).
func TestRunDeterministicUnderObservation(t *testing.T) {
	mk := func(withObs bool) *Result {
		cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 16)
		cfg.Seed = 9
		agent := qnet.MustNew(cfg)
		task := env.NewShaped(env.NewCartPoleV0(109), env.RewardSurvival)
		rc := Defaults()
		rc.MaxEpisodes = 80
		if withObs {
			rc.Obs = obs.NewEmitter(obs.NewJSONLSink(&bytes.Buffer{}))
		}
		return Run(agent, task, rc)
	}
	plain, observed := mk(false), mk(true)
	if plain.Episodes != observed.Episodes || plain.TotalSteps != observed.TotalSteps ||
		plain.Solved != observed.Solved || plain.Resets != observed.Resets {
		t.Fatalf("observation changed the run: %+v vs %+v", plain, observed)
	}
}

// TestRunTrialsLabelsEvents checks the parallel runner tags each trial's
// events in the merged stream.
func TestRunTrialsLabelsEvents(t *testing.T) {
	var buf bytes.Buffer
	emitter := obs.NewEmitter(obs.NewJSONLSink(&buf))
	spec := TrialSpec{
		MakeAgent: func(seed uint64) (Agent, error) {
			cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, 8)
			cfg.Seed = seed
			return qnet.New(cfg)
		},
		MakeEnv: func(seed uint64) env.Env {
			return env.NewShaped(env.NewCartPoleV0(seed+1000), env.RewardSurvival)
		},
		Config: func() Config {
			c := Defaults()
			c.MaxEpisodes = 10
			c.RecordCurve = false
			c.Obs = emitter
			return c
		}(),
		Trials:   3,
		BaseSeed: 2,
	}
	results := RunTrials(spec)
	if err := emitter.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}
	trials := map[string]int{}
	for _, ev := range events {
		if ev.Type == obs.EventRunEnd {
			trials[ev.Labels["trial"]]++
		}
	}
	for i := 0; i < 3; i++ {
		if trials[string(rune('0'+i))] != 1 {
			t.Fatalf("trial %d run_end missing: %v", i, trials)
		}
	}
	for _, r := range results {
		if r.Err != nil {
			t.Fatal(r.Err)
		}
	}
}

// TestFPGARunPublishesLearnSeries: the FPGA design runs the same
// Algorithm 1 loop as the float designs, so a run with an emitter
// publishes the float design's learn series at θ2 sync — σmax(β) as gauge
// and histogram, the P-condition proxy and the clip rate — and every
// theta2_sync event carries σmax(β). Its target counter covers the
// init_train targets as well as the sequential ones.
func TestFPGARunPublishesLearnSeries(t *testing.T) {
	var buf bytes.Buffer
	emitter := obs.NewEmitter(obs.NewJSONLSink(&buf))
	const hidden = 16
	agent, err := NewAgent(DesignFPGA, 4, 2, hidden, 5)
	if err != nil {
		t.Fatal(err)
	}
	rc := Defaults()
	rc.MaxEpisodes = 60
	rc.Obs = emitter
	if res := Run(agent, env.NewShaped(env.NewCartPoleV0(105), env.RewardSurvival), rc); res.Err != nil {
		t.Fatal(res.Err)
	}
	snap := emitter.Metrics().Snapshot()
	if err := emitter.Close(); err != nil {
		t.Fatal(err)
	}
	events, err := obs.ReadEvents(&buf)
	if err != nil {
		t.Fatal(err)
	}

	for _, g := range []string{obs.GaugeBetaSigmaMax, obs.GaugeLearnPCond, obs.GaugeLearnClipRate} {
		if v, ok := snap.Gauges[g]; !ok || !(v > 0) {
			t.Errorf("gauge %s = %v (present %v), want a positive value", g, v, ok)
		}
	}
	if h := snap.Histograms[obs.GaugeBetaSigmaMax]; h == nil || h.N == 0 {
		t.Errorf("no %s histogram observations", obs.GaugeBetaSigmaMax)
	}
	syncs := 0
	for _, ev := range events {
		if ev.Type != obs.EventTheta2Sync {
			continue
		}
		syncs++
		if v, ok := ev.Data["beta_sigma_max"]; !ok || !(v > 0) {
			t.Fatalf("theta2_sync event at episode %d lacks beta_sigma_max: %v", ev.Episode, ev.Data)
		}
	}
	if syncs == 0 || int64(syncs) != snap.Counter(obs.MetricTheta2Syncs) {
		t.Errorf("%d theta2_sync events, %d counted", syncs, snap.Counter(obs.MetricTheta2Syncs))
	}
	if got, want := snap.Counter(obs.MetricTargets),
		snap.Counter(obs.MetricSeqUpdates)+hidden*snap.Counter(obs.MetricInitTrains); got != want {
		t.Errorf("targets = %d, want seq_updates + Ñ·init_trains = %d", got, want)
	}
}
