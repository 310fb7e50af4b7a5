// Command train is the general-purpose training tool: train any design on
// any built-in environment, report the outcome, optionally evaluate the
// greedy policy and persist the trained agent to JSON for later
// deployment (ELM/OS-ELM designs).
//
// Usage:
//
//	go run ./cmd/train -design OS-ELM-L2-Lipschitz -env cartpole -hidden 32
//	go run ./cmd/train -design DQN -env gridworld -episodes 500
//	go run ./cmd/train -design OS-ELM-L2 -save agent.json -eval 20
//	go run ./cmd/train -load agent.json -eval 20
//	go run ./cmd/train -events run.jsonl -manifest run.json -pprof localhost:6060
//	go run ./cmd/train -serve :9090 -trace run-trace.json
//
// The final solve/impossible verdict is echoed to stderr and reflected in
// the exit code — 0 when solved, 3 when the episode budget ran out
// ("impossible", paper §4.4) — so scripted sweeps can branch on outcome.
// With -events the run emits a JSONL event stream (see cmd/runlog and
// README.md §Observability); -manifest records the full configuration and
// outcome as a JSON header; -serve exposes live Prometheus /metrics (plus
// /healthz, /snapshot and /trace) while the run executes; -trace writes a
// Chrome/Perfetto trace-event timeline of the run's phases (measured wall
// time paired with modelled device time) at exit; -pprof serves
// net/http/pprof for live profiling of long runs ("serve" mounts it on
// the -serve address instead); -watchdog arms the divergence watchdog
// (numeric_alert events, a diverged verdict in run_end and the manifest,
// and /health on the -serve mux — see README.md §Numeric health);
// -linger keeps the -serve endpoints up after the run so CI or a
// scheduler can take one final scrape of the end-state metrics.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"oselmrl/internal/cli"
	"oselmrl/internal/env"
	"oselmrl/internal/fixed"
	"oselmrl/internal/fleet"
	"oselmrl/internal/fpga"
	"oselmrl/internal/harness"
	"oselmrl/internal/obs"
	"oselmrl/internal/persist"
	"oselmrl/internal/qnet"
)

// exitImpossible is the exit code for a run that exhausted its episode
// budget without meeting the solve criterion.
const exitImpossible = 3

func main() { os.Exit(run()) }

func run() int {
	designName := flag.String("design", "OS-ELM-L2-Lipschitz", "design to train")
	envName := flag.String("env", "cartpole", "environment")
	hidden := flag.Int("hidden", 32, "hidden width")
	episodes := flag.Int("episodes", 5000, "episode budget")
	seed := flag.Uint64("seed", 1, "seed")
	savePath := flag.String("save", "", "save the trained agent to this JSON file (ELM/OS-ELM designs)")
	loadPath := flag.String("load", "", "load an agent snapshot instead of training")
	evalEps := flag.Int("eval", 0, "greedy-policy evaluation episodes after training")
	eventsPath := flag.String("events", "", "write a JSONL run-event log to this file ('-' for stderr)")
	manifestPath := flag.String("manifest", "", "write a JSON run manifest to this file")
	serveAddr := flag.String("serve", "", "serve live telemetry (/metrics, /healthz, /snapshot, /trace) on this address (e.g. :9090; :0 picks a port)")
	tracePath := flag.String("trace", "", "write a Chrome/Perfetto trace-event JSON timeline to this file at exit")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (e.g. localhost:6060), or 'serve' to mount it on the -serve address")
	watchdog := flag.Bool("watchdog", false, "enable the divergence watchdog (numeric_alert events, diverged verdict, /health on -serve)")
	profile := flag.Bool("profile", false, "enable the FPGA device-level cycle profiler (fpga_cycles/fpga_bram_access metrics, occupancy gauges, device_profile events; FPGA design only)")
	linger := flag.Duration("linger", 0, "keep the -serve telemetry server up this long after the run so a final scrape sees the end state (e.g. 10s)")
	qformatName := flag.String("qformat", "Q20", "fixed-point format of the FPGA design's datapath (Q16..Q24; FPGA design only)")
	coresFlag := flag.Int("cores", 1, "fleet mode: simulated cores per device — trains cores*devices population members and models multi-core device time (FPGA design only)")
	devicesFlag := flag.Int("devices", 1, "fleet mode: replicated devices (see -cores)")
	flag.Parse()

	qformat, err := cli.ParseQFormat(*qformatName)
	if err != nil {
		return fail(err)
	}

	tel, err := cli.StartTelemetry(cli.TelemetryFlags{
		Events: *eventsPath, Serve: *serveAddr, Trace: *tracePath, Pprof: *pprofAddr,
		Watchdog: *watchdog, Profile: *profile,
	})
	if err != nil {
		return fail(err)
	}

	task, err := cli.MakeEnv(*envName, *seed+100)
	if err != nil {
		return fail(err)
	}

	if *loadPath != "" {
		f, err := os.Open(*loadPath)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		agent, err := persist.LoadAgent(f)
		if err != nil {
			return fail(err)
		}
		fmt.Printf("Loaded %s agent from %s\n", agent.Name(), *loadPath)
		if *evalEps > 0 {
			score := harness.EvaluateGreedy(agent, task, *evalEps, true)
			fmt.Printf("Greedy evaluation over %d episodes: %.1f steps/episode\n", *evalEps, score)
		}
		return 0
	}

	d, err := harness.ParseDesign(*designName)
	if err != nil {
		return fail(err)
	}
	agent, err := harness.NewAgentQ(d, task.ObservationSize(), task.ActionCount(), *hidden, *seed, qformat)
	if err != nil {
		return fail(err)
	}
	cfg := harness.RunConfigFor(d, harness.Defaults())
	cfg.MaxEpisodes = *episodes
	cli.SolveFor(*envName, &cfg)

	labels := map[string]string{
		"hidden": fmt.Sprint(*hidden),
		"seed":   fmt.Sprint(*seed),
	}
	if d == harness.DesignFPGA {
		labels["qformat"] = qformat.String()
	}
	cfg.Obs = tel.Emitter.With(labels)
	cfg.DeviceProfile = tel.Profile

	if *coresFlag > 1 || *devicesFlag > 1 {
		return runFleetMode(fleetParams{
			design: d, envName: *envName, task: task, hidden: *hidden,
			seed: *seed, qformat: qformat, cfg: cfg, tel: tel,
			manifestPath: *manifestPath, cores: *coresFlag, devices: *devicesFlag,
			linger: *linger, serveAddr: *serveAddr, out: os.Stdout,
		})
	}

	manifest := obs.NewManifest()
	manifest.Design = string(d)
	manifest.Env = task.Name()
	manifest.Hidden = *hidden
	manifest.Seed = *seed
	if d == harness.DesignFPGA {
		manifest.QFormat = qformat.String()
	}
	manifest.Config = cfg
	manifest.EventsPath = *eventsPath
	manifest.Extra = map[string]string{"tool": "train"}

	fmt.Printf("Training %s on %s (%d hidden units, <= %d episodes) ...\n",
		d, task.Name(), *hidden, *episodes)
	res := harness.Run(agent, task, cfg)
	if err := tel.Close(); err != nil {
		fmt.Fprintln(os.Stderr, "train: closing telemetry:", err)
	}
	if res.Err != nil {
		fmt.Println("warning:", res.Err)
	}
	best := 0.0
	for _, p := range res.Curve {
		if p.MovingAvg > best {
			best = p.MovingAvg
		}
	}
	if res.Solved {
		fmt.Printf("Solved in %d episodes (%d resets, %d steps)\n", res.Episodes, res.Resets, res.TotalSteps)
	} else {
		fmt.Printf("Budget exhausted after %d episodes (best 100-episode average %.1f)\n",
			res.Episodes, best)
	}
	bd := harness.Breakdown(d, res.Counters)
	fmt.Println("Modelled device time:")
	fmt.Print(bd.Format())

	if *manifestPath != "" {
		manifest.End = manifest.Start.Add(res.WallTime)
		manifest.Outcome = &obs.Outcome{
			Solved:      res.Solved,
			Episodes:    res.Episodes,
			TotalSteps:  res.TotalSteps,
			Resets:      res.Resets,
			WallSeconds: res.WallTime.Seconds(),
		}
		if res.Err != nil {
			manifest.Outcome.Err = res.Err.Error()
		}
		manifest.Outcome.Diverged = res.Diverged
		manifest.Outcome.NumericAlerts = res.Alerts
		manifest.Metrics = res.Metrics
		if err := cli.WriteManifestFile(*manifestPath, manifest); err != nil {
			return fail(err)
		}
		fmt.Println("Run manifest written to", *manifestPath)
	}

	if *evalEps > 0 {
		if gp, ok := agent.(harness.GreedyPolicy); ok {
			score := harness.EvaluateGreedy(gp, task, *evalEps, true)
			fmt.Printf("Greedy evaluation over %d episodes: %.1f steps/episode\n", *evalEps, score)
		}
	}

	if *savePath != "" {
		qa, ok := agent.(*qnet.Agent)
		if !ok {
			return fail(fmt.Errorf("-save supports the ELM/OS-ELM designs, not %s", d))
		}
		if err := persist.SaveAgentFile(*savePath, qa); err != nil {
			return fail(err)
		}
		fmt.Println("Agent snapshot written to", *savePath)
	}

	if *linger > 0 && *serveAddr != "" {
		fmt.Fprintf(os.Stderr, "train: telemetry server lingering %s for a final scrape\n", *linger)
		time.Sleep(*linger)
	}

	if res.Diverged {
		fmt.Fprintf(os.Stderr, "train: watchdog: run DIVERGED (%d alerts)\n", len(res.Alerts))
		for _, al := range res.Alerts {
			fmt.Fprintf(os.Stderr, "train: watchdog:   %s on %s: value %g vs threshold %g (%d violations)\n",
				al.Rule, al.Metric, al.Value, al.Threshold, al.Count)
		}
	}

	// The machine-readable verdict goes to stderr so sweeps can branch on
	// it without parsing the human-oriented stdout report.
	if res.Solved {
		fmt.Fprintf(os.Stderr, "train: verdict solved episodes=%d\n", res.Episodes)
		return 0
	}
	fmt.Fprintf(os.Stderr, "train: verdict impossible episodes=%d\n", res.Episodes)
	return exitImpossible
}

func fail(err error) int {
	fmt.Fprintln(os.Stderr, "train:", err)
	return 1
}

// fleetParams carries run()'s inputs into fleet mode.
type fleetParams struct {
	design         harness.Design
	envName        string
	task           env.Env
	hidden         int
	seed           uint64
	qformat        fixed.QFormat
	cfg            harness.Config
	tel            *cli.Telemetry
	manifestPath   string
	cores, devices int
	linger         time.Duration
	serveAddr      string
	// out receives the run's report (os.Stdout from the command line).
	out io.Writer
}

// runFleetMode trains cores×devices population members (independent
// agents, environments and RNG streams) and reports the discrete-event
// fleet simulator's modelled multi-core device time: the 1→cores
// speedup curve plus the devices-wide makespan. The member count is
// capped by the Table 3 resource estimator — the simulator never models
// more cores than the device admits.
func runFleetMode(p fleetParams) int {
	if p.design != harness.DesignFPGA {
		return fail(fmt.Errorf("-cores/-devices model the FPGA fleet; design %s has no device model", p.design))
	}
	inputs := p.task.ObservationSize() + 1
	u := fpga.EstimateResources(inputs, p.hidden)
	if !u.Feasible {
		return fail(fmt.Errorf("a %d-unit core does not fit %s (needs %d BRAM36)",
			p.hidden, fpga.XC7Z020.Name, u.BRAM36))
	}
	coreCap, binding := fpga.CoresPerDevice(u, fpga.XC7Z020)
	if p.cores > coreCap {
		return fail(fmt.Errorf("-cores %d exceeds the %d cores a %d-unit design admits per %s (bound by %s)",
			p.cores, coreCap, p.hidden, fpga.XC7Z020.Name, binding))
	}

	obsSize, actions := p.task.ObservationSize(), p.task.ActionCount()
	spec := harness.FleetSpec{
		TrialSpec: harness.TrialSpec{
			MakeAgent: func(seed uint64) (harness.Agent, error) {
				return harness.NewAgentQ(p.design, obsSize, actions, p.hidden, seed, p.qformat)
			},
			MakeEnv: func(seed uint64) env.Env {
				// The env name was validated when run() built p.task.
				e, err := cli.MakeEnv(p.envName, seed+100)
				if err != nil {
					panic(err)
				}
				return e
			},
			Config:   p.cfg,
			BaseSeed: p.seed,
		},
		Cores:   p.cores,
		Devices: p.devices,
	}
	members := p.cores * p.devices
	fmt.Fprintf(p.out, "Fleet training %s on %s: %d members across %d device(s) x %d core(s), <= %d episodes each ...\n",
		p.design, p.task.Name(), members, p.devices, p.cores, p.cfg.MaxEpisodes)
	start := time.Now()
	res, err := harness.RunFleet(spec)
	wall := time.Since(start)
	if cerr := p.tel.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "train: closing telemetry:", cerr)
	}
	if err != nil {
		return fail(err)
	}

	agg := harness.Summarize(res.Members, nil)
	var episodes, steps int
	for _, r := range res.Members {
		if r != nil {
			episodes += r.Episodes
			steps += r.TotalSteps
		}
	}
	fmt.Fprintf(p.out, "Solved %d/%d members", agg.SolvedCount, agg.Trials)
	if agg.SolvedCount > 0 {
		fmt.Fprintf(p.out, " (mean %.1f episodes to solve)", agg.MeanEpisodes)
	}
	fmt.Fprintf(p.out, "; %d episodes, %d steps total\n", episodes, steps)

	fmt.Fprintln(p.out, "Merged modelled device time (all members, serialized reference):")
	fmt.Fprint(p.out, harness.Breakdown(p.design, res.Merged).Format())

	proj := res.Projection
	fmt.Fprintf(p.out, "\nFleet speedup (resource cap %d cores/device, bound by %s):\n", coreCap, binding)
	fmt.Fprint(p.out, fleet.FormatSpeedupTable(proj.Curve))
	fmt.Fprintf(p.out, "Modelled fleet time: %.4fs sequential -> %.4fs on %d device(s) x %d core(s) (speedup %.2f)\n",
		proj.SequentialSeconds, proj.FleetSeconds, p.devices, p.cores, proj.Speedup)

	if p.manifestPath != "" {
		manifest := obs.NewManifest()
		manifest.Design = string(p.design)
		manifest.Env = p.task.Name()
		manifest.Hidden = p.hidden
		manifest.Seed = p.seed
		manifest.QFormat = p.qformat.String()
		manifest.Config = p.cfg
		manifest.End = manifest.Start.Add(wall)
		manifest.Outcome = &obs.Outcome{
			Solved:      agg.SolvedCount > 0,
			Episodes:    episodes,
			TotalSteps:  steps,
			WallSeconds: wall.Seconds(),
		}
		manifest.Extra = map[string]string{
			"tool":    "train",
			"cores":   fmt.Sprint(p.cores),
			"devices": fmt.Sprint(p.devices),
			"speedup": fmt.Sprintf("%.4f", proj.Speedup),
		}
		if err := cli.WriteManifestFile(p.manifestPath, manifest); err != nil {
			return fail(err)
		}
		fmt.Fprintln(p.out, "Run manifest written to", p.manifestPath)
	}

	if p.linger > 0 && p.serveAddr != "" {
		fmt.Fprintf(os.Stderr, "train: telemetry server lingering %s for a final scrape\n", p.linger)
		time.Sleep(p.linger)
	}

	if agg.SolvedCount > 0 {
		fmt.Fprintf(os.Stderr, "train: verdict solved members=%d/%d\n", agg.SolvedCount, agg.Trials)
		return 0
	}
	fmt.Fprintf(os.Stderr, "train: verdict impossible members=0/%d\n", agg.Trials)
	return exitImpossible
}
