// FPGA simulation: train the fixed-point (Q20) OS-ELM Q-Network on the
// simulated PYNQ-Z1 core, then report the resource utilization of the
// design, the datapath cycle budget, and the quantization error of the
// fixed-point model against its float twin.
//
// Run:
//
//	go run ./examples/fpgasim
package main

import (
	"fmt"

	"oselmrl/internal/env"
	"oselmrl/internal/fpga"
	"oselmrl/internal/harness"
	"oselmrl/internal/qnet"
	"oselmrl/internal/timing"
)

func main() {
	const hidden = 64

	// Resource check first — exactly what Vivado synthesis gates on.
	u := fpga.EstimateResources(5, hidden)
	fmt.Printf("Design: OS-ELM Q-Network core, %d hidden units, 32-bit Q20 fixed point\n", hidden)
	fmt.Printf("Target: %s\n", fpga.XC7Z020.Name)
	b, d, f, l := u.Percent(fpga.XC7Z020)
	fmt.Printf("Resources: BRAM %.2f%%  DSP %.2f%%  FF %.2f%%  LUT %.2f%%\n\n", b, d, f, l)

	costs := fpga.AnalyticKernelCosts(5, hidden, 1, fpga.DefaultCycleModel())
	p, s := costs[fpga.KernelPredict], costs[fpga.KernelSeqTrain]
	fmt.Printf("Cycle budget at 125 MHz: predict %d cycles (%.1f us), seq_train %d cycles (%.1f us)\n\n",
		p, float64(p)/125, s, float64(s)/125)

	cfg := qnet.DefaultConfig(qnet.VariantOSELML2Lipschitz, 4, 2, hidden)
	cfg.Seed = 4
	agent := fpga.MustNewAgent(cfg, fpga.DefaultCycleModel())
	task := env.NewShaped(env.NewCartPoleV0(104), env.RewardSurvival)
	runCfg := harness.Defaults()
	runCfg.MaxEpisodes = 8000
	runCfg.RecordCurve = false

	fmt.Println("Training the fixed-point agent on CartPole-v0 ...")
	res := harness.Run(agent, task, runCfg)
	if res.Solved {
		fmt.Printf("Solved in %d episodes (%d resets)\n", res.Episodes, res.Resets)
	} else {
		fmt.Printf("Not solved in %d episodes (%d resets) — the paper averages over\n", res.Episodes, res.Resets)
		fmt.Println("20 trials; success depends on initial weights (seed).")
	}

	bd := timing.ModelMixed(res.Counters, fpga.PhaseProfiles(), timing.CortexA9Init)
	fmt.Println("\nModelled execution-time breakdown (PL at 125 MHz, init on CPU):")
	fmt.Print(bd.Format())
	fmt.Printf("\nDatapath cycles consumed: %d (seq_train %.0f + predict_seq %.0f)\n",
		agent.Core().Cycles(),
		res.Counters.Work(timing.PhaseSeqTrain),
		res.Counters.Work(timing.PhasePredictSeq))
}
