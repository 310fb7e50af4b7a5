package oselmrl_test

import (
	"fmt"

	"oselmrl"
	"oselmrl/internal/activation"
	"oselmrl/internal/elm"
	"oselmrl/internal/fpga"
	"oselmrl/internal/mat"
	"oselmrl/internal/oselm"
	"oselmrl/internal/rng"
)

// The README quickstart: train the paper's headline design on CartPole-v0
// with the §4.1 hyperparameters and report the outcome.
func Example() {
	agent, err := oselmrl.NewAgent(oselmrl.DesignOSELML2Lipschitz, 4, 2, 32, 4)
	if err != nil {
		fmt.Println(err)
		return
	}
	task := oselmrl.NewCartPole(104)
	cfg := oselmrl.DefaultRunConfig()
	cfg.MaxEpisodes = 500
	res := oselmrl.Run(agent, task, cfg)
	fmt.Println("solved:", res.Solved)
	// Output:
	// solved: true
}

// ExampleNewAgent shows that the infeasible 256-unit FPGA design is
// rejected, reproducing Table 3's missing row.
func ExampleNewAgent() {
	_, err := oselmrl.NewAgent(oselmrl.DesignFPGA, 4, 2, 256, 1)
	fmt.Println(err != nil)
	// Output:
	// true
}

// ExampleModelBreakdown converts a run's work counters into the paper's
// Figure 5 execution-time phases.
func ExampleModelBreakdown() {
	agent, _ := oselmrl.NewAgent(oselmrl.DesignOSELM, 4, 2, 16, 1)
	cfg := oselmrl.DefaultRunConfig()
	cfg.MaxEpisodes = 50
	cfg.RecordCurve = false
	res := oselmrl.Run(agent, oselmrl.NewCartPole(101), cfg)
	bd := oselmrl.ModelBreakdown(oselmrl.DesignOSELM, res)
	fmt.Println(bd.Total() > 0)
	// Output:
	// true
}

// ExampleModel_SeqTrainOne demonstrates the paper's central machinery: an
// OS-ELM learns a linear map from an initial chunk plus rank-1 sequential
// updates, converging to the same solution a batch solve would give.
func ExampleModel_SeqTrainOne() {
	r := rng.New(7)
	base := elm.NewModel(1, 20, 1, activation.Sigmoid, r, elm.DefaultOptions())
	m := oselm.New(base, 0.01)

	// Initial training (Eq. 8) on 20 samples of y = 2x.
	x := mat.Zeros(20, 1)
	y := mat.Zeros(20, 1)
	for i := 0; i < 20; i++ {
		v := r.Uniform(-1, 1)
		x.Set(i, 0, v)
		y.Set(i, 0, 2*v)
	}
	if err := m.InitTrain(x, y); err != nil {
		fmt.Println(err)
		return
	}
	// Sequential training (Eq. 5, k = 1) on a further stream.
	for i := 0; i < 500; i++ {
		v := r.Uniform(-1, 1)
		if err := m.SeqTrainOne([]float64{v}, []float64{2 * v}); err != nil {
			fmt.Println(err)
			return
		}
	}
	pred := m.PredictOne([]float64{0.25})[0]
	fmt.Printf("f(0.25) = %.1f\n", pred)
	// Output:
	// f(0.25) = 0.5
}

// ExampleCore shows the bit-accurate fixed-point datapath with its cycle
// accounting — one seq_train invocation at 64 hidden units costs exactly
// the cycles the paper's single-MAC design would spend.
func ExampleCore() {
	core := fpga.NewCore(5, 64, 1, fpga.DefaultCycleModel())
	seq := core.KernelCosts()[fpga.KernelSeqTrain]
	fmt.Println("seq_train cycles:", seq)
	fmt.Printf("at 125 MHz: %.1f us\n", float64(seq)/125)
	// Output:
	// seq_train cycles: 17521
	// at 125 MHz: 140.2 us
}

// ExampleNewAgentQ selects the FPGA datapath's Qm.f precision through
// the facade. Moving the binary point changes the quantization grid —
// and nothing else: the 32-bit word keeps storage, cycle counts and the
// Table 3 resources identical across formats.
func ExampleNewAgentQ() {
	for _, q := range []oselmrl.QFormat{oselmrl.Q16, oselmrl.Q20, oselmrl.Q24} {
		agent, err := oselmrl.NewAgentQ(oselmrl.DesignFPGA, 4, 2, 64, 1, q)
		if err != nil {
			fmt.Println(err)
			return
		}
		core := agent.(*fpga.Agent).Core()
		fmt.Printf("%s: resolution %.1e, max %.6g, seq_train cycles %d\n",
			q, q.Resolution(), q.MaxValue(), core.KernelCosts()[fpga.KernelSeqTrain])
	}
	// Output:
	// Q16: resolution 1.5e-05, max 32768, seq_train cycles 17521
	// Q20: resolution 9.5e-07, max 2048, seq_train cycles 17521
	// Q24: resolution 6.0e-08, max 128, seq_train cycles 17521
}

// ExampleEstimateResources reproduces a row of the paper's Table 3.
func ExampleEstimateResources() {
	u := fpga.EstimateResources(5, 64)
	bram, dsp, _, _ := u.Percent(fpga.XC7Z020)
	fmt.Printf("BRAM %.2f%% DSP %.2f%%\n", bram, dsp)
	// Output:
	// BRAM 11.43% DSP 1.82%
}
