package harness

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"runtime"
	"testing"

	"oselmrl/internal/env"
	"oselmrl/internal/qnet"
	"oselmrl/internal/timing"
)

// floatTrajectoryGolden pins what a float OS-ELM-L2-Lipschitz training run
// computes at 64 hidden units over 300 CartPole-v0 episodes: every
// episode length, the per-phase work counters and every bit of the final
// θ1 β and P. Refactors of the float Q path (kernels, buffers, loop
// shapes) must keep these digests; a changed digest means a changed
// trajectory, not just different timing.
var floatTrajectoryGolden = map[uint64]string{
	1: "cd205eed41a1a7fa70ea8a54adf957cb61a7edb309c16dde128ea0bb6cb45fb2",
	2: "d0d5b31063365d4f6dc7fff0e3523e825f507286dfe7819a2b7b5016d0c0a033",
}

func TestFloatTrajectoryGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The Go spec lets other architectures fuse x*y+z into one FMA and
		// math.Log has an amd64-only assembly version, so float
		// trajectories are only pinned on amd64 (ROADMAP item 2).
		t.Skipf("float trajectory goldens are recorded on amd64, not %s (ROADMAP item 2)", runtime.GOARCH)
	}
	for seed, want := range floatTrajectoryGolden {
		got := floatTrajectoryDigest(t, seed)
		if got != want {
			t.Errorf("seed %d: trajectory digest %s, want %s", seed, got, want)
		}
	}
}

// floatTrajectoryDigest trains OS-ELM-L2-Lipschitz at 64 units for a fixed
// 300 episodes (solve criterion out of reach) with a reset after 200, so
// the run covers initial training, sequential updates, θ2 syncs and one
// reinitialization, and hashes the outcome.
func floatTrajectoryDigest(t *testing.T, seed uint64) string {
	t.Helper()
	e := env.NewShaped(env.NewCartPoleV0(seed+100), env.RewardSurvival)
	a, err := NewAgent(DesignOSELML2Lipschitz, e.ObservationSize(), e.ActionCount(), 64, seed)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Defaults()
	cfg.MaxEpisodes = 300
	cfg.ResetAfter = 200
	cfg.SolveThreshold = 1e18
	res := Run(a, e, cfg)
	if res.Err != nil || res.Episodes != 300 {
		t.Fatalf("seed %d: run ended after %d episodes: %v", seed, res.Episodes, res.Err)
	}
	theta1 := a.(*qnet.Agent).Theta1()
	if !theta1.Initialized() {
		t.Fatalf("seed %d: θ1 never completed initial training after the reset", seed)
	}

	h := sha256.New()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, ep := range res.Curve {
		put(uint64(ep.Steps))
	}
	for _, p := range timing.AllPhases {
		put(uint64(res.Counters.Calls(p)))
		put(math.Float64bits(res.Counters.Work(p)))
	}
	for _, w := range theta1.Beta.RawData() {
		put(math.Float64bits(w))
	}
	for _, w := range theta1.P.RawData() {
		put(math.Float64bits(w))
	}
	return hex.EncodeToString(h.Sum(nil))
}
