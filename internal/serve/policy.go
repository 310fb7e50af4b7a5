package serve

import (
	"math"
	"sync"
	"time"

	"oselmrl/internal/elm"
	"oselmrl/internal/qnet"
)

// Policy is one immutable loaded checkpoint: the reconstructed agent plus
// provenance, with a pool of per-goroutine evaluators over its frozen θ1.
// The service swaps the current *Policy atomically on hot-reload; requests
// that already hold the old pointer finish against the old weights, so a
// reload never fails or corrupts an in-flight prediction.
type Policy struct {
	agent      *qnet.Agent
	generation int
	source     string
	loadedAt   time.Time
	evals      sync.Pool
	// finite reports whether every θ1 weight the evaluator reads is
	// finite; it decides whose fault a non-finite Q value is (bestAction).
	finite bool
}

func newPolicy(agent *qnet.Agent, source string, generation int) *Policy {
	p := &Policy{
		agent:      agent,
		generation: generation,
		source:     source,
		loadedAt:   time.Now(),
		finite:     weightsFinite(agent.Theta1().Model),
	}
	p.evals.New = func() any { return agent.NewEvaluator() }
	return p
}

// weightsFinite reports whether m's α, b and β hold no NaN or ±Inf.
func weightsFinite(m *elm.Model) bool {
	for _, ws := range [][]float64{m.Alpha.RawData(), m.Bias, m.Beta.RawData()} {
		for _, w := range ws {
			if math.IsNaN(w) || math.IsInf(w, 0) {
				return false
			}
		}
	}
	return true
}

// Generation is the reload counter (1 for the initially loaded policy).
func (p *Policy) Generation() int { return p.generation }

// acquire borrows an evaluator; return it with release. Evaluators are
// bound to this policy's model and must never outlive the borrow.
func (p *Policy) acquire() *qnet.Evaluator   { return p.evals.Get().(*qnet.Evaluator) }
func (p *Policy) release(ev *qnet.Evaluator) { p.evals.Put(ev) }

// Info describes the loaded checkpoint — the /v1/info payload.
type Info struct {
	// Source is the checkpoint path, Generation the reload count and
	// LoadedAt the load wall time.
	Source     string    `json:"source"`
	Generation int       `json:"generation"`
	LoadedAt   time.Time `json:"loaded_at"`
	// Design, ObservationSize, ActionCount and Hidden describe the policy
	// network; Updates is θ1's sequential-update count at save time.
	Design          string `json:"design"`
	ObservationSize int    `json:"observation_size"`
	ActionCount     int    `json:"action_count"`
	Hidden          int    `json:"hidden"`
	Updates         int    `json:"updates"`
}

// Info returns the checkpoint description.
func (p *Policy) Info() Info {
	cfg := p.agent.Config()
	return Info{
		Source:          p.source,
		Generation:      p.generation,
		LoadedAt:        p.loadedAt,
		Design:          p.agent.Name(),
		ObservationSize: cfg.ObservationSize,
		ActionCount:     cfg.ActionCount,
		Hidden:          cfg.Hidden,
		Updates:         p.agent.Theta1().Updates(),
	}
}
