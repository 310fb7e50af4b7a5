package oselm

import "math"

// NumericHealth is a point-in-time snapshot of the quantities that drift
// when OS-ELM learning destabilizes (§3.3): β magnitude/spectral norm for
// Lipschitz runaway, and the P matrix's diagonal for loss of adaptation
// capacity or positive-definiteness. The learning-dynamics telemetry
// publishes these as learn_* gauges at every θ2 sync.
type NumericHealth struct {
	// BetaNorm is ‖β‖F, the cheap magnitude signal.
	BetaNorm float64
	// BetaSigmaMax is σmax(β), the Lipschitz factor the watchdog bounds.
	BetaSigmaMax float64
	// PTrace is trace(P)/Ñ — the mean eigenvalue of P (GainTrace); zero
	// before initial training.
	PTrace float64
	// PCondProxy is max|diag(P)| / min|diag(P)|, a free condition-number
	// proxy. A non-positive diagonal entry (P losing positive-definiteness,
	// the classic RLS failure mode) reports math.MaxFloat64 — deliberately
	// finite so the gauge trips a threshold rule, not the NaN/Inf rule.
	// Zero before initial training.
	PCondProxy float64
}

// Health computes the numeric-health snapshot. Cost is one pass over β
// plus a power iteration for σmax and a pass over diag(P) — cheap enough
// to run at every θ2 sync, too costly for every sequential update.
func (m *Model) Health() NumericHealth {
	h := NumericHealth{
		BetaNorm:     m.Beta.FrobeniusNorm(),
		BetaSigmaMax: m.BetaSigmaMax(),
	}
	if m.P == nil {
		return h
	}
	h.PTrace = m.GainTrace()
	h.PCondProxy = DiagCondProxy(m.P.Rows(), func(i int) float64 { return m.P.At(i, i) })
	return h
}

// DiagCondProxy returns NumericHealth.PCondProxy for an n×n matrix whose
// diagonal entries diag returns: max|d|/min|d|, or math.MaxFloat64 when
// an entry is non-positive or zero.
func DiagCondProxy(n int, diag func(i int) float64) float64 {
	minAbs, maxAbs := math.Inf(1), 0.0
	degenerate := false
	for i := 0; i < n; i++ {
		d := diag(i)
		if d <= 0 {
			degenerate = true
		}
		a := math.Abs(d)
		if a < minAbs {
			minAbs = a
		}
		if a > maxAbs {
			maxAbs = a
		}
	}
	if degenerate || minAbs == 0 {
		return math.MaxFloat64
	}
	return maxAbs / minAbs
}
