package dist

// Time scaling. The live networked store (internal/server) injects sampled
// WARS delays as real wall-clock timers; for very fast latency models
// (LNKD-SSD's mean is 0.29 ms) real loopback and scheduler overhead would
// drown the injected signal. Scaling a model stretches its time axis by a
// constant factor so injected delays dominate measurement noise, while the
// WARS predictor sees the identical scaled model — the comparison between
// measured and predicted staleness stays exact.

import "pbs/internal/rng"

// Scaled multiplies every value drawn from D by K (a pure change of time
// unit: quantiles scale by K, CDF compresses by 1/K).
type Scaled struct {
	D Dist
	K float64
}

// NewScaled wraps d with scale factor k. Panics unless k > 0.
func NewScaled(d Dist, k float64) Scaled {
	if d == nil {
		panic("dist: scaled distribution needs a base distribution")
	}
	if k <= 0 {
		panic("dist: scale factor must be positive")
	}
	return Scaled{D: d, K: k}
}

func (s Scaled) Sample(r *rng.RNG) float64 { return finite(s.K * s.D.Sample(r)) }
func (s Scaled) Mean() float64             { return s.K * s.D.Mean() }
func (s Scaled) Quantile(q float64) float64 {
	v := s.K * s.D.Quantile(q)
	if q == 1 {
		return v
	}
	return finite(v)
}
func (s Scaled) CDF(x float64) float64 { return s.D.CDF(x / s.K) }

// ScaleModel returns a copy of m with all four WARS delay distributions
// scaled by k. k = 1 returns m unchanged.
func ScaleModel(m LatencyModel, k float64) LatencyModel {
	if k == 1 {
		return m
	}
	return LatencyModel{
		Name: m.Name,
		W:    NewScaled(m.W, k),
		A:    NewScaled(m.A, k),
		R:    NewScaled(m.R, k),
		S:    NewScaled(m.S, k),
	}
}
