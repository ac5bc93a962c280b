// Package dist provides the latency distributions behind the WARS model:
// the primitive families the paper samples from (exponential, Pareto,
// uniform, normal, point mass), the Pareto-body + exponential-tail mixtures
// of Table 3, and the published percentile summaries of Tables 1 and 2 that
// internal/fit re-derives those mixtures from.
//
// All sampling is driven by an explicit *rng.RNG so that simulations are
// reproducible; distribution values are immutable after construction and
// safe for concurrent sampling with distinct generators.
package dist

import (
	"fmt"
	"math"

	"pbs/internal/rng"
)

// Dist is a one-dimensional latency distribution (milliseconds by
// convention). Implementations are immutable: Sample may be called
// concurrently from multiple goroutines as long as each goroutine uses its
// own generator.
type Dist interface {
	// Sample draws one value.
	Sample(r *rng.RNG) float64
	// Mean returns the expectation (possibly +Inf).
	Mean() float64
	// Quantile returns the q-quantile for q in [0, 1].
	Quantile(q float64) float64
	// CDF returns P(X <= x).
	CDF(x float64) float64
}

func checkQuantile(q float64) {
	if q < 0 || q > 1 || math.IsNaN(q) {
		panic(fmt.Sprintf("dist: quantile %v outside [0, 1]", q))
	}
}

// Point is a deterministic (point-mass) delay.
type Point struct {
	V float64
}

func (p Point) Sample(*rng.RNG) float64 { return p.V }
func (p Point) Mean() float64           { return p.V }
func (p Point) Quantile(q float64) float64 {
	checkQuantile(q)
	return p.V
}
func (p Point) CDF(x float64) float64 {
	if x >= p.V {
		return 1
	}
	return 0
}

// Exponential is the exponential distribution with rate Lambda.
type Exponential struct {
	Lambda float64
}

// NewExponential returns an exponential distribution with the given rate.
// Panics if lambda <= 0.
func NewExponential(lambda float64) Exponential {
	if lambda <= 0 {
		panic("dist: exponential rate must be positive")
	}
	return Exponential{Lambda: lambda}
}

func (e Exponential) Sample(r *rng.RNG) float64 { return -math.Log(r.Float64Open()) / e.Lambda }
func (e Exponential) Mean() float64             { return 1 / e.Lambda }
func (e Exponential) Quantile(q float64) float64 {
	checkQuantile(q)
	return -math.Log1p(-q) / e.Lambda
}
func (e Exponential) CDF(x float64) float64 {
	if x <= 0 {
		return 0
	}
	return -math.Expm1(-e.Lambda * x)
}

// Pareto is the (type I) Pareto distribution with scale Xm and shape Alpha.
type Pareto struct {
	Xm, Alpha float64
}

// NewPareto returns a Pareto distribution. Panics unless xm > 0 and
// alpha > 0.
func NewPareto(xm, alpha float64) Pareto {
	if xm <= 0 || alpha <= 0 {
		panic("dist: Pareto needs xm > 0 and alpha > 0")
	}
	return Pareto{Xm: xm, Alpha: alpha}
}

// finite clamps heavy-tail overflow to the largest representable latency:
// Pareto draws with alpha << 1 can exceed float64 range, and downstream
// order statistics must never see +Inf.
func finite(v float64) float64 {
	if math.IsInf(v, 1) {
		return math.MaxFloat64
	}
	return v
}

// Sample is the inverse-CDF draw Xm·u^(−1/α), computed as Xm·exp(log(u)/−α):
// the same value as Quantile(1−u) to within rounding, at a fraction of
// math.Pow's cost (every Table 3 mixture draws its body from here).
func (p Pareto) Sample(r *rng.RNG) float64 {
	return finite(p.Xm * math.Exp(math.Log(r.Float64Open())/-p.Alpha))
}
func (p Pareto) Mean() float64 {
	if p.Alpha <= 1 {
		return math.Inf(1)
	}
	return p.Alpha * p.Xm / (p.Alpha - 1)
}
func (p Pareto) Quantile(q float64) float64 {
	checkQuantile(q)
	if q == 1 {
		return math.Inf(1)
	}
	return finite(p.Xm * math.Pow(1-q, -1/p.Alpha))
}
func (p Pareto) CDF(x float64) float64 {
	if x <= p.Xm {
		return 0
	}
	return 1 - math.Pow(p.Xm/x, p.Alpha)
}

// Uniform is the continuous uniform distribution on [Lo, Hi].
type Uniform struct {
	Lo, Hi float64
}

// NewUniform returns a uniform distribution on [lo, hi]. Panics if hi < lo.
func NewUniform(lo, hi float64) Uniform {
	if hi < lo {
		panic("dist: uniform needs hi >= lo")
	}
	return Uniform{Lo: lo, Hi: hi}
}

func (u Uniform) Sample(r *rng.RNG) float64 { return u.Lo + (u.Hi-u.Lo)*r.Float64() }
func (u Uniform) Mean() float64             { return (u.Lo + u.Hi) / 2 }
func (u Uniform) Quantile(q float64) float64 {
	checkQuantile(q)
	return u.Lo + (u.Hi-u.Lo)*q
}
func (u Uniform) CDF(x float64) float64 {
	switch {
	case x <= u.Lo:
		return 0
	case x >= u.Hi:
		return 1
	default:
		return (x - u.Lo) / (u.Hi - u.Lo)
	}
}

// Normal is the normal distribution with mean Mu and standard deviation
// Sigma. Latencies are non-negative but the distribution is not truncated;
// callers that need non-negativity (e.g. think times) clamp samples.
type Normal struct {
	Mu, Sigma float64
}

// NewNormal returns a normal distribution. Panics if sigma <= 0.
func NewNormal(mu, sigma float64) Normal {
	if sigma <= 0 {
		panic("dist: normal needs sigma > 0")
	}
	return Normal{Mu: mu, Sigma: sigma}
}

func (n Normal) Sample(r *rng.RNG) float64 { return n.Mu + n.Sigma*r.NormFloat64() }
func (n Normal) Mean() float64             { return n.Mu }
func (n Normal) Quantile(q float64) float64 {
	checkQuantile(q)
	switch q {
	case 0:
		return math.Inf(-1)
	case 1:
		return math.Inf(1)
	}
	return n.Mu + n.Sigma*math.Sqrt2*math.Erfinv(2*q-1)
}
func (n Normal) CDF(x float64) float64 {
	return 0.5 * math.Erfc((n.Mu-x)/(n.Sigma*math.Sqrt2))
}

// Component is one weighted member of a Mixture. Weights need not sum to 1;
// NewMixture normalizes.
type Component struct {
	Weight float64
	D      Dist
}

// Mixture is a finite mixture distribution.
type Mixture struct {
	comps []Component
	// cum[i] is the cumulative normalized weight through component i.
	cum  []float64
	mean float64
}

// NewMixture returns the mixture of the given components. Panics when no
// component is given, a weight is negative, a distribution is nil, or all
// weights are zero.
func NewMixture(comps ...Component) *Mixture {
	if len(comps) == 0 {
		panic("dist: mixture needs at least one component")
	}
	var total float64
	for _, c := range comps {
		if c.D == nil {
			panic("dist: mixture component has nil distribution")
		}
		if c.Weight < 0 || math.IsNaN(c.Weight) {
			panic("dist: mixture weights must be non-negative")
		}
		total += c.Weight
	}
	if total <= 0 {
		panic("dist: mixture weights sum to zero")
	}
	m := &Mixture{
		comps: append([]Component(nil), comps...),
		cum:   make([]float64, len(comps)),
	}
	var cum float64
	for i, c := range comps {
		cum += c.Weight / total
		m.cum[i] = cum
		m.mean += c.Weight / total * c.D.Mean()
	}
	m.cum[len(m.cum)-1] = 1 // guard against rounding
	return m
}

func (m *Mixture) Sample(r *rng.RNG) float64 {
	u := r.Float64()
	for i, c := range m.cum {
		if u < c {
			return m.comps[i].D.Sample(r)
		}
	}
	return m.comps[len(m.comps)-1].D.Sample(r)
}

func (m *Mixture) Mean() float64 { return m.mean }

func (m *Mixture) CDF(x float64) float64 {
	var f, prev float64
	for i, c := range m.comps {
		w := m.cum[i] - prev
		prev = m.cum[i]
		f += w * c.D.CDF(x)
	}
	return f
}

// Quantile inverts the mixture CDF by bisection. The root is bracketed by
// the smallest and largest component quantiles (the mixture CDF at those
// points straddles q).
func (m *Mixture) Quantile(q float64) float64 {
	checkQuantile(q)
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range m.comps {
		v := c.D.Quantile(q)
		lo = math.Min(lo, v)
		hi = math.Max(hi, v)
	}
	if lo == hi || math.IsInf(hi, 1) {
		return hi
	}
	for i := 0; i < 200 && hi-lo > 1e-12*(1+math.Abs(hi)); i++ {
		mid := (lo + hi) / 2
		if m.CDF(mid) < q {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// LatencyModel bundles the four WARS one-way delay distributions: W (write
// dissemination), A (write acknowledgment), R (read request), S (read
// response).
type LatencyModel struct {
	Name       string
	W, A, R, S Dist
}
