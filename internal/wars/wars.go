// Package wars implements the paper's WARS model of Dynamo-style operation
// (Section 4.1) and the Monte Carlo methods used to solve it (Section 5.1).
//
// For a write followed by a read t seconds after commit, each of the N
// replicas sees four one-way message delays:
//
//	W — coordinator → replica write propagation
//	A — replica → coordinator write acknowledgment
//	R — coordinator → replica read request
//	S — replica → coordinator read response
//
// The write commits at wt, the W-th smallest value of {W[i]+A[i]}. The read
// returns the first R responses ordered by R[i]+S[i]; a response from
// replica i is stale when the read request reached the replica before the
// write did: wt + t + R[i] < W[i]. The read is consistent when any of the
// first R responses is fresh.
//
// Each trial therefore yields a single consistency threshold
//
//	t* = min over first R responses of (W[i] - R[i]) - wt
//
// such that the read is consistent iff t >= t*. The t-visibility curve is
// the empirical CDF of t* over trials, which this package computes together
// with read/write operation latencies (the R-th/W-th order statistics the
// paper reports in Table 4 and Figure 5).
package wars

import (
	"fmt"
	"math"
	"sort"

	"pbs/internal/dist"
	"pbs/internal/rng"
	"pbs/internal/stats"
)

// Trial holds the per-replica one-way delays for one write/read pair.
// Slices have length N and are reused across trials to avoid allocation.
type Trial struct {
	W, A, R, S []float64
}

// newTrial allocates a Trial for n replicas.
func newTrial(n int) *Trial {
	return &Trial{
		W: make([]float64, n),
		A: make([]float64, n),
		R: make([]float64, n),
		S: make([]float64, n),
	}
}

// Scenario generates WARS trials. Implementations decide how delays vary
// across replicas (IID cluster, WAN topology, proxied coordinator, ...).
//
// Fill must be safe for concurrent use by multiple goroutines with distinct
// generators: the simulation engine shards trials across workers, each
// calling Fill with its own *rng.RNG. Scenarios should therefore be
// immutable after construction, keeping all per-trial state in r and tr.
type Scenario interface {
	// Name identifies the scenario in reports.
	Name() string
	// Replicas returns N.
	Replicas() int
	// Fill populates tr with one trial's delays.
	Fill(r *rng.RNG, tr *Trial)
}

// IID is the simplest scenario: every replica independently draws its four
// delays from the same LatencyModel, as the paper assumes for the LNKD-SSD,
// LNKD-DISK, and YMMR fits (Section 5.5's IID assumption).
type IID struct {
	N     int
	Model dist.LatencyModel
}

// NewIID returns an IID scenario with n replicas. Panics if n < 1 or the
// model has nil distributions.
func NewIID(n int, model dist.LatencyModel) IID {
	if n < 1 {
		panic("wars: scenario needs at least one replica")
	}
	for _, d := range []dist.Dist{model.W, model.A, model.R, model.S} {
		if d == nil {
			panic("wars: latency model has nil distribution")
		}
	}
	return IID{N: n, Model: model}
}

func (s IID) Name() string { return fmt.Sprintf("%s(N=%d)", s.Model.Name, s.N) }

func (s IID) Replicas() int { return s.N }

func (s IID) Fill(r *rng.RNG, tr *Trial) {
	for i := 0; i < s.N; i++ {
		tr.W[i] = s.Model.W.Sample(r)
		tr.A[i] = s.Model.A.Sample(r)
		tr.R[i] = s.Model.R.Sample(r)
		tr.S[i] = s.Model.S.Sample(r)
	}
}

// WAN models the paper's wide-area scenario (Section 5.5): each replica
// lives in its own datacenter; each operation originates at a uniformly
// random datacenter ("reads and writes originate in a random datacenter"),
// the co-located replica is reached with local delays, and every other
// one-way message is delayed by Delay ms (75 in the paper) on top of the
// local model. The write and read coordinators are drawn independently, so
// a read only wins locality when it originates in the writing client's
// datacenter.
type WAN struct {
	N     int
	Local dist.LatencyModel
	Delay float64
}

// NewWAN returns the paper's WAN scenario over n datacenter-replicas.
func NewWAN(n int, local dist.LatencyModel, delay float64) WAN {
	if n < 1 {
		panic("wars: scenario needs at least one replica")
	}
	if delay < 0 {
		panic("wars: WAN delay must be non-negative")
	}
	return WAN{N: n, Local: local, Delay: delay}
}

func (s WAN) Name() string { return fmt.Sprintf("WAN(N=%d, +%gms)", s.N, s.Delay) }

func (s WAN) Replicas() int { return s.N }

func (s WAN) Fill(r *rng.RNG, tr *Trial) {
	writeDC := r.Intn(s.N)
	readDC := r.Intn(s.N)
	for i := 0; i < s.N; i++ {
		var wExtra, rExtra float64
		if i != writeDC {
			wExtra = s.Delay
		}
		if i != readDC {
			rExtra = s.Delay
		}
		tr.W[i] = s.Local.W.Sample(r) + wExtra
		tr.A[i] = s.Local.A.Sample(r) + wExtra
		tr.R[i] = s.Local.R.Sample(r) + rExtra
		tr.S[i] = s.Local.S.Sample(r) + rExtra
	}
}

// Proxied wraps a scenario to model Section 4.2's "proxying operations":
// the coordinator itself stores a replica, so one replica's messages are
// local. LocalDelay is the residual local query-processing delay applied to
// that replica's four messages (0 models an ideal local replica, making a
// read to R nodes behave like a read to R-1 remote nodes).
type Proxied struct {
	Base       Scenario
	LocalDelay float64
}

func (s Proxied) Name() string { return fmt.Sprintf("proxied(%s)", s.Base.Name()) }

func (s Proxied) Replicas() int { return s.Base.Replicas() }

func (s Proxied) Fill(r *rng.RNG, tr *Trial) {
	s.Base.Fill(r, tr)
	// The coordinator's own replica: uniformly random identity.
	i := r.Intn(s.Base.Replicas())
	tr.W[i] = s.LocalDelay
	tr.A[i] = s.LocalDelay
	tr.R[i] = s.LocalDelay
	tr.S[i] = s.LocalDelay
}

// Config is the per-operation quorum configuration applied to a scenario.
type Config struct {
	R, W int
}

// Run is the outcome of a Monte Carlo simulation: the sorted consistency
// thresholds and sorted operation latencies. All durations are in the same
// unit as the scenario's distributions (milliseconds for the production
// fits).
type Run struct {
	ScenarioName string
	N, R, W      int
	Trials       int

	thresholds []float64 // sorted; read at time t is consistent iff t >= t*
	readLat    []float64 // sorted R-th order statistic of R+S
	writeLat   []float64 // sorted W-th order statistic of W+A
}

// PConsistent returns the estimated probability that a read issued t after
// commit returns the committed (or newer) value: the fraction of trials
// whose threshold is <= t. Thresholds equal to t count as consistent (the
// paper's predicate uses <), so the binary search finds the upper bound of
// t rather than the lower.
func (run *Run) PConsistent(t float64) float64 {
	n := sort.Search(len(run.thresholds), func(i int) bool { return run.thresholds[i] > t })
	return float64(n) / float64(len(run.thresholds))
}

// PStale returns 1 - PConsistent(t), the pst of Definition 3.
func (run *Run) PStale(t float64) float64 { return 1 - run.PConsistent(t) }

// PKTConsistent returns the probability that a read issued t after the
// latest commit returns a value within k versions of that latest value —
// the paper's ⟨k, t⟩-staleness (Section 3.3, applied in Section 6.1's
// SLAs). Reading a value more than k versions stale requires the read to
// miss each of the k newest versions; the paper's closed form treats the
// misses as independent, giving P(violation) = pst(t)^k. k <= 1 reduces to
// plain t-visibility.
func (run *Run) PKTConsistent(k int, t float64) float64 {
	p := run.PStale(t)
	if k <= 1 {
		return 1 - p
	}
	return 1 - math.Pow(p, float64(k))
}

// TVisibility returns the smallest t at which the probability of
// consistency is at least p (the "t-visibility for pst = 1-p" the paper
// reports in Table 4). Thresholds below zero are clamped to zero: a read
// cannot start before the write commits. Returns +Inf when even the largest
// observed threshold cannot reach p.
func (run *Run) TVisibility(p float64) float64 {
	if p <= 0 {
		return 0
	}
	if p > 1 {
		panic("wars: probability must be at most 1")
	}
	// k is the fewest trials whose share reaches p, computed in
	// PConsistent's own arithmetic (k/n >= p) so that
	// PConsistent(TVisibility(p)) >= p holds exactly: ceil(p·n) can land
	// one off either way when p·n is not exact in floating point.
	n := len(run.thresholds)
	k := int(math.Ceil(p * float64(n)))
	for k > 1 && float64(k-1)/float64(n) >= p {
		k--
	}
	for k < n && float64(k)/float64(n) < p {
		k++
	}
	v := run.thresholds[k-1]
	if v < 0 {
		return 0
	}
	return v
}

// ReadLatency returns the q-quantile (0..1) of read operation latency.
func (run *Run) ReadLatency(q float64) float64 {
	return stats.Quantile(run.readLat, q)
}

// WriteLatency returns the q-quantile (0..1) of write operation latency.
func (run *Run) WriteLatency(q float64) float64 {
	return stats.Quantile(run.writeLat, q)
}

// ReadLatencies returns the sorted read latency samples (shared slice).
func (run *Run) ReadLatencies() []float64 { return run.readLat }

// WriteLatencies returns the sorted write latency samples (shared slice).
func (run *Run) WriteLatencies() []float64 { return run.writeLat }

// Thresholds returns the sorted consistency thresholds (shared slice).
func (run *Run) Thresholds() []float64 { return run.thresholds }

// Curve samples PConsistent over the given times, producing a t-visibility
// curve like Figures 4, 6 and 7.
func (run *Run) Curve(ts []float64) []float64 {
	out := make([]float64, len(ts))
	for i, t := range ts {
		out[i] = run.PConsistent(t)
	}
	return out
}
