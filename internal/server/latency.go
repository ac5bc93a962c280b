package server

// WARS latency injection. The conformance story of this package is that a
// loopback cluster must reproduce the paper's production conditions: each
// coordinated operation draws per-replica one-way delays from a
// dist.LatencyModel — W (write dissemination), A (write ack), R (read
// request), S (read response) — and realizes them as timers on the
// coordinator's fan-out legs (fanout.go): the request delay (W or R) holds
// the leg back before it enters its peer's worker queue, and the response
// delay (A or S) holds the leg's outcome back after the internal RPC
// returns. That reproduces the WARS arrival times at both ends while
// keeping replicas and the transport latency-agnostic, and the legs of one
// operation overlap without a goroutine or a sleep per leg.

import (
	"sync"
	"time"

	"pbs/internal/dist"
	"pbs/internal/rng"
)

// injector samples WARS delays for coordinated operations. It is safe for
// concurrent use; a nil injector injects nothing.
type injector struct {
	model dist.LatencyModel

	mu sync.Mutex
	r  *rng.RNG
}

// newInjector builds an injector for the scaled model. Returns nil when
// model is nil (no injected latency — the configuration used for raw
// throughput benchmarks).
func newInjector(model *dist.LatencyModel, scale float64, seed uint64) *injector {
	if model == nil {
		return nil
	}
	m := dist.ScaleModel(*model, scale)
	return &injector{model: m, r: rng.New(seed)}
}

// writeLeg samples one replica's write-propagation (pre) and ack (post)
// delays.
func (in *injector) writeLeg() (pre, post time.Duration) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	w, a := in.model.W.Sample(in.r), in.model.A.Sample(in.r)
	in.mu.Unlock()
	return msDuration(w), msDuration(a)
}

// readLeg samples one replica's read-request (pre) and read-response
// (post) delays.
func (in *injector) readLeg() (pre, post time.Duration) {
	if in == nil {
		return 0, 0
	}
	in.mu.Lock()
	r, s := in.model.R.Sample(in.r), in.model.S.Sample(in.r)
	in.mu.Unlock()
	return msDuration(r), msDuration(s)
}

func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

func durationMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
