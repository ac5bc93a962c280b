package main

import (
	"fmt"
	"math"

	"pbs/internal/rng"
	"pbs/internal/workload"
)

// spec is one workload: a cluster shape and a traffic mix.
type spec struct {
	name string
	why  string
	// keys is the keyspace size; zipf is the Zipf exponent of key
	// popularity (0 = uniform).
	keys int
	zipf float64
	// readFrac is the share of ops that are reads.
	readFrac float64
	// r, w are the quorums on a 3-node, N=3 cluster.
	r, w int
	// durable runs every node on the storage engine with its default
	// fsync policy and a 1 MiB memtable.
	durable bool
	// injected adds the paper's LNKD-DISK WARS delays (scaled by
	// injectScale) to every fan-out leg and builds the matching predictor
	// during set-up.
	injected bool
	// setups is how many times a run sets the cluster up; setup_s is
	// their median.
	setups int
}

const (
	valueBytes      = 100
	injectScale     = 4
	predictorTrials = 1_000_000
	memtableBytes   = 1 << 20
	batchKeys       = 64
)

var specs = []spec{
	{
		name: "yammer-mem",
		why:  "read-heavy Zipf traffic on in-memory strict quorums: client codec, mux, coordinator read path and kvstore, no storage",
		keys: 100_000, zipf: 0.99, readFrac: workload.YammerMix().ReadFraction,
		r: 2, w: 2, setups: 3,
	},
	{
		name: "linkedin-durable",
		why:  "write-heavy uniform traffic on the durable engine: WAL group commit per ack, flushes, compactions and SSTable reads",
		keys: 20_000, readFrac: workload.LinkedInMix().ReadFraction,
		r: 2, w: 2, durable: true, setups: 3,
	},
	{
		name: "lnkd-disk-partial",
		why:  "the paper's R=W=1 experiment with injected LNKD-DISK delays: fan-out timing and measured staleness against the WARS prediction",
		keys: 1_000, zipf: 0.99, readFrac: workload.LinkedInMix().ReadFraction,
		r: 1, w: 1, injected: true, setups: 3,
	},
}

func findSpec(name string) (spec, error) {
	for _, s := range specs {
		if s.name == name {
			return s, nil
		}
	}
	return spec{}, fmt.Errorf("unknown workload %q", name)
}

// keyspace holds the precomputed keys and values of one run. Every value
// starts with its key and '#', so a read can be checked for belonging to
// the key it asked for without allocating.
type keyspace struct {
	names  []string
	values []string
	// cdf is the cumulative popularity by rank; perm maps a rank to a key
	// index, so the seed also decides which keys are hot. nil cdf means
	// uniform.
	cdf  []float64
	perm []int
}

func newKeyspace(sp spec, seed uint64) *keyspace {
	r := rng.NewStream(seed, 0)
	ks := &keyspace{names: make([]string, sp.keys), values: make([]string, sp.keys)}
	filler := make([]byte, valueBytes)
	for i := range ks.names {
		ks.names[i] = fmt.Sprintf("k%07d", i)
		for j := range filler {
			filler[j] = 'a' + byte(r.Intn(26))
		}
		v := ks.names[i] + "#" + string(filler)
		ks.values[i] = v[:valueBytes]
	}
	if sp.zipf > 0 {
		ks.cdf = make([]float64, sp.keys)
		var total float64
		for i := range ks.cdf {
			total += 1 / math.Pow(float64(i+1), sp.zipf)
			ks.cdf[i] = total
		}
		for i := range ks.cdf {
			ks.cdf[i] /= total
		}
		ks.perm = r.Perm(sp.keys)
	}
	return ks
}

// draw picks a key index by the workload's popularity distribution.
func (ks *keyspace) draw(r *rng.RNG) int {
	if ks.cdf == nil {
		return r.Intn(len(ks.names))
	}
	u := r.Float64()
	lo, hi := 0, len(ks.cdf)-1
	for lo < hi {
		mid := (lo + hi) / 2
		if ks.cdf[mid] < u {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return ks.perm[lo]
}

// belongs reports whether value was written for key: values encode their
// key as a "key#" prefix.
func belongs(key, value string) bool {
	return len(value) > len(key) && value[len(key)] == '#' && value[:len(key)] == key
}
