package wars

// The Monte Carlo engine behind Simulate and SimulateBatch.
//
// Two ideas make it fast:
//
//  1. Parallel sharded simulation. Trials are split into fixed-size shards;
//     each shard derives an independent deterministic generator from the
//     caller's RNG via rng.NewStream(base, shardIndex) and writes its
//     results into a disjoint sub-slice of the output arrays. Workers pull
//     shards from a channel, so the numbers produced are bit-identical for
//     any worker count or scheduling order.
//
//  2. Shared-trial batch evaluation. One trial's N×4 delay matrix is
//     sampled once and scored against every quorum configuration in the
//     batch. Per trial the engine builds (a) the sorted W+A values, whose
//     (W-1)-th entry is the commit time for any write quorum W, (b) the
//     sorted R+S values, whose (R-1)-th entry is the read latency for any
//     read quorum R, and (c) the prefix minima of W[i]-R[i] in response
//     order, whose (R-1)-th entry gives the consistency threshold. Each
//     additional configuration then costs O(1), which collapses the
//     O(N²)-configuration sweeps in the SLA optimizer and the experiment
//     harness into a single sampling pass.
//
// The inner loop allocates nothing: all scratch is per-worker and the
// output slices are preallocated, so cost per trial is pure arithmetic plus
// two small insertion sorts (N is a replication factor, almost always
// <= 10, where insertion sort beats sort.Slice and its closure overhead).

import (
	"errors"
	"fmt"
	"runtime"
	"sync"

	"pbs/internal/rng"
)

// shardTrials is the number of trials per deterministic shard. It balances
// scheduling granularity (a 10k-trial run still fans out across ~10
// workers) against per-shard overhead (one RNG derivation).
const shardTrials = 1024

// Simulate runs the WARS Monte Carlo for the given scenario and quorum
// configuration, using all available cores. Results are deterministic in
// (scenario, cfg, trials, r) and independent of GOMAXPROCS.
func Simulate(sc Scenario, cfg Config, trials int, r *rng.RNG) (*Run, error) {
	return SimulateWorkers(sc, cfg, trials, r, 0)
}

// SimulateWorkers is Simulate with an explicit worker count. workers <= 0
// selects runtime.GOMAXPROCS(0). The worker count never changes the
// numbers produced, only how fast they arrive.
func SimulateWorkers(sc Scenario, cfg Config, trials int, r *rng.RNG, workers int) (*Run, error) {
	runs, err := SimulateBatchWorkers(sc, []Config{cfg}, trials, r, workers)
	if err != nil {
		return nil, err
	}
	return runs[0], nil
}

// SimulateBatch evaluates every quorum configuration against one shared
// sequence of sampled trials: trial i's delay matrix is identical for all
// configurations, so runs differ only in how the quorums slice it. This
// amortizes sampling — by far the dominant cost — across the whole batch,
// and makes cross-configuration comparisons exact rather than merely
// statistical. runs[i] corresponds to cfgs[i].
//
// SimulateBatch(sc, []Config{c}, trials, r)[0] is identical to
// Simulate(sc, c, trials, r) for RNGs in the same state: the sampled
// trials do not depend on the configuration set.
func SimulateBatch(sc Scenario, cfgs []Config, trials int, r *rng.RNG) ([]*Run, error) {
	return SimulateBatchWorkers(sc, cfgs, trials, r, 0)
}

// SimulateBatchWorkers is SimulateBatch with an explicit worker count
// (<= 0 selects runtime.GOMAXPROCS(0)).
func SimulateBatchWorkers(sc Scenario, cfgs []Config, trials int, r *rng.RNG, workers int) ([]*Run, error) {
	n := sc.Replicas()
	if len(cfgs) == 0 {
		return nil, errors.New("wars: batch needs at least one configuration")
	}
	for _, cfg := range cfgs {
		if cfg.R < 1 || cfg.R > n || cfg.W < 1 || cfg.W > n {
			return nil, fmt.Errorf("wars: invalid configuration R=%d W=%d for N=%d", cfg.R, cfg.W, n)
		}
	}
	if trials < 1 {
		return nil, errors.New("wars: trials must be positive")
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	name := sc.Name()
	runs := make([]*Run, len(cfgs))
	for i, cfg := range cfgs {
		runs[i] = &Run{
			ScenarioName: name,
			N:            n, R: cfg.R, W: cfg.W,
			Trials:     trials,
			thresholds: make([]float64, trials),
			readLat:    make([]float64, trials),
			writeLat:   make([]float64, trials),
		}
	}

	// base seeds every shard stream; drawing it advances r exactly once
	// regardless of trials or workers.
	base := r.Uint64()
	shards := (trials + shardTrials - 1) / shardTrials
	if workers > shards {
		workers = shards
	}

	if workers == 1 {
		ws := newScratch(n)
		for s := 0; s < shards; s++ {
			simulateShard(sc, cfgs, runs, s, trials, rng.NewStream(base, uint64(s)), ws)
		}
	} else {
		jobs := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				ws := newScratch(n)
				for s := range jobs {
					simulateShard(sc, cfgs, runs, s, trials, rng.NewStream(base, uint64(s)), ws)
				}
			}()
		}
		for s := 0; s < shards; s++ {
			jobs <- s
		}
		close(jobs)
		wg.Wait()
	}

	sortRuns(runs, workers)
	return runs, nil
}

// scratch is one worker's reusable per-trial state.
type scratch struct {
	tr *Trial
	// wa holds the trial's W+A values sorted ascending: wa[w-1] is the
	// commit time under write quorum w.
	wa []float64
	// rs holds the trial's R+S values sorted ascending: rs[r-1] is the read
	// latency under read quorum r.
	rs []float64
	// diff[k] is min over the k+1 fastest responses of W[i]-R[i]; the
	// consistency threshold under read quorum r is diff[r-1] - commit time.
	diff []float64
}

func newScratch(n int) *scratch {
	return &scratch{
		tr:   newTrial(n),
		wa:   make([]float64, n),
		rs:   make([]float64, n),
		diff: make([]float64, n),
	}
}

// simulateShard runs trials [s*shardTrials, min((s+1)*shardTrials, trials))
// and stores results at their global trial index, so the merged arrays are
// independent of shard execution order.
func simulateShard(sc Scenario, cfgs []Config, runs []*Run, s, trials int, r *rng.RNG, ws *scratch) {
	lo := s * shardTrials
	hi := lo + shardTrials
	if hi > trials {
		hi = trials
	}
	n := len(ws.wa)
	tr := ws.tr
	for i := lo; i < hi; i++ {
		sc.Fill(r, tr)
		for j := 0; j < n; j++ {
			// Insert R+S (carrying W-R alongside) and W+A into their sorted
			// positions. Stable insertion keeps equal keys in replica order.
			rv := tr.R[j] + tr.S[j]
			dv := tr.W[j] - tr.R[j]
			k := j
			for k > 0 && ws.rs[k-1] > rv {
				ws.rs[k] = ws.rs[k-1]
				ws.diff[k] = ws.diff[k-1]
				k--
			}
			ws.rs[k] = rv
			ws.diff[k] = dv

			wv := tr.W[j] + tr.A[j]
			k = j
			for k > 0 && ws.wa[k-1] > wv {
				ws.wa[k] = ws.wa[k-1]
				k--
			}
			ws.wa[k] = wv
		}
		// Prefix minima: diff[k] becomes the threshold numerator for R=k+1.
		for j := 1; j < n; j++ {
			if ws.diff[j] > ws.diff[j-1] {
				ws.diff[j] = ws.diff[j-1]
			}
		}
		for ci, cfg := range cfgs {
			run := runs[ci]
			wt := ws.wa[cfg.W-1]
			run.writeLat[i] = wt
			run.readLat[i] = ws.rs[cfg.R-1]
			run.thresholds[i] = ws.diff[cfg.R-1] - wt
		}
	}
}

// sortRuns sorts every run's three sample arrays on the worker pool, even
// for a single configuration (sortParallel splits long arrays across
// workers).
func sortRuns(runs []*Run, workers int) {
	xss := make([][]float64, 0, 3*len(runs))
	for _, run := range runs {
		xss = append(xss, run.thresholds, run.readLat, run.writeLat)
	}
	sortParallel(xss, workers)
}

// orderByValue fills order with 0..len(order)-1 sorted ascending by vals
// (stable insertion sort). For the small N of a replica set this beats
// sort.Slice and allocates nothing.
func orderByValue(order []int, vals []float64) {
	for j := range order {
		order[j] = j
		k := j
		for k > 0 && vals[order[k-1]] > vals[order[k]] {
			order[k-1], order[k] = order[k], order[k-1]
			k--
		}
	}
}
