package wars

import (
	"runtime"
	"sort"
	"testing"

	"pbs/internal/rng"
)

// sameRun fails unless a and b hold identical samples.
func sameRun(t *testing.T, label string, a, b *Run) {
	t.Helper()
	for name, pair := range map[string][2][]float64{
		"thresholds": {a.Thresholds(), b.Thresholds()},
		"readLat":    {a.ReadLatencies(), b.ReadLatencies()},
		"writeLat":   {a.WriteLatencies(), b.WriteLatencies()},
	} {
		x, y := pair[0], pair[1]
		if len(x) != len(y) {
			t.Fatalf("%s: %s length %d vs %d", label, name, len(x), len(y))
		}
		for i := range x {
			if x[i] != y[i] {
				t.Fatalf("%s: %s[%d] = %v vs %v", label, name, i, x[i], y[i])
			}
		}
	}
}

// TestSimulateWorkersDeterministic verifies the tentpole guarantee: for a
// fixed seed, every parallelism level produces bit-identical output. The
// trial count spans many shards with a ragged tail and is large enough for
// the radix sort to split buckets below its top digit, and the engine still
// allocates per shard, never per trial.
func TestSimulateWorkersDeterministic(t *testing.T) {
	sc := NewIID(5, expModel(10, 2))
	cfg := Config{R: 2, W: 2}
	const trials = 64*shardTrials + 17

	mk := func(workers int) *Run {
		run, err := SimulateWorkers(sc, cfg, trials, rng.New(321), workers)
		if err != nil {
			t.Fatal(err)
		}
		return run
	}
	serial := mk(1)
	for _, workers := range []int{2, 4, runtime.GOMAXPROCS(0)} {
		sameRun(t, "workers", serial, mk(workers))
	}
	const shards = (trials + shardTrials - 1) / shardTrials
	if allocs := testing.AllocsPerRun(2, func() { mk(2) }); allocs > 2*shards {
		t.Fatalf("%v allocations for %d trials in %d shards: the engine allocates per trial", allocs, trials, shards)
	}
}

// TestSimulateBatchMatchesIndividual verifies that batch evaluation is a
// pure amortization: every run in a batch is identical to a standalone
// Simulate from an RNG in the same state, regardless of the other
// configurations sharing the batch.
func TestSimulateBatchMatchesIndividual(t *testing.T) {
	sc := NewIID(4, expModel(8, 2))
	cfgs := []Config{{R: 1, W: 1}, {R: 2, W: 3}, {R: 4, W: 1}, {R: 2, W: 2}}
	const trials, seed = 20000, 99

	runs, err := SimulateBatch(sc, cfgs, trials, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		solo, err := Simulate(sc, cfg, trials, rng.New(seed))
		if err != nil {
			t.Fatal(err)
		}
		sameRun(t, "batch-vs-solo", runs[i], solo)
	}
}

// TestSimulateConcurrent drives the worker pool from concurrent callers so
// `go test -race` exercises the sharding and result-merge paths.
func TestSimulateConcurrent(t *testing.T) {
	sc := NewIID(3, expModel(10, 2))
	done := make(chan *Run, 4)
	for i := 0; i < 4; i++ {
		go func() {
			run, err := Simulate(sc, Config{R: 1, W: 1}, 2*shardTrials+5, rng.New(7))
			if err != nil {
				t.Error(err)
				done <- nil
				return
			}
			done <- run
		}()
	}
	first := <-done
	for i := 0; i < 3; i++ {
		run := <-done
		if first == nil || run == nil {
			t.Fatal("simulation failed")
		}
		sameRun(t, "concurrent", first, run)
	}
}

func TestSimulateBatchValidation(t *testing.T) {
	sc := NewIID(3, expModel(1, 1))
	if _, err := SimulateBatch(sc, nil, 10, rng.New(1)); err == nil {
		t.Fatal("empty batch accepted")
	}
	if _, err := SimulateBatch(sc, []Config{{R: 1, W: 1}, {R: 0, W: 1}}, 10, rng.New(1)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := SimulateBatch(sc, []Config{{R: 1, W: 1}}, 0, rng.New(1)); err == nil {
		t.Fatal("0 trials accepted")
	}
}

func TestOrderByValue(t *testing.T) {
	r := rng.New(5)
	for n := 1; n <= 12; n++ {
		vals := make([]float64, n)
		for i := range vals {
			vals[i] = float64(r.Intn(4)) // duplicates likely
		}
		order := make([]int, n)
		orderByValue(order, vals)
		want := make([]int, n)
		for i := range want {
			want[i] = i
		}
		sort.SliceStable(want, func(a, b int) bool { return vals[want[a]] < vals[want[b]] })
		for i := range want {
			if order[i] != want[i] {
				t.Fatalf("n=%d: order %v, want %v (vals %v)", n, order, want, vals)
			}
		}
	}
}

// TestPConsistentTies pins the binary-search replacement for the old
// linear tie walk: thresholds equal to t count as consistent.
func TestPConsistentTies(t *testing.T) {
	run := &Run{thresholds: []float64{-1, 0, 0, 0, 2, 2, 5}}
	cases := []struct {
		t    float64
		want float64
	}{
		{-2, 0}, {-1, 1.0 / 7}, {0, 4.0 / 7}, {1, 4.0 / 7}, {2, 6.0 / 7}, {5, 1}, {9, 1},
	}
	for _, c := range cases {
		if got := run.PConsistent(c.t); got != c.want {
			t.Fatalf("PConsistent(%v) = %v, want %v", c.t, got, c.want)
		}
	}
}
