package conformance

// Fault/recovery and dynamic-configuration conformance: the live store
// must not only match WARS predictions in steady state (conformance_test)
// but return to them after failures — hinted handoff and Merkle
// anti-entropy drive a crashed-and-recovered replica back into the
// fault-free prediction band — and the monitor-fed tuner's recommended
// (R, W) must be exactly what sla.Optimize picks on the online-fitted
// model (Section 6's dynamic configuration).

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbs/internal/client"
	"pbs/internal/ring"
	"pbs/internal/rng"
	"pbs/internal/server"
	"pbs/internal/sla"
	"pbs/internal/stats"
	"pbs/internal/tuner"
	"pbs/internal/wars"
	"pbs/internal/workload"
)

const (
	faultNodes  = 3
	faultVictim = 2
	faultKeys   = 160
)

// faultCurveLimit is the t-visibility band for the fault scenarios:
// the fault-free limit normally, widened under the race detector (see
// race_off_test.go).
func faultCurveLimit() float64 {
	if raceEnabled {
		return 0.08
	}
	return curveRMSELimit
}

// survivorKeys returns keys whose ring primary is not the victim, so
// writes keep committing while the victim is crashed.
func survivorKeys(t *testing.T, vnodes, n int, prefix string) []string {
	t.Helper()
	rg := ring.New(faultNodes, vnodes)
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		if i > 100000 {
			t.Fatal("could not find enough survivor-primaried keys")
		}
		k := fmt.Sprintf("%s%d", prefix, i)
		if rg.Coordinator(k) != faultVictim {
			keys = append(keys, k)
		}
	}
	return keys
}

// writeAll writes every key once through the cluster, concurrently.
func writeAll(t *testing.T, c *client.Client, keys []string) {
	t.Helper()
	var wg sync.WaitGroup
	var failures atomic.Int64
	sem := make(chan struct{}, 8)
	for _, k := range keys {
		sem <- struct{}{}
		wg.Add(1)
		go func(k string) {
			defer func() { <-sem; wg.Done() }()
			if _, err := c.Put(k, "v"); err != nil {
				failures.Add(1)
			}
		}(k)
	}
	wg.Wait()
	if f := failures.Load(); f > 0 {
		t.Fatalf("%d of %d writes failed during the fault", f, len(keys))
	}
}

// staleSweep reads every key once (round-robin coordinators, R as
// deployed) and returns the fraction of reads that returned a version
// older than the committed write.
func staleSweep(t *testing.T, c *client.Client, keys []string) float64 {
	t.Helper()
	var wg sync.WaitGroup
	var stale, failures atomic.Int64
	sem := make(chan struct{}, 8)
	for _, k := range keys {
		sem <- struct{}{}
		wg.Add(1)
		go func(k string) {
			defer func() { <-sem; wg.Done() }()
			gr, err := c.Get(k)
			if err != nil {
				failures.Add(1)
				return
			}
			if gr.Seq < 1 {
				stale.Add(1)
			}
		}(k)
	}
	wg.Wait()
	if f := failures.Load(); f > int64(len(keys)/50) {
		t.Fatalf("%d of %d sweep reads failed", f, len(keys))
	}
	return float64(stale.Load()) / float64(len(keys))
}

// probeBand runs a t-visibility probe campaign and returns its RMSE
// against the prediction, the conformance band of the fault-free suite.
func probeBand(t *testing.T, c *client.Client, pred *wars.Run, epochs int, prefix string) float64 {
	t.Helper()
	tmax := math.Min(math.Max(pred.TVisibility(0.95), 2), 300)
	meas, err := client.MeasureTVisibility(c, client.TVisOptions{
		Ts: stats.Linspace(0, tmax, 12), Epochs: epochs,
		Concurrency: probeConcurrency, KeyPrefix: prefix,
	})
	if err != nil {
		t.Fatal(err)
	}
	rmse, err := stats.RMSE(pred.Curve(meas.MeanOffsets()), meas.Curve())
	if err != nil {
		t.Fatal(err)
	}
	return rmse
}

// TestFaultRecoveryConformance is the headline failure scenario: a
// scripted replica crash while writes continue, then recovery. With
// hinted handoff and anti-entropy enabled the recovered replica converges
// and the measured staleness returns to the fault-free prediction band;
// the control variant (no repair subsystems) pins that the convergence is
// actually theirs.
func TestFaultRecoveryConformance(t *testing.T) {
	model := expModel(16, 8)
	pred, err := wars.Simulate(wars.NewIID(3, model), wars.Config{R: 1, W: 1},
		predictionTrials, rng.New(101))
	if err != nil {
		t.Fatal(err)
	}

	t.Run("no-repair-stays-stale", func(t *testing.T) {
		cl, err := server.StartLocal(faultNodes, server.Params{
			N: 3, R: 1, W: 1, Model: &model, Seed: 7,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		c, err := client.DialBinary(cl.HTTPAddrs[0])
		if err != nil {
			t.Fatal(err)
		}

		keys := survivorKeys(t, cl.Membership().Vnodes(), faultKeys, "nr-")
		cl.Faults().Crash(faultVictim)
		writeAll(t, c, keys)
		cl.Faults().Recover(faultVictim)

		// Without handoff or anti-entropy nothing repairs the gap: the
		// recovered replica still misses every write...
		time.Sleep(1200 * time.Millisecond)
		behind := 0
		for _, k := range keys {
			if cl.ReplicaSeq(faultVictim, k) == 0 {
				behind++
			}
		}
		if behind < len(keys)*9/10 {
			t.Fatalf("victim caught up on %d/%d keys with repair disabled", len(keys)-behind, len(keys))
		}
		// ...and R=1 reads keep surfacing it: the stale fraction stays far
		// above the fault-free band indefinitely.
		stale := staleSweep(t, c, keys)
		t.Logf("no-repair stale fraction after recovery: %.1f%% (%d keys)", stale*100, len(keys))
		if stale < 0.05 {
			t.Errorf("no-repair stale fraction %.1f%% suspiciously low; fault injection broken?", stale*100)
		}
	})

	t.Run("handoff-anti-entropy-reconverge", func(t *testing.T) {
		cl, err := server.StartLocal(faultNodes, server.Params{
			N: 3, R: 1, W: 1, Model: &model, Seed: 7,
			Handoff: true, HandoffInterval: 100 * time.Millisecond,
			AntiEntropy: true, AntiEntropyInterval: 250 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		defer cl.Close()
		c, err := client.DialBinary(cl.HTTPAddrs[0])
		if err != nil {
			t.Fatal(err)
		}

		// Fault-free baseline: the refactored pipeline (fault layer, leg
		// sampler, background repair services all active) must still sit in
		// the prediction band.
		baseline := probeBand(t, c, pred, 420, "base-")
		t.Logf("fault-free baseline t-visibility RMSE: %.2f%%", baseline*100)
		if limit := faultCurveLimit(); baseline > limit {
			t.Errorf("baseline RMSE %.2f%% exceeds %.0f%%", baseline*100, limit*100)
		}

		// Scripted crash; writes continue against the survivors.
		keys := survivorKeys(t, cl.Membership().Vnodes(), faultKeys, "fr-")
		cl.Faults().Crash(faultVictim)
		writeAll(t, c, keys)
		if cl.HintsPending() == 0 {
			t.Fatal("no hints buffered while a replica was down")
		}

		// Recovery: handoff replays the buffered writes, anti-entropy sweeps
		// whatever is left. Measure the convergence time.
		recovered := time.Now()
		cl.Faults().Recover(faultVictim)
		deadline := time.Now().Add(15 * time.Second)
		for {
			behind := 0
			for _, k := range keys {
				if cl.ReplicaSeq(faultVictim, k) == 0 {
					behind++
				}
			}
			if behind == 0 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("victim still behind on %d/%d keys after 15s", behind, len(keys))
			}
			time.Sleep(20 * time.Millisecond)
		}
		t.Logf("repair converged %d missed writes in %v", len(keys), time.Since(recovered).Round(time.Millisecond))

		// Hinted handoff must drain: every buffered hint gets delivered (the
		// replay confirms delivery even when anti-entropy won the race to
		// the data itself).
		drainDeadline := time.Now().Add(10 * time.Second)
		for cl.HintsPending() > 0 {
			if time.Now().After(drainDeadline) {
				t.Fatalf("%d hints still pending after convergence: %+v", cl.HintsPending(), cl.Stats())
			}
			time.Sleep(50 * time.Millisecond)
		}
		st := cl.Stats()
		if st.HintsStored < int64(len(keys)*9/10) {
			t.Errorf("only %d hints buffered for %d missed writes", st.HintsStored, len(keys))
		}
		if st.HintsReplayed+st.AEPulled < st.HintsStored {
			t.Errorf("repair delivered %d of %d buffered writes", st.HintsReplayed+st.AEPulled, st.HintsStored)
		}
		if st.AERounds == 0 {
			t.Error("anti-entropy never ran")
		}
		t.Logf("repair stats: hints stored=%d replayed=%d pending=%d; ae rounds=%d pulled=%d pushed=%d",
			st.HintsStored, st.HintsReplayed, st.HintsPending, st.AERounds, st.AEPulled, st.AEPushed)

		// Post-repair: converged keys read fresh...
		if stale := staleSweep(t, c, keys); stale != 0 {
			t.Errorf("stale fraction %.1f%% on converged keys after repair", stale*100)
		}
		// ...and system-wide staleness is back inside the fault-free band.
		after := probeBand(t, c, pred, 420, "post-")
		t.Logf("post-recovery t-visibility RMSE: %.2f%%", after*100)
		if limit := faultCurveLimit(); after > limit {
			t.Errorf("post-recovery RMSE %.2f%% exceeds %.0f%%", after*100, limit*100)
		}
	})
}

// TestTunerConformance closes the Section 6 loop on the live store: drive
// real traffic, pool the coordinators' measured WARS leg samples, fit
// them online, and check the tuner's recommendation is exactly
// sla.Optimize on the fitted model — then apply it to the running
// cluster.
func TestTunerConformance(t *testing.T) {
	model := expModel(20, 10)
	// Start deliberately mis-deployed on a strict quorum: the SLA below is
	// loose enough that partial quorums win, so the tuner must retune.
	cl, err := server.StartLocal(3, server.Params{
		N: 3, R: 3, W: 3, Model: &model, Seed: 13,
		WARSSampling: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := client.DialBinary(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}

	mon := client.NewMonitor()
	if _, err := client.RunLoad(c, mon, client.LoadOptions{
		Clients: loadClients, MaxOps: 800,
		Keys: workload.NewZipfKeys(256, 0.99, "tune"),
		Mix:  workload.NewMix(0.6), Seed: 5,
	}); err != nil {
		t.Fatal(err)
	}

	cfg := tuner.Config{
		N: 3,
		Target: sla.Target{
			// 100 ms staleness window at p >= 0.9: generous for exp(20,10),
			// so the cheapest quorum R=W=1 is feasible.
			TWindow:        100,
			MinPConsistent: 0.9,
		},
		Trials: 30000,
		Seed:   11,
	}
	applied := make(chan [2]int, 1)
	tn := &tuner.Tuner{
		Source: func() (tuner.Samples, error) {
			w, a, r, s, err := c.WARSSamples()
			return tuner.Samples{W: w, A: a, R: r, S: s}, err
		},
		Config: cfg,
		Apply: func(n, r, w int) error {
			applied <- [2]int{r, w}
			return cl.SetQuorums(r, w)
		},
	}
	rec, err := tn.RunOnce()
	if err != nil {
		t.Fatal(err)
	}
	for _, lf := range rec.Fits {
		t.Logf("fit %v", lf)
	}
	t.Logf("tuner recommendation: %v", rec.Choice)

	// Acceptance: the recommendation equals sla.Optimize on the fitted
	// model under the same target and budget.
	check, err := sla.OptimizeWorkers(rec.Model, cfg.N, rec.Target, cfg.Trials, rng.New(cfg.Seed), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Choice != check.Best {
		t.Fatalf("tuner chose %v, sla.Optimize on the fitted model chose %v", rec.Choice, check.Best)
	}
	if !rec.Choice.Feasible {
		t.Fatal("recommended configuration infeasible")
	}
	if rec.Choice.R == 3 && rec.Choice.W == 3 {
		t.Errorf("loose SLA kept the strict quorum %v", rec.Choice)
	}

	// The fitted model must predict the same regime as the injected truth.
	truth, err := wars.Simulate(wars.NewIID(3, model), wars.Config{R: rec.Choice.R, W: rec.Choice.W},
		cfg.Trials, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	fitted, err := wars.Simulate(wars.NewIID(3, rec.Model), wars.Config{R: rec.Choice.R, W: rec.Choice.W},
		cfg.Trials, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	tTrue, tFit := truth.TVisibility(0.9), fitted.TVisibility(0.9)
	t.Logf("t-visibility@90%%: true model %.1f ms, fitted model %.1f ms", tTrue, tFit)
	if tTrue > 1 && math.Abs(tFit-tTrue)/tTrue > 0.5 {
		t.Errorf("fitted model t-visibility %.1f ms vs true %.1f ms: off by more than 50%%", tFit, tTrue)
	}

	// The retuned quorums are live on the cluster and visible to clients.
	select {
	case got := <-applied:
		if got != [2]int{rec.Choice.R, rec.Choice.W} {
			t.Fatalf("applied %v, recommended (%d, %d)", got, rec.Choice.R, rec.Choice.W)
		}
	default:
		t.Fatal("tuner never applied its recommendation")
	}
	if r, w := cl.Quorums(); r != rec.Choice.R || w != rec.Choice.W {
		t.Fatalf("cluster quorums (%d, %d) after apply, want (%d, %d)", r, w, rec.Choice.R, rec.Choice.W)
	}
	c2, err := client.DialBinary(cl.HTTPAddrs[1])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c2.Put("tuned-key", "v"); err != nil {
		t.Fatalf("write under retuned quorums: %v", err)
	}
}
