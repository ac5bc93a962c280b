package conformance

// Sloppy-quorum conformance: failure-time write availability is part of
// the partial-quorum behavior the WARS model assumes (every write
// eventually reaches all N replicas), and before sloppy quorums the live
// store broke it — a crashed primary made 100% of that key range's writes
// 503. These scenarios pin the tentpole guarantees end to end: a scripted
// primary crash causes zero client-visible write failures, hints drain to
// the recovered primary, the probe t-visibility curve returns to the
// fault-free band, and a coordinator restart with a durable hint dir
// loses no pending hints.

import (
	"fmt"
	"testing"
	"time"

	"pbs/internal/client"
	"pbs/internal/ring"
	"pbs/internal/rng"
	"pbs/internal/server"
	"pbs/internal/wars"
)

// victimKeys returns keys whose ring primary IS the victim — the key range
// whose writes a primary crash used to take out entirely.
func victimKeys(t *testing.T, nodes, vnodes, victim, n int, prefix string) []string {
	t.Helper()
	rg := ring.New(nodes, vnodes)
	keys := make([]string, 0, n)
	for i := 0; len(keys) < n; i++ {
		if i > 100000 {
			t.Fatal("could not find enough victim-primaried keys")
		}
		k := fmt.Sprintf("%s%d", prefix, i)
		if rg.Coordinator(k) == victim {
			keys = append(keys, k)
		}
	}
	return keys
}

// TestSloppyQuorumFailoverConformance is the tentpole scenario: writes
// whose primary coordinator is crashed keep committing (failover
// coordination plus hinted spare writes), the hints drain back to the
// recovered primary, and the measured staleness curve returns to the
// fault-free prediction band.
func TestSloppyQuorumFailoverConformance(t *testing.T) {
	const (
		nodes  = 4
		n, r   = 3, 1
		wq     = 2
		victim = 0
	)
	model := expModel(16, 8)
	pred, err := wars.Simulate(wars.NewIID(n, model), wars.Config{R: r, W: wq},
		predictionTrials, rng.New(211))
	if err != nil {
		t.Fatal(err)
	}

	cl, err := server.StartLocal(nodes, server.Params{
		N: n, R: r, W: wq, Model: &model, Seed: 19,
		SloppyQuorum: true, HandoffInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := client.DialBinary(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Fault-free baseline: sloppy routing (liveness checks on every write
	// leg, failover-capable forwarding) must not perturb the WARS band.
	baseline := probeBand(t, c, pred, 420, "sbase-")
	t.Logf("fault-free baseline t-visibility RMSE: %.2f%%", baseline*100)
	if limit := faultCurveLimit(); baseline > limit {
		t.Errorf("baseline RMSE %.2f%% exceeds %.0f%%", baseline*100, limit*100)
	}

	// The headline: crash the primary of every key under test, keep
	// writing. writeAll fails the test on ANY client-visible write failure
	// (before sloppy quorums: 100% of these writes 503ed).
	keys := victimKeys(t, nodes, cl.Membership().Vnodes(), victim, faultKeys, "sq-")
	cl.Faults().Crash(victim)
	writeAll(t, c, keys)

	st, err := c.ClusterStats()
	if err != nil {
		t.Fatal(err)
	}
	if st.FailedOps > 0 {
		t.Errorf("%d coordinator-side failed ops during failover", st.FailedOps)
	}
	if st.FailoverWrites < int64(len(keys)) {
		t.Errorf("only %d failover-coordinated writes for %d victim-primaried keys",
			st.FailoverWrites, len(keys))
	}
	if st.SpareWrites == 0 {
		t.Error("no write legs landed on spares while a preference replica was down")
	}
	if cl.HintsPending() == 0 {
		t.Fatal("no hints buffered while the primary was down")
	}
	t.Logf("during crash: failover=%d spare=%d hints pending=%d",
		st.FailoverWrites, st.SpareWrites, cl.HintsPending())

	// Recovery: hints drain to the primary and it converges on every key
	// it missed (no anti-entropy in this cluster — the delivery is
	// attributable to hinted handoff alone).
	cl.Faults().Recover(victim)
	deadline := time.Now().Add(15 * time.Second)
	for {
		behind := 0
		for _, k := range keys {
			if cl.ReplicaSeq(victim, k) == 0 {
				behind++
			}
		}
		if behind == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("recovered primary still behind on %d/%d keys after 15s", behind, len(keys))
		}
		time.Sleep(20 * time.Millisecond)
	}
	for cl.HintsPending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d hints still pending after convergence", cl.HintsPending())
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Post-recovery, reads are fresh and the curve is back in the band.
	if stale := staleSweep(t, c, keys); stale != 0 {
		t.Errorf("stale fraction %.1f%% on converged keys after recovery", stale*100)
	}
	after := probeBand(t, c, pred, 420, "spost-")
	t.Logf("post-recovery t-visibility RMSE: %.2f%%", after*100)
	if limit := faultCurveLimit(); after > limit {
		t.Errorf("post-recovery RMSE %.2f%% exceeds %.0f%%", after*100, limit*100)
	}
}

// TestDurableHintsSurviveRestart pins the -data-dir hint guarantee: a
// cluster accumulates hints for a crashed replica, every coordinator
// restarts (cluster torn down and rebuilt over the same data directory,
// whose storage-engine WALs carry the hints), and the restored hints
// drain to the replica — zero pending hints lost.
func TestDurableHintsSurviveRestart(t *testing.T) {
	const (
		nodes  = 3
		victim = 1
	)
	dir := t.TempDir()
	params := server.Params{
		N: 3, R: 1, W: 2, Seed: 23,
		SloppyQuorum: true, HandoffInterval: 50 * time.Millisecond,
		DataDir: dir,
	}

	cl1, err := server.StartLocal(nodes, params)
	if err != nil {
		t.Fatal(err)
	}
	c1, err := client.DialBinary(cl1.HTTPAddrs[0])
	if err != nil {
		cl1.Close()
		t.Fatal(err)
	}
	keys := victimKeys(t, nodes, cl1.Membership().Vnodes(), victim, 64, "dur-")
	cl1.Faults().Crash(victim)
	writeAll(t, c1, keys)
	// A write is acked at W while its leg to the crashed replica may still
	// be buffering the hint (a durable WAL append), so let the legs settle
	// before snapshotting the count the restart must restore.
	settle := time.Now().Add(5 * time.Second)
	for cl1.HintsPending() < len(keys) && time.Now().Before(settle) {
		time.Sleep(10 * time.Millisecond)
	}
	pendingBefore := cl1.HintsPending()
	if pendingBefore < len(keys) {
		t.Fatalf("%d hints pending for %d missed writes", pendingBefore, len(keys))
	}
	wantSeqs := make(map[string]uint64, len(keys))
	for _, k := range keys {
		gr, err := c1.Get(k)
		if err != nil {
			t.Fatal(err)
		}
		wantSeqs[k] = gr.Seq
	}
	// Restart every coordinator mid-outage: each node's engine replays its
	// WAL, hints included.
	cl1.Close()

	cl2, err := server.StartLocal(nodes, params)
	if err != nil {
		t.Fatal(err)
	}
	defer cl2.Close()
	if restored := cl2.Stats().HintsRestored; restored != int64(pendingBefore) {
		t.Fatalf("restored %d hints after restart, want all %d pending before it", restored, pendingBefore)
	}
	// The "victim" is live in the new cluster: every restored hint must be
	// delivered, restoring exactly the pre-restart versions.
	deadline := time.Now().Add(10 * time.Second)
	for cl2.HintsPending() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d restored hints still pending", cl2.HintsPending())
		}
		time.Sleep(20 * time.Millisecond)
	}
	for _, k := range keys {
		if got := cl2.ReplicaSeq(victim, k); got != wantSeqs[k] {
			t.Errorf("replica %d has %q at seq %d after hint replay, want %d", victim, k, got, wantSeqs[k])
		}
	}
}
