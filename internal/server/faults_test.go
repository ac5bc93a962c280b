package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

// decodeJSON decodes one HTTP response body.
func decodeJSON(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// keysWithPrimary returns n distinct keys whose ring primary is the given
// node — so writes keep committing while another node is crashed.
func keysWithPrimary(t *testing.T, c *Cluster, primary, n int, prefix string) []string {
	t.Helper()
	var keys []string
	for i := 0; len(keys) < n; i++ {
		if i > 100000 {
			t.Fatalf("could not find %d keys with primary %d", n, primary)
		}
		k := fmt.Sprintf("%s%d", prefix, i)
		if c.Nodes[0].Membership().Coordinator(k) == primary {
			keys = append(keys, k)
		}
	}
	return keys
}

// waitReplicaSeqs polls until every key reaches seq on the replica.
func waitReplicaSeqs(t *testing.T, c *Cluster, node int, keys []string, seq uint64, timeout time.Duration) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for {
		behind := 0
		for _, k := range keys {
			if c.ReplicaSeq(node, k) < seq {
				behind++
			}
		}
		if behind == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("node %d still behind on %d/%d keys after %v", node, behind, len(keys), timeout)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestParseSchedule(t *testing.T) {
	events, err := ParseSchedule("500ms crash 1; 2s recover 1; 0s drop 2 0.3; 1s delay 0 5; 3s heal 2")
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5 {
		t.Fatalf("parsed %d events, want 5", len(events))
	}
	// Sorted by offset.
	if events[0].Action != "drop" || events[0].Value != 0.3 || events[0].Node != 2 {
		t.Fatalf("first event %+v", events[0])
	}
	if events[4].Action != "heal" || events[4].After != 3*time.Second {
		t.Fatalf("last event %+v", events[4])
	}

	for _, bad := range []string{
		"1s explode 0",        // unknown action
		"1s crash",            // missing node
		"oops crash 1",        // bad duration
		"1s crash x",          // bad node
		"1s drop 1",           // missing value
		"1s drop 1 1.5",       // probability out of range
		"1s crash 1 9",        // stray value
		"1s delay 1 not-a-ms", // bad value
	} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}

	// Empty segments are fine.
	if events, err := ParseSchedule(" ; ;"); err != nil || len(events) != 0 {
		t.Errorf("blank schedule: %v, %v", events, err)
	}
}

// TestCrashedReplicaRefusesService pins the crash semantics end to end:
// internal RPCs toward the node fail fast, it refuses client frames with a
// retryable unavailability and its HTTP admin surface answers 503, and
// recovery restores both.
func TestCrashedReplicaRefusesService(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 1, Seed: 21})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := keysWithPrimary(t, c, 0, 1, "crash-")[0]
	binPut(t, c.Nodes[0], key, "v1")
	waitReplicaSeqs(t, c, 2, []string{key}, 1, 3*time.Second)

	c.Faults().Crash(2)
	// The crashed node refuses clients and admin scrapes alike.
	bc := NewBinClient(c.Nodes[2].InternalAddr())
	defer bc.Close()
	if _, _, err := bc.Get(key); clientCode(err) != CodeUnavailable {
		t.Fatalf("crashed node served a client read: %v, want a retryable unavailability", err)
	}
	resp, err := http.Get(c.HTTPAddrs[2] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("crashed node served HTTP with %s, want 503", resp.Status)
	}
	// Writes keep committing (W=1) but no longer reach the crashed
	// replica.
	start := time.Now()
	pr := binPut(t, c.Nodes[0], key, "v2")
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("write took %v with a crashed replica; crash must fail fast", elapsed)
	}
	time.Sleep(50 * time.Millisecond) // let the send-to-all stragglers finish
	if got := c.ReplicaSeq(2, key); got >= pr.Seq {
		t.Fatalf("crashed replica advanced to seq %d", got)
	}
	if c.Faults().Injected() == 0 {
		t.Error("no injected faults counted")
	}

	c.Faults().Recover(2)
	pr = binPut(t, c.Nodes[0], key, "v3")
	waitReplicaSeqs(t, c, 2, []string{key}, pr.Seq, 3*time.Second)
	if len(c.Faults().Log()) < 2 {
		t.Error("fault log missing crash/recover events")
	}
}

// TestHintedHandoffReplaysMissedWrites drives the handoff path in
// isolation (anti-entropy off): writes missed during a crash are buffered
// as hints and redelivered after recovery.
func TestHintedHandoffReplaysMissedWrites(t *testing.T) {
	c, err := StartLocal(3, Params{
		N: 3, R: 1, W: 1, Seed: 22,
		Handoff: true, HandoffInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 2
	keys := keysWithPrimary(t, c, 0, 25, "hh-")
	c.Faults().Crash(victim)
	for _, k := range keys {
		binPut(t, c.Nodes[0], k, "v")
	}
	// Wait for the fan-out stragglers to fail and buffer their hints.
	deadline := time.Now().Add(3 * time.Second)
	for c.HintsPending() < len(keys) {
		if time.Now().After(deadline) {
			t.Fatalf("only %d hints pending, want %d", c.HintsPending(), len(keys))
		}
		time.Sleep(10 * time.Millisecond)
	}
	for _, k := range keys {
		if c.ReplicaSeq(victim, k) != 0 {
			t.Fatalf("crashed replica saw a write for %s", k)
		}
	}

	c.Faults().Recover(victim)
	waitReplicaSeqs(t, c, victim, keys, 1, 5*time.Second)
	st := c.Stats()
	if st.HintsReplayed < int64(len(keys)) {
		t.Errorf("replayed %d hints, want >= %d", st.HintsReplayed, len(keys))
	}
	if st.HintsPending != 0 {
		t.Errorf("%d hints still pending after convergence", st.HintsPending)
	}
}

// TestHandoffKeepsNewestVersionPerKey checks the hint buffer collapses
// repeated writes to one key into the newest missed version.
func TestHandoffKeepsNewestVersionPerKey(t *testing.T) {
	c, err := StartLocal(3, Params{
		N: 3, R: 1, W: 1, Seed: 23,
		Handoff: true, HandoffInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 1
	key := keysWithPrimary(t, c, 0, 1, "hhk-")[0]
	c.Faults().Crash(victim)
	var last PutResponse
	for i := 0; i < 10; i++ {
		last = binPut(t, c.Nodes[0], key, fmt.Sprintf("v%d", i))
	}
	deadline := time.Now().Add(3 * time.Second)
	for c.HintsPending() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("hints pending %d, want 1 (newest per key)", c.HintsPending())
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.Faults().Recover(victim)
	waitReplicaSeqs(t, c, victim, []string{key}, last.Seq, 5*time.Second)
}

// TestAntiEntropyConvergesDivergentReplica drives the Merkle exchange in
// isolation (handoff off): a replica that diverged outside the write path
// converges through background tree sync alone.
func TestAntiEntropyConvergesDivergentReplica(t *testing.T) {
	c, err := StartLocal(3, Params{
		N: 3, R: 1, W: 1, Seed: 24,
		AntiEntropy: true, AntiEntropyInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Divergence no coordinator observed: direct injection into node 0.
	for i := 0; i < 8; i++ {
		if !c.InjectVersion(0, fmt.Sprintf("ae-%d", i), 5, "divergent") {
			t.Fatal("inject failed")
		}
	}
	keys := make([]string, 8)
	for i := range keys {
		keys[i] = fmt.Sprintf("ae-%d", i)
	}
	waitReplicaSeqs(t, c, 1, keys, 5, 5*time.Second)
	waitReplicaSeqs(t, c, 2, keys, 5, 5*time.Second)
	st := c.Stats()
	if st.AERounds == 0 || st.AEBuckets == 0 {
		t.Errorf("anti-entropy counters empty: %+v", st)
	}
	if st.AEPulled+st.AEPushed < 16 {
		t.Errorf("anti-entropy moved %d versions, want >= 16", st.AEPulled+st.AEPushed)
	}
}

// TestAntiEntropyRepairsCrashWithoutHandoff: with handoff disabled, a
// recovered replica's missed writes are repaired by the Merkle exchange.
func TestAntiEntropyRepairsCrashWithoutHandoff(t *testing.T) {
	c, err := StartLocal(3, Params{
		N: 3, R: 1, W: 1, Seed: 25,
		AntiEntropy: true, AntiEntropyInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 2
	keys := keysWithPrimary(t, c, 1, 20, "aec-")
	c.Faults().Crash(victim)
	for _, k := range keys {
		binPut(t, c.Nodes[1], k, "v")
	}
	c.Faults().Recover(victim)
	waitReplicaSeqs(t, c, victim, keys, 1, 10*time.Second)
}

// TestHandoffNotBlockedByPausedTarget pins the replayer's per-target
// concurrency: hints for a recovered replica deliver at replay pace even
// while another target's replay RPC is stalled on a pause.
func TestHandoffNotBlockedByPausedTarget(t *testing.T) {
	c, err := StartLocal(3, Params{
		N: 3, R: 1, W: 1, Seed: 33,
		Handoff: true, HandoffInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := keysWithPrimary(t, c, 0, 10, "hol-")
	// Both replicas crash and miss the writes; hints buffer for both.
	c.Faults().Crash(1)
	c.Faults().Crash(2)
	for _, k := range keys {
		binPut(t, c.Nodes[0], k, "v")
	}
	deadline := time.Now().Add(3 * time.Second)
	for c.HintsPending() < 2*len(keys) {
		if time.Now().After(deadline) {
			t.Fatalf("%d hints pending, want %d", c.HintsPending(), 2*len(keys))
		}
		time.Sleep(10 * time.Millisecond)
	}

	// Node 1 comes back paused: replays toward it now stall mid-RPC
	// instead of failing fast. Node 2 recovers cleanly.
	c.Faults().Recover(1)
	c.Faults().Pause(1)
	c.Faults().Recover(2)
	// Node 2's hints must drain promptly despite node 1's replay being
	// parked (rpcTimeout is 10s — head-of-line blocking would blow this
	// deadline).
	waitReplicaSeqs(t, c, 2, keys, 1, 3*time.Second)

	c.Faults().Resume(1)
	waitReplicaSeqs(t, c, 1, keys, 1, 5*time.Second)
}

// TestDroppedRPCsHealedByRecovery: a lossy link toward one replica leaves
// it behind; handoff hints cover the losses.
func TestDroppedRPCsHealedByRecovery(t *testing.T) {
	c, err := StartLocal(3, Params{
		N: 3, R: 1, W: 1, Seed: 26,
		Handoff: true, HandoffInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 1
	keys := keysWithPrimary(t, c, 0, 30, "drop-")
	c.Faults().SetDrop(victim, 1.0)
	for _, k := range keys {
		binPut(t, c.Nodes[0], k, "v")
	}
	c.Faults().Heal(victim)
	waitReplicaSeqs(t, c, victim, keys, 1, 5*time.Second)
}

// TestPauseBlocksThenDelivers: a paused replica stalls RPCs without
// failing them; resume delivers the stalled write.
func TestPauseBlocksThenDelivers(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 3, W: 3, Seed: 27})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 2
	key := keysWithPrimary(t, c, 0, 1, "pause-")[0]
	c.Faults().Pause(victim)
	done := make(chan PutResponse, 1)
	go func() { done <- binPut(t, c.Nodes[0], key, "v") }()
	select {
	case <-done:
		t.Fatal("W=3 write completed while one replica was paused")
	case <-time.After(300 * time.Millisecond):
	}
	c.Faults().Resume(victim)
	select {
	case pr := <-done:
		if pr.Seq != 1 {
			t.Fatalf("resumed write got seq %d", pr.Seq)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("write did not complete after resume")
	}
	if got := c.ReplicaSeq(victim, key); got != 1 {
		t.Fatalf("paused replica at seq %d after resume", got)
	}
}

// TestDelayInjection: link delay toward one replica defers its apply
// without failing it.
func TestDelayInjection(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 1, Seed: 28})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 1
	key := keysWithPrimary(t, c, 0, 1, "delay-")[0]
	c.Faults().SetDelay(victim, 250)
	start := time.Now()
	binPut(t, c.Nodes[0], key, "v") // W=1: commits at the local apply
	if time.Since(start) > 200*time.Millisecond {
		t.Fatal("W=1 commit waited for the delayed replica")
	}
	if got := c.ReplicaSeq(victim, key); got != 0 {
		t.Fatalf("delayed replica already at seq %d", got)
	}
	waitReplicaSeqs(t, c, victim, []string{key}, 1, 3*time.Second)
}

func TestSetQuorumsLive(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 1, Seed: 29})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	if err := c.SetQuorums(0, 1); err == nil {
		t.Fatal("R=0 accepted")
	}
	if err := c.SetQuorums(1, 4); err == nil {
		t.Fatal("W=4 accepted at N=3")
	}
	if err := c.SetQuorums(2, 2); err != nil {
		t.Fatal(err)
	}
	if r, w := c.Quorums(); r != 2 || w != 2 {
		t.Fatalf("quorums (%d, %d), want (2, 2)", r, w)
	}
	// The public config reflects the retuned quorums.
	resp, err := http.Get(c.HTTPAddrs[1] + "/config")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(body), `"r":2`) || !strings.Contains(string(body), `"w":2`) {
		t.Fatalf("config after SetQuorums: %s", body)
	}
	// Operations run under the new quorums.
	key := keysWithPrimary(t, c, 0, 1, "sq-")[0]
	pr := binPut(t, c.Nodes[0], key, "v")
	gr := binGet(t, c.Nodes[1], key)
	if gr.Seq != pr.Seq {
		t.Fatalf("strict quorum read missed the write: %+v", gr)
	}
}

// TestScheduleDrivesFaults runs a scripted schedule end to end.
func TestScheduleDrivesFaults(t *testing.T) {
	c, err := StartLocal(3, Params{
		N: 3, R: 1, W: 1, Seed: 30,
		Handoff: true, HandoffInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	events, err := ParseSchedule("0s crash 2; 400ms recover 2")
	if err != nil {
		t.Fatal(err)
	}
	stop := c.Faults().RunSchedule(events)
	defer stop()

	// Give the schedule a beat to apply the crash, then write through it.
	deadline := time.Now().Add(2 * time.Second)
	for !c.Faults().Down(2) {
		if time.Now().After(deadline) {
			t.Fatal("schedule never crashed node 2")
		}
		time.Sleep(5 * time.Millisecond)
	}
	keys := keysWithPrimary(t, c, 0, 10, "sched-")
	for _, k := range keys {
		binPut(t, c.Nodes[0], k, "v")
	}
	// After the scheduled recovery, handoff converges the victim.
	waitReplicaSeqs(t, c, 2, keys, 1, 5*time.Second)
}

// TestWARSEndpointServesLegSamples: the leg sampler feeds /wars with all
// four legs after mixed traffic.
func TestWARSEndpointServesLegSamples(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 1, Seed: 31, WARSSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 20; i++ {
		key := fmt.Sprintf("wars-%d", i)
		binPut(t, c.Nodes[i%3], key, "v")
		binGet(t, c.Nodes[i%3], key)
	}
	time.Sleep(100 * time.Millisecond) // stragglers record after the quorum response

	total := WARSResponse{}
	for i := 0; i < 3; i++ {
		resp, err := http.Get(c.HTTPAddrs[i] + "/wars")
		if err != nil {
			t.Fatal(err)
		}
		var wr WARSResponse
		if err := decodeJSON(resp, &wr); err != nil {
			t.Fatal(err)
		}
		total.W = append(total.W, wr.W...)
		total.A = append(total.A, wr.A...)
		total.R = append(total.R, wr.R...)
		total.S = append(total.S, wr.S...)
	}
	// 20 writes and 20 reads, each fanned out to 3 replicas.
	if len(total.W) < 40 || len(total.R) < 40 {
		t.Fatalf("leg samples W=%d R=%d, want >= 40 each", len(total.W), len(total.R))
	}
	if len(total.W) != len(total.A) || len(total.R) != len(total.S) {
		t.Fatalf("leg pairs out of balance: W=%d A=%d R=%d S=%d",
			len(total.W), len(total.A), len(total.R), len(total.S))
	}
	for _, v := range total.W {
		if v < 0 {
			t.Fatal("negative leg sample")
		}
	}
}

// TestForwardedWriteRespectsPartition pins the forward hop behind the
// fault seam: a write sent to a non-primary is forwarded to the key's
// primary through the node's Peer, so a partitioned primary is never
// reached — the write fails as a retryable unavailability at the
// forwarder, and the cut-off primary coordinates (and fails) nothing.
func TestForwardedWriteRespectsPartition(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const primary, via = 0, 1
	key := keysWithPrimary(t, c, primary, 1, "cut-")[0]
	binPut(t, c.Nodes[via], key, "before")

	c.Faults().Partition(primary)
	_, err = binPutErr(c.Nodes[via], key, "during")
	var ce *ClientError
	if !errors.As(err, &ce) || ce.Code != CodeUnavailable || !ce.Retryable() {
		t.Fatalf("write forwarded to a partitioned primary got %v, want a retryable unavailability", err)
	}
	if got := c.Nodes[primary].failedOps.Load(); got != 0 {
		t.Fatalf("partitioned primary counted %d failed coordinations, want 0 (the forward must not reach it)", got)
	}

	c.Faults().Heal(primary)
	if pr := binPut(t, c.Nodes[via], key, "after"); pr.Node != primary {
		t.Fatalf("healed write coordinated by node %d, want the primary %d", pr.Node, primary)
	}
}
