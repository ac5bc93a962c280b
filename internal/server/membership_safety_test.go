package server

// Membership-correctness regression tests for the windows closed by the
// gossip + config-log work: equal-epoch divergent views (the digest pin),
// the restarted-coordinator seq-epoch window (the gossip floor), and a
// partitioned member healing onto a committed configuration it never heard
// pushed (gossip-only convergence).

import (
	"fmt"
	"net"
	"testing"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/ring"
)

// detachedNode builds a node with storage and counters only — no
// listeners, no background services — for white-box membership tests.
func detachedNode() *Node {
	return &Node{store: kvstore.NewSynced(), pendingJoins: make(map[string]int)}
}

func mustMembership(t *testing.T, members []ring.Member) *ring.Membership {
	t.Helper()
	m, err := ring.NewMembership(members, 4)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInstallRejectsEqualEpochConflict pins the digest guard: once a node
// has accepted (or learned the decision for) a configuration at epoch e,
// a different configuration claiming the same epoch can never also take
// effect on that node — in either arrival order.
func TestInstallRejectsEqualEpochConflict(t *testing.T) {
	base := mustMembership(t, []ring.Member{
		{ID: 0, HTTPAddr: "http://a", InternalAddr: "a:1"},
		{ID: 1, HTTPAddr: "http://b", InternalAddr: "b:1"},
		{ID: 2, HTTPAddr: "http://c", InternalAddr: "c:1"},
	})
	confA, err := base.Join(ring.Member{ID: 3, HTTPAddr: "http://d", InternalAddr: "d:1"})
	if err != nil {
		t.Fatal(err)
	}
	confB, err := base.Join(ring.Member{ID: 4, HTTPAddr: "http://e", InternalAddr: "e:1"})
	if err != nil {
		t.Fatal(err)
	}
	if confA.Epoch() != confB.Epoch() {
		t.Fatalf("test setup: epochs %d vs %d", confA.Epoch(), confB.Epoch())
	}

	for _, order := range [][2]*ring.Membership{{confA, confB}, {confB, confA}} {
		first, second := order[0], order[1]
		n := detachedNode()
		if !n.installMembership(base) {
			t.Fatal("base install rejected")
		}
		if !n.installMembership(first) {
			t.Fatal("first same-epoch install rejected")
		}
		if n.installMembership(second) {
			t.Fatal("conflicting same-epoch install committed — divergent views at one epoch")
		}
		if got := n.configRejects.Load(); got != 1 {
			t.Fatalf("configRejects = %d, want 1", got)
		}
		if !n.view().m.Equal(first) {
			t.Fatalf("view changed to the rejected configuration")
		}
		// Idempotent re-push of the accepted config is a clean no-op, not a
		// conflict.
		if n.installMembership(first) || n.configRejects.Load() != 1 {
			t.Fatal("re-install of the accepted configuration miscounted as a conflict")
		}
	}
}

// TestDecidedConfigPinsEpochDigest pins the log→install path: a slot
// decision pins the epoch's digest, so a conflicting same-epoch push
// arriving later is rejected against the *decided* configuration.
func TestDecidedConfigPinsEpochDigest(t *testing.T) {
	base := mustMembership(t, []ring.Member{
		{ID: 0, HTTPAddr: "http://a", InternalAddr: "a:1"},
		{ID: 1, HTTPAddr: "http://b", InternalAddr: "b:1"},
	})
	confA, err := base.Join(ring.Member{ID: 2, HTTPAddr: "http://c", InternalAddr: "c:1"})
	if err != nil {
		t.Fatal(err)
	}
	confB, err := base.Join(ring.Member{ID: 3, HTTPAddr: "http://d", InternalAddr: "d:1"})
	if err != nil {
		t.Fatal(err)
	}

	n := detachedNode()
	n.onConfigDecided(confA.Epoch(), ring.EncodeMembership(confA))
	if !n.view().m.Equal(confA) {
		t.Fatal("decided configuration not installed")
	}
	if n.installMembership(confB) {
		t.Fatal("push conflicting with the decided configuration committed")
	}
	if got := n.configDecides.Load(); got != 1 {
		t.Fatalf("configDecides = %d, want 1", got)
	}
}

// seqTestKey finds a key whose preference list at N=3 is exactly
// {primary, a, b} in some order.
func seqTestKey(t *testing.T, m *ring.Membership, primary, a, b int) string {
	t.Helper()
	for i := 0; i < 100000; i++ {
		key := fmt.Sprintf("seq-floor-%d", i)
		p := m.PreferenceList(key, 3)
		if p[0] == primary && ((p[1] == a && p[2] == b) || (p[1] == b && p[2] == a)) {
			return key
		}
	}
	t.Fatal("no key with the wanted preference list")
	return ""
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestGossipRestoresSeqFloorAcrossRestart scripts the exact
// stale-unobserved-coordinator window from nextSeq's doc comment: a
// failover coordinator claims a seq epoch, acks a W=1 write no other
// replica stores, and restarts with an empty store. Without the gossip
// floor its next claim would reuse the same epoch and collide with the
// acked write; with it, peers echo the forgotten claim back and the
// restarted coordinator assigns strictly above it.
func TestGossipRestoresSeqFloorAcrossRestart(t *testing.T) {
	c, err := StartLocal(4, Params{
		N: 3, R: 1, W: 1, Seed: 101, SloppyQuorum: true,
		GossipInterval: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A key replicated on {0, 1, 2}: node 3 holds no replica, so after
	// crashing 0 and 2 (and dropping data-plane traffic to the spare 3) a
	// write through 1 is stored nowhere else.
	key := seqTestKey(t, c.Membership(), 0, 1, 2)
	c.Faults().Crash(0)
	c.Faults().Crash(2)
	c.Faults().SetDrop(3, 1.0)

	pr := binPut(t, c.Nodes[1], key, "v1")
	epoch := SeqEpoch(pr.Seq)
	if epoch == 0 {
		t.Fatalf("failover write got seq %d in epoch 0 — takeover did not claim an epoch", pr.Seq)
	}

	// Gossip (control plane — unaffected by the data-plane drop) carries
	// node 1's claim to node 3.
	waitFor(t, 3*time.Second, "node 3 to observe node 1's seq-epoch claim", func() bool {
		for _, e := range c.Nodes[3].gossip.Snapshot() {
			if e.ID == 1 && e.SeqEpoch >= epoch {
				return true
			}
		}
		return false
	})

	// Restart node 1 at the same addresses with an empty store: the only
	// copy of the acked write dies with the old process, so nothing on disk
	// or on any reachable replica records the claimed epoch.
	oldHTTP := c.Nodes[1].HTTPAddr()[len("http://"):]
	oldInternal := c.Nodes[1].InternalAddr()
	c.Nodes[1].Close()
	var httpLn, internalLn net.Listener
	waitFor(t, 3*time.Second, "listener addresses to free up", func() bool {
		var err1, err2 error
		httpLn, err1 = net.Listen("tcp", oldHTTP)
		if err1 != nil {
			return false
		}
		internalLn, err2 = net.Listen("tcp", oldInternal)
		if err2 != nil {
			httpLn.Close()
			return false
		}
		return true
	})
	p := c.Params
	p.Seed = 202
	restarted, err := StartNode(NodeConfig{
		Params:           p,
		HTTPListener:     httpLn,
		InternalListener: internalLn,
		JoinAddr:         c.Nodes[3].InternalAddr(),
		Faults:           c.Faults(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer restarted.Close()
	if restarted.ID() != 1 {
		t.Fatalf("restarted node re-joined as ID %d, want its old ID 1", restarted.ID())
	}

	// The first gossip exchange echoes the previous incarnation's claim.
	waitFor(t, 3*time.Second, "gossip to raise the restarted node's seq floor", func() bool {
		return restarted.seqFloor.Load() >= epoch
	})

	pr2 := binPut(t, restarted, key, "v2")
	if got := SeqEpoch(pr2.Seq); got <= epoch {
		t.Fatalf("restarted coordinator assigned in epoch %d, want strictly above the pre-restart claim %d", got, epoch)
	}
}

// TestGossipHealsPartitionedMemberAfterJoinerDies pins gossip-only
// membership convergence: a member partitioned through a join misses the
// decide broadcast and the opMembership push, and the joiner — the one
// node that would re-push — dies right after committing. After the heal,
// the isolated member must still re-learn the committed configuration,
// through gossip alone, within a bounded number of rounds.
func TestGossipHealsPartitionedMemberAfterJoinerDies(t *testing.T) {
	c, err := StartLocal(3, Params{
		N: 3, R: 2, W: 2, Seed: 303,
		GossipInterval: 15 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	c.Faults().Partition(2)
	joined, err := c.AddNode() // commits epoch 2 via the {0,1} majority
	if err != nil {
		t.Fatal(err)
	}
	wantEpoch := joined.RingEpoch()
	if wantEpoch <= 1 || !joined.Membership().Contains(joined.ID()) {
		t.Fatalf("join did not commit (epoch %d)", wantEpoch)
	}
	if got := c.Nodes[2].RingEpoch(); got != 1 {
		t.Fatalf("partitioned node advanced to epoch %d during the partition", got)
	}
	joined.Close() // the joiner dies before anyone can ask it again

	c.Faults().Heal(2)
	waitFor(t, 3*time.Second, "partitioned member to converge via gossip", func() bool {
		return c.Nodes[2].RingEpoch() == wantEpoch
	})
	if !c.Nodes[2].Membership().Contains(joined.ID()) {
		t.Fatalf("healed member's ring misses the joiner: %v", c.Nodes[2].Membership())
	}
	if got := c.Nodes[2].gossipInstalls.Load(); got < 1 {
		t.Fatalf("gossipInstalls = %d — the membership arrived some other way", got)
	}
}
