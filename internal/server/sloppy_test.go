package server

// Sloppy-quorum unit coverage: coordinator failover past a crashed
// primary (with epoch-tagged seqs so the recovered primary cannot fork
// history), spare-replica writes carrying hints that count toward W, and
// the airtightness of a crashed coordinator's hint replayer.

import (
	"fmt"
	"testing"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/storage"
)

// TestSloppyFailoverWhenPrimaryCrashed: with the primary down, any other
// node accepts the write, coordinates it as a takeover in a fresh seq
// epoch, and buffers hints for the primary; the recovered primary receives
// the missed writes and continues the same history without forking.
func TestSloppyFailoverWhenPrimaryCrashed(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 2, Seed: 11, SloppyQuorum: true,
		HandoffInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	keys := keysWithPrimary(t, c, 0, 8, "sloppy-")
	// Control: strict-routing sanity before the fault.
	pr := binPut(t, c.Nodes[1], keys[0], "v0")
	if pr.Seq != 1 || pr.Node != 0 {
		t.Fatalf("pre-fault write coordinated as %+v, want primary 0 seq 1", pr)
	}

	c.Faults().Crash(0)
	var seqs []uint64
	for i, k := range keys {
		// Writes land on a non-primary node directly: with the primary
		// crashed they must still succeed (vs. a guaranteed 503 before).
		pr := binPut(t, c.Nodes[1+i%2], k, "v1")
		if pr.Node == 0 {
			t.Fatalf("crashed primary coordinated write for %q", k)
		}
		// Takeover epochs are nonzero and carry the coordinator's residue
		// (epoch ownership is structural: epoch mod clusterSize == owner).
		if e := SeqEpoch(pr.Seq); e == 0 || e%3 != uint64(pr.Node) {
			t.Fatalf("takeover write for %q by node %d got epoch %d, want a fresh epoch owned by %d",
				k, pr.Node, e, pr.Node)
		}
		seqs = append(seqs, pr.Seq)
	}
	st := c.Stats()
	if st.FailoverWrites == 0 {
		t.Fatal("no writes counted as failover coordination")
	}
	if st.HintsPending == 0 {
		t.Fatal("no hints buffered for the crashed primary")
	}

	// Recovery: hints replay to the primary and it rejoins the history.
	c.Faults().Recover(0)
	for i, k := range keys {
		waitReplicaSeqs(t, c, 0, []string{k}, seqs[i], 5*time.Second)
	}
	// After the liveness TTL expires, routing snaps back to the primary,
	// which continues the takeover epoch instead of forking a stale one.
	time.Sleep(2 * livenessTTL)
	pr = binPut(t, c.Nodes[0], keys[0], "v2")
	if pr.Node != 0 {
		t.Fatalf("recovered primary did not coordinate, node %d did", pr.Node)
	}
	if pr.Seq <= seqs[0] {
		t.Fatalf("recovered primary assigned seq %#x <= failover seq %#x: history forked",
			pr.Seq, seqs[0])
	}
}

// TestSpareWritesCarryHints: with a non-primary preference replica down
// and W = N, the write can only commit if the spare node beyond the
// preference list takes the dead replica's leg — and the spare must then
// deliver the hint to the replica once it recovers.
func TestSpareWritesCarryHints(t *testing.T) {
	c, err := StartLocal(4, Params{N: 3, R: 1, W: 3, Seed: 5, SloppyQuorum: true,
		HandoffInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Any key works: in a 4-node cluster with N=3 the full ring order is
	// always the 3 preference replicas plus exactly one spare.
	key := "spare-0"
	prefs := c.Nodes[0].Membership().PreferenceList(key, 3)
	full := c.Nodes[0].Membership().PreferenceList(key, 4)
	victim, spare := prefs[1], full[3]

	c.Faults().Crash(victim)
	pr := binPut(t, c.Nodes[prefs[0]], key, "v")
	if pr.Node != prefs[0] {
		t.Fatalf("write coordinated by node %d, want primary %d", pr.Node, prefs[0])
	}
	st := c.Stats()
	if st.SpareWrites == 0 {
		t.Fatal("W=N write with a dead replica committed without a spare write")
	}
	// The spare holds the data and a hint naming the victim.
	if got := c.ReplicaSeq(spare, key); got != pr.Seq {
		t.Fatalf("spare %d stores seq %d, want %d", spare, got, pr.Seq)
	}
	pending := c.Nodes[spare].store.HintStats().Pending
	if pending == 0 {
		t.Fatalf("spare %d buffered no hint for the dead replica", spare)
	}

	// Recovery: the spare's replayer delivers the hint to the victim.
	c.Faults().Recover(victim)
	waitReplicaSeqs(t, c, victim, []string{key}, pr.Seq, 5*time.Second)
	drainDeadline := time.Now().Add(5 * time.Second)
	for c.HintsPending() > 0 {
		if time.Now().After(drainDeadline) {
			t.Fatalf("%d hints still pending after recovery", c.HintsPending())
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestSloppyWriteSparesDistinct: with two of a key's three preference
// replicas down and W = N, the write commits only if both dead replicas'
// legs take spares — and those must be two distinct nodes, each holding
// one hint for a different victim. One write's legs share one spare claim
// (sparePicker), so the W quorum counts distinct nodes.
func TestSloppyWriteSparesDistinct(t *testing.T) {
	c, err := StartLocal(5, Params{N: 3, R: 1, W: 3, Seed: 5, SloppyQuorum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// In a 5-node cluster with N=3 the full ring order is the 3 preference
	// replicas plus exactly two spares.
	key := "distinct-0"
	full := c.Nodes[0].Membership().PreferenceList(key, 5)
	victims, spares := full[1:3], full[3:]
	for _, v := range victims {
		c.Faults().Crash(v)
	}
	before := c.Stats().SpareWrites
	pr := binPut(t, c.Nodes[full[0]], key, "v")
	if pr.Node != full[0] {
		t.Fatalf("write coordinated by node %d, want primary %d", pr.Node, full[0])
	}
	if d := c.Stats().SpareWrites - before; d != 2 {
		t.Fatalf("SpareWrites rose by %d, want 2 (one per dead replica)", d)
	}
	named := map[int]bool{}
	for _, s := range spares {
		var held []int
		for target, kh := range c.Nodes[s].store.Hints() {
			for range kh {
				held = append(held, target)
			}
		}
		if len(held) != 1 {
			t.Fatalf("spare %d holds hints for %v, want exactly one", s, held)
		}
		named[held[0]] = true
	}
	if len(named) != 2 || !named[victims[0]] || !named[victims[1]] {
		t.Fatalf("the spares' hints name %v, want both victims %v", named, victims)
	}
}

// TestSloppySpareWriteIsOneGroupCommit pins what a durable spare write
// costs: the spare stages the hint and the data record in its one WAL and
// makes both durable with a single group commit — two appends, at most
// one fsync — before it acks. W = N, so a write returns only after the
// spare's leg did.
func TestSloppySpareWriteIsOneGroupCommit(t *testing.T) {
	c, err := StartLocal(4, Params{N: 3, R: 1, W: 3, Seed: 5, SloppyQuorum: true,
		DataDir: t.TempDir(), Fsync: storage.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 1
	c.Faults().Crash(victim)
	m := c.Nodes[0].Membership()
	for i, writes := 0, 0; writes < 16; i++ {
		key := fmt.Sprintf("gc-%d", i)
		prefs := m.PreferenceList(key, 3)
		if prefs[0] == victim || (prefs[1] != victim && prefs[2] != victim) {
			continue // only keys the victim replicates and does not coordinate
		}
		spare := m.PreferenceList(key, 4)[3]
		before := c.Nodes[spare].statsLocal()
		binPut(t, c.Nodes[prefs[0]], key, "v")
		after := c.Nodes[spare].statsLocal()
		if d := after.WALAppends - before.WALAppends; d != 2 {
			t.Fatalf("spare write %q: spare %d staged %d WAL records, want 2 (data + hint)", key, spare, d)
		}
		if d := after.WALSyncs - before.WALSyncs; d > 1 {
			t.Fatalf("spare write %q: spare %d issued %d fsyncs, want at most 1", key, spare, d)
		}
		if after.HintsPending != before.HintsPending+1 {
			t.Fatalf("spare write %q: spare %d holds %d hints, want %d", key, spare, after.HintsPending, before.HintsPending+1)
		}
		writes++
	}
}

// TestNoLiveCoordinator503s: when every preference replica is down and no
// quorum can be raised anywhere, the write must still fail cleanly.
func TestNoLiveCoordinator503s(t *testing.T) {
	c, err := StartLocal(3, Params{N: 2, R: 1, W: 2, Seed: 7, SloppyQuorum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var key string
	var prefs []int
	for i := 0; ; i++ {
		key = fmt.Sprintf("dead-%d", i)
		prefs = c.Nodes[0].Membership().PreferenceList(key, 2)
		if prefs[0] != 2 && prefs[1] != 2 {
			break // node 2 is off the preference list: it must route, not coordinate
		}
	}
	c.Faults().Crash(prefs[0])
	c.Faults().Crash(prefs[1])
	if _, err := binPutErr(c.Nodes[2], key, "v"); clientCode(err) != CodeUnavailable {
		t.Fatalf("write with every preference replica down got %v, want a retryable unavailability", err)
	}
}

// TestCrashedCoordinatorReplaysNothing is the regression test for the
// handoff replay loop: once the fault controller crashes a coordinator,
// no buffered hint may be delivered — including by replay goroutines
// already in flight — until the coordinator recovers.
func TestCrashedCoordinatorReplaysNothing(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 2, Seed: 3, Handoff: true,
		HandoffInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 2
	keys := keysWithPrimary(t, c, 0, 24, "silent-")
	c.Faults().Crash(victim)
	for _, k := range keys {
		binPut(t, c.Nodes[0], k, "v")
	}
	// A write is acked at W while its leg to the crashed replica may still
	// be buffering the hint, so let the legs settle before the snapshot.
	pendingBefore := c.Nodes[0].store.HintStats().Pending
	for settle := time.Now().Add(5 * time.Second); pendingBefore < len(keys) && time.Now().Before(settle); {
		time.Sleep(5 * time.Millisecond)
		pendingBefore = c.Nodes[0].store.HintStats().Pending
	}
	if pendingBefore != len(keys) {
		t.Fatalf("%d hints pending, want %d", pendingBefore, len(keys))
	}

	// Crash the coordinator, then recover the original victim: the
	// coordinator's replayer keeps ticking but must stay silent.
	c.Faults().Crash(0)
	c.Faults().Recover(victim)
	time.Sleep(300 * time.Millisecond) // ~15 replay rounds
	for _, k := range keys {
		if got := c.ReplicaSeq(victim, k); got != 0 {
			t.Fatalf("crashed coordinator delivered %q (seq %d) to the recovered replica", k, got)
		}
	}
	if pending := c.Nodes[0].store.HintStats().Pending; pending != pendingBefore {
		t.Fatalf("crashed coordinator drained hints: %d -> %d pending", pendingBefore, pending)
	}

	// Recovery unmutes the replayer and the hints drain.
	c.Faults().Recover(0)
	waitReplicaSeqs(t, c, victim, keys, 1, 5*time.Second)
}

// TestRecoveredPrimaryCannotShadowFailoverWrites is the regression test
// for stale-epoch coordination: a primary that recovers before the
// failover hints drain must not be able to ACK a write that the failover
// epoch silently shadows. The stale-epoch attempt is refused (no W quorum
// of applied legs), and the retry — assigned above the failover epoch via
// the folded replica seq — commits cleanly.
func TestRecoveredPrimaryCannotShadowFailoverWrites(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 2, Seed: 17, SloppyQuorum: true,
		HandoffInterval: 10 * time.Second}) // hints must NOT drain during the test
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := keysWithPrimary(t, c, 0, 1, "shadow-")[0]
	c.Faults().Crash(0)
	pr1 := binPut(t, c.Nodes[1], key, "failover-value")
	if SeqEpoch(pr1.Seq) == 0 {
		t.Fatal("failover write stayed in the primary's epoch 0")
	}

	// Recover the primary and write through it immediately, before any
	// hint replay: its first attempt runs in the stale pre-crash epoch and
	// must be REFUSED, not acked-and-shadowed.
	c.Faults().Recover(0)
	if _, err := binPutErr(c.Nodes[0], key, "lost-value"); clientCode(err) != CodeQuorumFailed {
		t.Fatalf("stale-epoch write got %v, want a quorum failure (an ack here would be silently shadowed)", err)
	}
	// The nack folded the failover seq back: the retry lands above it.
	pr2 := binPut(t, c.Nodes[0], key, "retry-value")
	if pr2.Seq <= pr1.Seq {
		t.Fatalf("retry assigned seq %#x <= failover seq %#x", pr2.Seq, pr1.Seq)
	}
	// R=1 with W=2 of N=3 is a partial quorum: the retry is acked once two
	// legs land, so the leg to node 1 may still be in flight. Wait for it,
	// so the read below checks what the retry left, not a leg race.
	waitReplicaSeqs(t, c, 1, []string{key}, pr2.Seq, 5*time.Second)
	gr := binGet(t, c.Nodes[1], key)
	if gr.Value != "retry-value" || gr.Seq != pr2.Seq {
		t.Fatalf("read %+v after retry, want retry-value at seq %#x", gr, pr2.Seq)
	}
}

// TestQuorumFailureCountedOnce pins the failedOps accounting across the
// sloppy routing chain: one unreachable write quorum is one failed
// operation, not one per routing hop — and a live coordinator that failed
// its quorum is not marked dead.
func TestQuorumFailureCountedOnce(t *testing.T) {
	c, err := StartLocal(4, Params{N: 3, R: 1, W: 3, Seed: 29, SloppyQuorum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A key whose preference list excludes one node: that node routes.
	var key string
	var prefs []int
	for i := 0; ; i++ {
		key = fmt.Sprintf("count-%d", i)
		prefs = c.Nodes[0].Membership().PreferenceList(key, 3)
		if prefs[0] != 3 && prefs[1] != 3 && prefs[2] != 3 {
			break
		}
	}
	// Two preference replicas down, one spare in the cluster: W=3 cannot
	// be raised (primary + spare = 2 acks), so the primary fails the
	// quorum once and the router must relay that verdict, not re-count it.
	c.Faults().Crash(prefs[1])
	c.Faults().Crash(prefs[2])
	if _, err := binPutErr(c.Nodes[3], key, "v"); clientCode(err) != CodeQuorumFailed {
		t.Fatalf("unreachable quorum got %v, want the primary's quorum failure", err)
	}
	if got := c.Stats().FailedOps; got != 1 {
		t.Fatalf("one failed write counted as %d failed ops across the routing chain", got)
	}
	// The primary failed its quorum but is alive: the router must not have
	// marked it dead — a write to a key it can commit must route to it.
	if !c.Nodes[3].alive(c.Nodes[3].view(), prefs[0]) {
		t.Fatal("live coordinator marked dead after a quorum failure")
	}
}

// TestTakeoverEpochsNeverTie pins structural epoch ownership: two
// different coordinators taking over the same key — diverged liveness
// views, a failover chain — must claim different epochs, so their seqs
// can never tie and fork the key's history.
func TestTakeoverEpochsNeverTie(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 2, Seed: 31, SloppyQuorum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	key := keysWithPrimary(t, c, 0, 1, "tie-")[0]
	s1 := c.Nodes[1].nextSeq(key, true)
	s2 := c.Nodes[2].nextSeq(key, true)
	e1, e2 := SeqEpoch(s1), SeqEpoch(s2)
	if e1 == e2 || s1 == s2 {
		t.Fatalf("concurrent takeovers assigned epoch %d seq %#x and epoch %d seq %#x", e1, s1, e2, s2)
	}
	if e1%3 != 1 || e2%3 != 2 {
		t.Fatalf("epochs %d, %d do not carry their owners' residues", e1, e2)
	}
	// The primary taking the key back claims yet another epoch (its own
	// residue), above anything it has folded — never a shared one.
	c.Nodes[0].applyLocal(kvstore.Version{Key: key, Seq: s2, Value: "v"})
	s0 := c.Nodes[0].nextSeq(key, false)
	if e0 := SeqEpoch(s0); e0 <= e2 || e0%3 != 0 {
		t.Fatalf("primary failback assigned epoch %d after folding epoch %d", e0, e2)
	}
}

// TestSloppyForwardSkipsPartitionedCandidate pins sloppy routing behind the
// fault seam: a router whose liveness cache still believes the partitioned
// primary alive forwards to it, the fault layer cuts the forward, the
// router marks the candidate dead, and the next live preference replica
// coordinates the write as a takeover — the partitioned node coordinates
// nothing.
func TestSloppyForwardSkipsPartitionedCandidate(t *testing.T) {
	c, err := StartLocal(4, Params{N: 3, R: 1, W: 2, Seed: 31, SloppyQuorum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A key off the router's preference list, so the router must forward.
	const router = 3
	var key string
	var prefs []int
	for i := 0; ; i++ {
		key = fmt.Sprintf("sloppy-cut-%d", i)
		prefs = c.Membership().PreferenceList(key, 3)
		if prefs[0] != router && prefs[1] != router && prefs[2] != router {
			break
		}
	}
	cut, next := prefs[0], prefs[1]

	c.Faults().Partition(cut)
	// The partition began after the router's last probe: its cache still
	// says the primary is alive, so only the forward itself can find out.
	rn := c.Nodes[router]
	rn.live.mark(cut, true)
	pr := binPut(t, rn, key, "v")
	if pr.Node != next {
		t.Fatalf("write coordinated by node %d, want the next live preference replica %d", pr.Node, next)
	}
	if alive, ok := rn.live.cached(cut); !ok || alive {
		t.Fatalf("router's liveness cache for the partitioned candidate: alive=%v cached=%v, want marked dead", alive, ok)
	}
	if got := c.Nodes[cut].coordWrites.Load(); got != 0 {
		t.Fatalf("partitioned candidate coordinated %d writes, want 0", got)
	}
	if got := c.Nodes[next].failoverWrites.Load(); got != 1 {
		t.Fatalf("next preference replica counted %d failover writes, want 1", got)
	}
}
