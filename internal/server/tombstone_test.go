package server

import (
	"testing"
	"time"
)

// binDelete deletes through a node's binary client protocol.
func binDelete(t *testing.T, n *Node, key string) PutResponse {
	t.Helper()
	bc := NewBinClient(n.InternalAddr())
	defer bc.Close()
	pr, _, err := bc.Delete(key)
	if err != nil {
		t.Fatalf("DELETE %s: %v", key, err)
	}
	return pr
}

// TestDeleteTombstone pins the basic delete lifecycle: a delete is a
// versioned write (fresh seq from the same coordinator), reads observe the
// key as gone from every coordinator, and a later put resurrects it with a
// yet-higher version.
func TestDeleteTombstone(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pr := binPut(t, c.Nodes[0], "alpha", "one")
	if pr.Seq != 1 {
		t.Fatalf("put seq %d, want 1", pr.Seq)
	}
	dr := binDelete(t, c.Nodes[1], "alpha")
	if dr.Seq != 2 {
		t.Fatalf("delete seq %d, want 2", dr.Seq)
	}
	for i, nd := range c.Nodes {
		gr := binGet(t, nd, "alpha")
		if gr.Found {
			t.Fatalf("node %d still finds deleted key: %+v", i, gr)
		}
		if gr.Seq != 2 {
			t.Fatalf("node %d reports seq %d for tombstone, want 2", i, gr.Seq)
		}
	}

	// Deleting a key that never existed still commits a tombstone write.
	if dr := binDelete(t, c.Nodes[2], "ghost"); dr.Seq == 0 {
		t.Fatalf("delete of absent key got seq 0: %+v", dr)
	}

	// A put after the delete resurrects the key with a newer version.
	pr = binPut(t, c.Nodes[2], "alpha", "reborn")
	if pr.Seq != 3 {
		t.Fatalf("resurrecting put seq %d, want 3", pr.Seq)
	}
	gr := binGet(t, c.Nodes[0], "alpha")
	if !gr.Found || gr.Value != "reborn" {
		t.Fatalf("resurrected read %+v", gr)
	}
}

// TestDeleteNoResurrectionAfterAntiEntropy is the tombstone-replication
// regression test: a replica that was down for the delete still holds the
// live version when it recovers. Merkle anti-entropy must push the
// tombstone *to* the stale replica — never pull the stale live version
// back over the delete — so the key stays gone from every coordinator.
func TestDeleteNoResurrectionAfterAntiEntropy(t *testing.T) {
	c, err := StartLocal(3, Params{
		N: 3, R: 1, W: 1, Seed: 42,
		AntiEntropy: true, AntiEntropyInterval: 30 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const victim = 2
	key := keysWithPrimary(t, c, 0, 1, "del-")[0]
	binPut(t, c.Nodes[0], key, "doomed")
	waitReplicaSeqs(t, c, victim, []string{key}, 1, 5*time.Second)

	// The victim sleeps through the delete holding the live version.
	c.Faults().Crash(victim)
	dr := binDelete(t, c.Nodes[0], key)
	if dr.Seq != 2 {
		t.Fatalf("delete seq %d, want 2", dr.Seq)
	}
	c.Faults().Recover(victim)

	// Anti-entropy must converge the victim onto the tombstone.
	waitReplicaSeqs(t, c, victim, []string{key}, 2, 10*time.Second)

	// With the stale replica converged, no coordinator may resurrect the
	// key — including reads coordinated at the recovered victim itself.
	for i, nd := range c.Nodes {
		for attempt := 0; attempt < 5; attempt++ {
			gr := binGet(t, nd, key)
			if gr.Found {
				t.Fatalf("node %d resurrected deleted key: %+v", i, gr)
			}
		}
	}
	// And the tombstone must never have been overwritten by the stale
	// version on the replicas that saw the delete.
	for i := 0; i < 3; i++ {
		if seq := c.ReplicaSeq(i, key); seq != 2 {
			t.Fatalf("replica %d at seq %d, want tombstone seq 2", i, seq)
		}
	}
}
