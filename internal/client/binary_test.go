package client

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"pbs/internal/server"
)

// TestBinaryClientRoundTrip drives the routing client end to end over the
// binary transport: writes route to primaries, reads spread round-robin,
// deletes tombstone, and the aggregate endpoints answer.
func TestBinaryClientRoundTrip(t *testing.T) {
	cl, err := server.StartLocal(3, server.Params{N: 3, R: 2, W: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c, err := DialBinary(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 20; i++ {
		key, val := fmt.Sprintf("k%d", i), fmt.Sprintf("v%d", i)
		if _, err := c.Put(key, val); err != nil {
			t.Fatalf("put %s: %v", key, err)
		}
		res, err := c.Get(key)
		if err != nil {
			t.Fatalf("get %s: %v", key, err)
		}
		if !res.Found || res.Value != val {
			t.Fatalf("get %s: found=%v value=%q", key, res.Found, res.Value)
		}
	}
	if _, err := c.Delete("k0"); err != nil {
		t.Fatal(err)
	}
	if res, err := c.Get("k0"); err != nil || res.Found {
		t.Fatalf("get after delete: found=%v err=%v", res.Found, err)
	}

	st, err := c.ClusterStats()
	if err != nil || st.CoordWrites == 0 {
		t.Fatalf("cluster stats: coordWrites=%d err=%v", st.CoordWrites, err)
	}
	if _, err := c.Stats(1); err != nil {
		t.Fatalf("stats via positional node: %v", err)
	}
	if _, _, _, _, err := c.WARSSamples(); err != nil {
		t.Fatalf("wars samples: %v", err)
	}
}

// TestBinaryClientRefreshesRingView pins view refresh on the binary path:
// the ring epoch rides the response frame prefix, and a join must
// propagate to the client's view through ordinary traffic — including the
// refresh itself, which runs over the binary config op, not HTTP.
func TestBinaryClientRefreshesRingView(t *testing.T) {
	cl, err := server.StartLocal(3, server.Params{N: 3, R: 2, W: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c, err := DialBinary(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Nodes() != 3 || c.RingEpoch() != 1 {
		t.Fatalf("initial view: %d nodes at epoch %d", c.Nodes(), c.RingEpoch())
	}
	for i := 0; i < 10; i++ {
		if _, err := c.Put(fmt.Sprintf("k%d", i), "v"); err != nil {
			t.Fatal(err)
		}
	}

	joined, err := cl.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	// Any subsequent operation carries the new epoch in its response
	// frame; the refresh is asynchronous, so poll briefly.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if _, err := c.Get("k1"); err != nil {
			t.Fatal(err)
		}
		if c.Nodes() == 4 && c.RingEpoch() == joined.RingEpoch() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("client stuck at %d nodes epoch %d, cluster at epoch %d",
				c.Nodes(), c.RingEpoch(), joined.RingEpoch())
		}
		time.Sleep(10 * time.Millisecond)
	}

	// The refreshed view routes to the joiner too: its stats are reachable
	// positionally and writes through the client still commit.
	if _, err := c.Stats(3); err != nil {
		t.Fatalf("stats via refreshed view: %v", err)
	}
	if _, err := c.Put("post-refresh", "v"); err != nil {
		t.Fatal(err)
	}

	// An explicit Refresh is also idempotent.
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	if c.Nodes() != 4 {
		t.Fatalf("explicit refresh lost members: %d", c.Nodes())
	}
}

// TestBinaryClientRetryDiscipline pins the failure taxonomy through the
// full ring walk on the binary path: a crashed node's typed unavailable
// frames are retried at the next coordinator (reads keep answering with
// one node down), while a live coordinator's quorum verdict is final and
// not re-run around the ring.
func TestBinaryClientRetryDiscipline(t *testing.T) {
	cl, err := server.StartLocal(3, server.Params{N: 3, R: 1, W: 1, Seed: 41})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c, err := DialBinary(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pr, err := c.Put("retry-key", "v")
	if err != nil {
		t.Fatal(err)
	}
	// W=1 acks at the first replica; let the write reach every replica so
	// an R=1 read below cannot be a (legitimately) stale one.
	deadline := time.Now().Add(5 * time.Second)
	for node := 0; node < 3; node++ {
		for cl.ReplicaSeq(node, "retry-key") < pr.Seq {
			if time.Now().After(deadline) {
				t.Fatalf("write never reached replica %d", node)
			}
			time.Sleep(time.Millisecond)
		}
	}

	// Reads route around a crashed node: with R=1 the survivors answer.
	cl.Faults().Crash(2)
	for i := 0; i < 8; i++ {
		if res, err := c.Get("retry-key"); err != nil || !res.Found {
			t.Fatalf("get %d with node 2 down: found=%v err=%v", i, res.Found, err)
		}
	}
	cl.Faults().Recover(2)

	// Quorum verdicts are final: crash two replicas, raise W back to 2 —
	// a live coordinator's CodeQuorumFailed must surface, not convert
	// into a walk that re-runs the failure at every node.
	if err := cl.SetQuorums(2, 2); err != nil {
		t.Fatal(err)
	}
	cl.Faults().Crash(1)
	cl.Faults().Crash(2)
	// A key node 0 coordinates itself: the walk hits the live coordinator
	// first and its verdict must stop the walk (a crashed primary would
	// surface as retryable unavailability instead).
	key := "verdict-key"
	for i := 0; cl.Membership().Coordinator(key) != 0; i++ {
		key = fmt.Sprintf("verdict-key-%d", i)
	}
	_, err = c.Put(key, "v")
	if err == nil {
		t.Fatal("put committed without a write quorum")
	}
	if !strings.Contains(err.Error(), "quorum not reached") {
		t.Fatalf("quorum failure surfaced as %v", err)
	}
	if isRetryable(err) {
		t.Fatalf("quorum verdict marked retryable: %v", err)
	}
}
