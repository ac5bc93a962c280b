package client

import (
	"fmt"
	"testing"
	"time"

	"pbs/internal/server"
)

// TestClientRefreshesRingView pins the elastic-membership client contract:
// after a node joins the cluster, the client notices the higher ring epoch
// on an ordinary response and refreshes its view in the background — no
// static node list, no reconnect.
func TestClientRefreshesRingView(t *testing.T) {
	cl, err := server.StartLocal(3, server.Params{N: 3, R: 2, W: 2, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()

	c, err := DialBinary(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
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
	// header; the refresh is asynchronous, so poll briefly.
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
