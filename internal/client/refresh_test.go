package client

import (
	"encoding/json"
	"fmt"
	"net/http"
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

// coordReads fetches node n's coordinated-read count from its /stats.
func coordReads(t *testing.T, n *server.Node) int64 {
	t.Helper()
	resp, err := http.Get(n.HTTPAddr() + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st.CoordReads
}

// TestStickySessionPinsMember: a sticky session keeps reading through the
// member it pinned when a lower-ID member leaves (the paper's Section 3.2
// "contact the same replica" mitigation), which a pinned position in the
// ID-ordered member list would shift onto a neighbour; and when the pinned
// member itself leaves, the session re-pins to a survivor and its reads
// keep succeeding.
func TestStickySessionPinsMember(t *testing.T) {
	cl, err := server.StartLocal(4, server.Params{N: 3, R: 2, W: 2, Seed: 37})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := DialBinary(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Put("sticky", "v"); err != nil {
		t.Fatal(err)
	}
	s := c.NewSession(true)
	for s.pin.Load() == 0 {
		s = c.NewSession(true)
	}
	pinned := cl.Nodes[s.pin.Load()]
	const reads = 20
	// readAll reads through the session until the client's view has n
	// members, then reads times more; it returns how many of those last
	// reads the node coordinated.
	readAll := func(n int, node *server.Node) int64 {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for c.Nodes() != n {
			if time.Now().After(deadline) {
				t.Fatalf("client view stuck at %d members, want %d", c.Nodes(), n)
			}
			s.Get("sticky") // a failed read refreshes the view
			time.Sleep(5 * time.Millisecond)
		}
		before := coordReads(t, node)
		for i := 0; i < reads; i++ {
			if _, _, err := s.Get("sticky"); err != nil {
				t.Fatalf("session read %d through member %d: %v", i, s.pin.Load(), err)
			}
		}
		return coordReads(t, node) - before
	}
	if got := readAll(4, pinned); got != reads {
		t.Fatalf("pinned member %d coordinated %d of %d session reads", pinned.ID(), got, reads)
	}

	if err := cl.RemoveNode(0); err != nil {
		t.Fatal(err)
	}
	if got := readAll(3, pinned); got != reads {
		t.Fatalf("after member 0 left, pinned member %d coordinated %d of %d session reads", pinned.ID(), got, reads)
	}

	if err := cl.RemoveNode(pinned.ID()); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for c.Nodes() != 2 {
		if time.Now().After(deadline) {
			t.Fatalf("client view stuck at %d members after the pinned member left", c.Nodes())
		}
		s.Get("sticky")
		time.Sleep(5 * time.Millisecond)
	}
	s.Get("sticky") // re-pins under the new view
	repinned := cl.Nodes[s.pin.Load()]
	if repinned.ID() == pinned.ID() {
		t.Fatalf("session still pinned to departed member %d", pinned.ID())
	}
	if got := readAll(2, repinned); got != reads {
		t.Fatalf("re-pinned member %d coordinated %d of %d session reads", repinned.ID(), got, reads)
	}
}
