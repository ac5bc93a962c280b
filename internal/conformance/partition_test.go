package conformance

// Membership conformance under partitions and concurrency: the two
// acceptance scenarios of the gossip + ring-config-log work.
//
//   - A member cut off through a membership change must re-learn the
//     committed configuration after the heal through gossip alone — the
//     decide broadcast and the membership push both happened while it was
//     unreachable, and the joiner that would re-push is gone.
//
//   - Two concurrent joins admitted through *different* seeds must both
//     succeed, with totally ordered ring epochs: the config log gives the
//     rival proposals one winner per slot and the loser commits at the
//     next slot. The old bounded-retry failure ("kept losing epoch
//     races") must not resurface as an error.

import (
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"pbs/internal/server"
)

// nodePut / nodeGet drive one node directly over the binary client
// protocol (the membership scenarios pin *which* node coordinates, so the
// ring-aware client would get in the way).
func nodePut(t *testing.T, n *server.Node, key, value string) server.PutResponse {
	t.Helper()
	bc := server.NewBinClient(n.InternalAddr())
	defer bc.Close()
	pr, _, err := bc.Put(key, value)
	if err != nil {
		t.Fatalf("PUT %s: %v", key, err)
	}
	return pr
}

func nodeGet(t *testing.T, n *server.Node, key string) server.GetResponse {
	t.Helper()
	bc := server.NewBinClient(n.InternalAddr())
	defer bc.Close()
	gr, _, err := bc.Get(key)
	if err != nil {
		t.Fatalf("GET %s: %v", key, err)
	}
	return gr
}

// waitUntil polls cond until it holds or the deadline passes.
func waitUntil(t *testing.T, d time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(15 * time.Millisecond)
	}
}

func TestPartitionHealConformance(t *testing.T) {
	const gossipEvery = 15 * time.Millisecond
	c, err := server.StartLocal(4, server.Params{
		N: 3, R: 2, W: 2, Seed: 41, GossipInterval: gossipEvery,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for i := 0; i < 40; i++ {
		nodePut(t, c.Nodes[i%4], fmt.Sprintf("part-%d", i), "v")
	}

	// Cut node 3 off, then run a full join: the configuration at the next
	// epoch commits through the {0,1,2} majority while 3 hears nothing.
	c.Faults().Partition(3)
	joined, err := c.AddNode()
	if err != nil {
		t.Fatalf("join with a member partitioned: %v", err)
	}
	wantEpoch := joined.RingEpoch()
	if got := c.Nodes[3].RingEpoch(); got >= wantEpoch {
		t.Fatalf("partitioned member at epoch %d — the partition leaked", got)
	}
	// The joiner dies immediately: nobody is left who would re-push the
	// membership to node 3. Gossip is the only remaining channel.
	joined.Close()

	c.Faults().Heal(3)
	// Bounded convergence: the healed member initiates a gossip round every
	// interval and round-robins over the other members, so a handful of
	// intervals is guaranteed to include a working exchange. The budget
	// below is ~100 rounds — generous wall-clock slack for a loaded
	// machine, still a hard bound.
	waitUntil(t, 100*gossipEvery, "healed member to converge onto the committed ring", func() bool {
		return c.Nodes[3].RingEpoch() == wantEpoch
	})
	if !c.Nodes[3].Membership().Contains(joined.ID()) {
		t.Fatalf("healed member's ring misses the committed joiner: %v", c.Nodes[3].Membership())
	}
	if got := c.Stats().GossipInstalls; got < 1 {
		t.Fatalf("GossipInstalls = %d — convergence did not come from gossip", got)
	}

	// The healed member serves correctly under the new ring.
	pr := nodePut(t, c.Nodes[3], "part-after-heal", "x")
	if gr := nodeGet(t, c.Nodes[0], "part-after-heal"); gr.Seq != pr.Seq || gr.Value != "x" {
		t.Fatalf("read-after-heal %+v, want seq %d", gr, pr.Seq)
	}
}

func TestConcurrentJoinConformance(t *testing.T) {
	c, err := server.StartLocal(3, server.Params{
		N: 3, R: 2, W: 2, Seed: 43, GossipInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Two joiners bootstrapping concurrently through two different seed
	// members: they are admitted independently (no shared serialization
	// point) and race for the same config-log slot.
	type result struct {
		node *server.Node
		err  error
	}
	results := make([]result, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		httpLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		internalLn, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(i int, httpLn, internalLn net.Listener) {
			defer wg.Done()
			p := c.Params
			p.Seed = uint64(47 + i)
			n, err := server.StartNode(server.NodeConfig{
				Params:           p,
				HTTPListener:     httpLn,
				InternalListener: internalLn,
				JoinAddr:         c.Nodes[i].InternalAddr(), // different seeds
				Faults:           c.Faults(),
			})
			results[i] = result{node: n, err: err}
		}(i, httpLn, internalLn)
	}
	wg.Wait()
	for i, r := range results {
		if r.err != nil {
			t.Fatalf("concurrent join %d failed: %v", i, r.err)
		}
		defer r.node.Close()
	}
	if results[0].node.ID() == results[1].node.ID() {
		t.Fatalf("both joiners were assigned ID %d", results[0].node.ID())
	}

	// Totally ordered epochs: the two changes committed at consecutive
	// slots — final ring at epoch 3 with 5 members — and every node
	// (gossip converges the losers' views) agrees on it.
	waitUntil(t, 5*time.Second, "all nodes to agree on the final ring", func() bool {
		nodes := append([]*server.Node{results[0].node, results[1].node}, c.Nodes...)
		for _, n := range nodes {
			m := n.Membership()
			if m.Epoch() != 3 || m.Size() != 5 {
				return false
			}
		}
		return true
	})

	// Both joiners act as full members: writes coordinated through each are
	// readable cluster-wide.
	for i, r := range results {
		key := fmt.Sprintf("conc-join-%d", i)
		pr := nodePut(t, r.node, key, "v")
		if gr := nodeGet(t, c.Nodes[0], key); gr.Seq != pr.Seq {
			t.Fatalf("write through joiner %d read back %+v, want seq %d", i, gr, pr.Seq)
		}
	}
}
