package server

// Tests for elastic membership: live joins with key-range streaming, the
// ring flip, drained leaves, and the read-side spare fallback.

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestJoinStreamsRangesAndFlips grows a loaded 3-node cluster by one
// member through the real network protocol and checks that every
// previously acknowledged write the joiner now owns was streamed to it.
func TestJoinStreamsRangesAndFlips(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 120
	for i := 0; i < keys; i++ {
		binPut(t, c.Nodes[i%3], fmt.Sprintf("pre-%d", i), fmt.Sprintf("v%d", i))
	}

	startEpoch := c.Membership().Epoch()
	n3, err := c.AddNode()
	if err != nil {
		t.Fatal(err)
	}
	if n3.ID() != 3 {
		t.Fatalf("joiner assigned ID %d, want 3", n3.ID())
	}
	m := n3.Membership()
	if m.Epoch() != startEpoch+1 || m.Size() != 4 {
		t.Fatalf("joiner membership %v, want epoch %d with 4 members", m, startEpoch+1)
	}
	// Every old member adopted the flip.
	for i := 0; i < 3; i++ {
		if got := c.Nodes[i].RingEpoch(); got != m.Epoch() {
			t.Fatalf("node %d still at ring epoch %d, want %d", i, got, m.Epoch())
		}
	}

	// Every key the joiner owns under the new ring must be local at the
	// acknowledged version (it was streamed during catch-up).
	owned := 0
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("pre-%d", i)
		inPrefs := false
		for _, id := range m.PreferenceList(key, 3) {
			if id == n3.ID() {
				inPrefs = true
			}
		}
		if !inPrefs {
			continue
		}
		owned++
		if v, ok := n3.getLocal(key); !ok || v.Seq < 1 {
			t.Fatalf("joiner missing owned key %q (found=%v seq=%d)", key, ok, v.Seq)
		}
	}
	if owned == 0 {
		t.Fatal("ring rebalancing assigned the joiner no keys — vnode hashing broken?")
	}

	// The joiner serves as a full coordinator: reads and writes through it.
	pr := binPut(t, n3, "post-join", "x")
	if gr := binGet(t, c.Nodes[0], "post-join"); gr.Seq != pr.Seq || gr.Value != "x" {
		t.Fatalf("write through joiner read back %+v, want seq %d", gr, pr.Seq)
	}
}

// TestJoinUnderLoadLosesNoAcknowledgedWrite keeps a write load running
// while a node joins and checks that every acknowledged write is readable
// at (or above) its acknowledged version afterwards — the zero-lost-writes
// contract of the flip + delta-pass protocol.
func TestJoinUnderLoadLosesNoAcknowledgedWrite(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 13})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const (
		writers       = 4
		keysPerWriter = 40
	)
	// AddNode mutates c.Nodes; workers use a pre-join copy.
	nodes := append([]*Node(nil), c.Nodes...)
	acked := make([]map[string]uint64, writers)
	var writeErrs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		acked[w] = make(map[string]uint64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			bc := NewBinClient(nodes[w%3].InternalAddr())
			defer bc.Close()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("load-%d-%d", w, i%keysPerWriter)
				pr, _, err := bc.Put(key, fmt.Sprintf("v-%d", i))
				if err != nil {
					writeErrs.Add(1)
				} else if pr.Seq > acked[w][key] {
					acked[w][key] = pr.Seq
				}
				i++
			}
		}(w)
	}

	time.Sleep(100 * time.Millisecond)
	joined, err := c.AddNode() // join mid-load
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(100 * time.Millisecond)
	close(stop)
	wg.Wait()

	if n := writeErrs.Load(); n != 0 {
		t.Fatalf("%d client-visible write failures during the join", n)
	}
	// Every acknowledged write must be readable at >= its acked seq — via
	// the joiner as coordinator, which exercises the streamed state.
	for w := 0; w < writers; w++ {
		for key, seq := range acked[w] {
			gr := binGet(t, joined, key)
			if !gr.Found || gr.Seq < seq {
				t.Fatalf("acknowledged write %q seq %d lost after join (read %+v)", key, seq, gr)
			}
		}
	}
}

// TestForwardedWriteFollowsNewerView pins the forwarding rule that keeps
// writes from failing mid-flip: a forwarded write reaching a node that is
// not the key's primary is forwarded again when that node's ring view is
// newer than the forwarder's, refused when both views have the same epoch
// (a loop), and held while the node waits for the forwarder's newer view.
func TestForwardedWriteFollowsNewerView(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.AddNode(); err != nil { // epoch 2: leaves an older epoch to claim
		t.Fatal(err)
	}
	n := c.Nodes[0]
	epoch := n.RingEpoch()
	key := ""
	for i := 0; key == ""; i++ {
		if k := fmt.Sprintf("fwd-%d", i); n.Membership().Coordinator(k) != n.ID() {
			key = k
		}
	}
	p := newPeer(n.InternalAddr())
	defer p.close()
	put := func(fwd uint64) error {
		_, err := p.ForwardWrite(key, "v", false, fwd)
		return err
	}
	if err := put(epoch - 1); err != nil {
		t.Fatalf("write forwarded under an older view: %v, want it forwarded on to the primary", err)
	}
	if err := put(epoch); clientCode(err) != CodeInternal || !strings.Contains(err.Error(), "forwarding loop") {
		t.Fatalf("write forwarded under the same view: %v, want the forwarding-loop refusal", err)
	}
	start := time.Now()
	if err := put(epoch + 1); clientCode(err) != CodeInternal {
		t.Fatalf("write forwarded under a view that never arrives: %v, want a refusal", err)
	}
	if waited := time.Since(start); waited < 900*time.Millisecond {
		t.Fatalf("refused a write from a newer view after %v, want a wait for that view first", waited)
	}
}

// TestLeaveDrainsRanges removes a member from a populated cluster and
// checks that every key stays readable at its acknowledged version.
func TestLeaveDrainsRanges(t *testing.T) {
	c, err := StartLocal(4, Params{N: 3, R: 2, W: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const keys = 100
	seqs := make(map[string]uint64, keys)
	for i := 0; i < keys; i++ {
		key := fmt.Sprintf("drain-%d", i)
		seqs[key] = binPut(t, c.Nodes[i%4], key, "v").Seq
	}

	if err := c.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	m := c.Membership()
	if m.Size() != 3 || m.Contains(2) {
		t.Fatalf("membership after leave: %v", m)
	}
	for key, seq := range seqs {
		gr := binGet(t, c.Nodes[0], key)
		if !gr.Found || gr.Seq < seq {
			t.Fatalf("key %q lost after leave (read %+v, want seq >= %d)", key, gr, seq)
		}
	}
}

// TestReadSpareFallback pins the read-side mirror of sloppy-quorum spare
// writes: with a preference replica crashed, an R=N read still succeeds
// because the spare holding the crashed replica's hinted writes answers in
// its place.
func TestReadSpareFallback(t *testing.T) {
	c, err := StartLocal(4, Params{N: 3, R: 3, W: 3, Seed: 19, SloppyQuorum: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// A key whose full preference list is {p0, p1, p2} with node `spare`
	// as the one node beyond it.
	var key string
	var prefs []int
	for i := 0; ; i++ {
		key = fmt.Sprintf("spare-read-%d", i)
		prefs = c.Membership().PreferenceList(key, 3)
		if prefs[0] == 0 {
			break
		}
	}
	victim := prefs[1]

	// Crash a non-primary preference replica, then write: W=3 commits via
	// the spare (write-side behavior, PR 4).
	c.Faults().Crash(victim)
	pr := binPut(t, c.Nodes[prefs[0]], key, "survives")

	// R=3 read with the replica still down: without the read-side
	// fallback this 503s (only 2 of 3 preference replicas answer); with
	// it, the spare's response counts toward R.
	gr := binGet(t, c.Nodes[prefs[0]], key)
	if gr.Seq != pr.Seq || gr.Value != "survives" {
		t.Fatalf("spare-fallback read %+v, want seq %d", gr, pr.Seq)
	}
	if got := c.Stats().SpareReads; got < 1 {
		t.Fatalf("SpareReads = %d after a spare-answered read", got)
	}
}
