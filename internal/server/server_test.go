package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"pbs/internal/dist"
)

// binPutErr writes through a node's binary client protocol.
func binPutErr(n *Node, key, value string) (PutResponse, error) {
	bc := NewBinClient(n.InternalAddr())
	defer bc.Close()
	pr, _, err := bc.Put(key, value)
	return pr, err
}

// binPut is binPutErr failing the test on any error.
func binPut(t *testing.T, n *Node, key, value string) PutResponse {
	t.Helper()
	pr, err := binPutErr(n, key, value)
	if err != nil {
		t.Fatalf("PUT %s: %v", key, err)
	}
	return pr
}

func binGet(t *testing.T, n *Node, key string) GetResponse {
	t.Helper()
	bc := NewBinClient(n.InternalAddr())
	defer bc.Close()
	gr, _, err := bc.Get(key)
	if err != nil {
		t.Fatalf("GET %s: %v", key, err)
	}
	return gr
}

// clientCode returns err's client-protocol error code (0 if err is not a
// typed client error).
func clientCode(err error) byte {
	var ce *ClientError
	if errors.As(err, &ce) {
		return ce.Code
	}
	return 0
}

func TestPutGetRoundtrip(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	pr := binPut(t, c.Nodes[0], "alpha", "one")
	if pr.Seq != 1 {
		t.Fatalf("first write got seq %d", pr.Seq)
	}
	if pr.CommittedUnixNano == 0 || pr.CoordMs < 0 {
		t.Fatalf("bad commit metadata: %+v", pr)
	}
	gr := binGet(t, c.Nodes[1], "alpha")
	if !gr.Found || gr.Value != "one" || gr.Seq != 1 {
		t.Fatalf("read %+v, want found seq=1 value=one", gr)
	}

	// Versions advance, any coordinator observes them (strict quorum).
	pr = binPut(t, c.Nodes[2], "alpha", "two")
	if pr.Seq != 2 {
		t.Fatalf("second write got seq %d", pr.Seq)
	}
	gr = binGet(t, c.Nodes[0], "alpha")
	if gr.Value != "two" || gr.Seq != 2 {
		t.Fatalf("read %+v after second write", gr)
	}

	// Missing keys report not-found with seq 0.
	gr = binGet(t, c.Nodes[0], "missing")
	if gr.Found || gr.Seq != 0 {
		t.Fatalf("missing key read %+v", gr)
	}
}

// TestStrictQuorumAlwaysConsistent checks the partial-quorum guarantee the
// paper builds on: with R+W > N a read issued after commit intersects the
// write quorum and can never return a stale version, even under write
// propagation delays that leave most replicas behind.
func TestStrictQuorumAlwaysConsistent(t *testing.T) {
	model := dist.LatencyModel{
		Name: "slow-writes",
		W:    dist.NewUniform(2, 60), // high-variance propagation
		A:    dist.NewUniform(0.05, 0.5),
		R:    dist.NewUniform(0.05, 0.5),
		S:    dist.NewUniform(0.05, 0.5),
	}
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Model: &model, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	for e := 0; e < 25; e++ {
		key := fmt.Sprintf("strict-%d", e)
		pr := binPut(t, c.Nodes[e%3], key, "v")
		gr := binGet(t, c.Nodes[(e+1)%3], key)
		if gr.Seq < pr.Seq {
			t.Fatalf("strict quorum returned stale version: wrote seq %d, read seq %d", pr.Seq, gr.Seq)
		}
	}
}

// TestPartialQuorumObservesStaleness drives R=W=1 under slow, high-variance
// write propagation: reads immediately after commit frequently land on
// replicas the write has not reached yet.
func TestPartialQuorumObservesStaleness(t *testing.T) {
	model := dist.LatencyModel{
		Name: "slow-writes",
		W:    dist.NewUniform(5, 80),
		A:    dist.NewUniform(0.05, 0.5),
		R:    dist.NewUniform(0.05, 2), // variance breaks response-order ties
		S:    dist.NewUniform(0.05, 2),
	}
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 1, Model: &model, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	stale := 0
	const epochs = 60
	var wg sync.WaitGroup
	var mu sync.Mutex
	sem := make(chan struct{}, 8)
	for e := 0; e < epochs; e++ {
		sem <- struct{}{}
		wg.Add(1)
		go func(e int) {
			defer func() { <-sem; wg.Done() }()
			key := fmt.Sprintf("partial-%d", e)
			pr := binPut(t, c.Nodes[e%3], key, "v")
			gr := binGet(t, c.Nodes[(e+1)%3], key)
			if gr.Seq < pr.Seq {
				mu.Lock()
				stale++
				mu.Unlock()
			}
		}(e)
	}
	wg.Wait()
	if stale == 0 {
		t.Fatalf("no stale reads in %d epochs of R=W=1 under 5-80ms write skew; staleness injection is broken", epochs)
	}
}

func TestReadRepairConverges(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 3, W: 3, ReadRepair: true, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	binPut(t, c.Nodes[0], "rr", "old")
	// One replica diverges ahead of the others.
	if !c.InjectVersion(1, "rr", 9, "newer") {
		t.Fatal("inject failed")
	}
	gr := binGet(t, c.Nodes[0], "rr")
	if gr.Seq != 9 || gr.Value != "newer" {
		t.Fatalf("R=N read missed the divergent replica: %+v", gr)
	}
	// Read repair runs in the background after the response; poll for
	// convergence of every replica.
	deadline := time.Now().Add(5 * time.Second)
	for {
		allCaughtUp := true
		for node := 0; node < 3; node++ {
			if c.ReplicaSeq(node, "rr") != 9 {
				allCaughtUp = false
			}
		}
		if allCaughtUp {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replicas did not converge to seq 9: [%d %d %d]",
				c.ReplicaSeq(0, "rr"), c.ReplicaSeq(1, "rr"), c.ReplicaSeq(2, "rr"))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStalenessDetectorFlags checks Section 4.3's asynchronous detector:
// when a late response is newer than the returned value, the coordinator
// counts a possible-staleness flag.
func TestStalenessDetectorFlags(t *testing.T) {
	model := dist.LatencyModel{
		Name: "tie-breaker",
		W:    dist.NewUniform(0.05, 0.3),
		A:    dist.NewUniform(0.05, 0.3),
		R:    dist.NewUniform(0.05, 1.5),
		S:    dist.NewUniform(0.05, 1.5),
	}
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 1, Model: &model, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	binPut(t, c.Nodes[0], "det", "base")
	c.InjectVersion(2, "det", 50, "future")

	// R=1 reads race: when the first responder is a lagging replica, the
	// late newer response must raise a flag.
	for i := 0; i < 60; i++ {
		binGet(t, c.Nodes[i%3], "det")
	}
	// Flags are counted in a background goroutine; give stragglers a beat.
	deadline := time.Now().Add(5 * time.Second)
	for {
		var flags int64
		for _, n := range c.Nodes {
			flags += n.detectorFlags.Load()
		}
		if flags > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("no detector flags after 60 R=1 reads against a divergent replica")
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSeqAssignmentSerializesPerKey(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 1, W: 1, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const writers, per = 8, 10
	seqs := make(chan uint64, writers*per)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < per; i++ {
				// All writers target one key through its primary coordinator
				// (any node would route the same way via the client; here we
				// exercise the coordinator directly).
				pr := binPut(t, c.Nodes[0], "contended", "v")
				seqs <- pr.Seq
			}
		}()
	}
	wg.Wait()
	close(seqs)
	seen := make(map[uint64]bool)
	for s := range seqs {
		if seen[s] {
			t.Fatalf("duplicate sequence number %d", s)
		}
		seen[s] = true
	}
	if len(seen) != writers*per {
		t.Fatalf("%d distinct seqs, want %d", len(seen), writers*per)
	}
}

// TestPutForwardsToPrimary pins the fix for cross-coordinator version
// forks: PUTs arriving at any node are forwarded to the key's primary
// coordinator, so concurrent writes through different nodes still receive
// unique, serialized sequence numbers.
func TestPutForwardsToPrimary(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 3, W: 3, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const writers, per = 6, 10
	seqs := make(chan uint64, 3*writers*per)
	var wg sync.WaitGroup
	for node := 0; node < 3; node++ {
		for w := 0; w < writers; w++ {
			wg.Add(1)
			go func(node int) {
				defer wg.Done()
				for i := 0; i < per; i++ {
					// Same key through every node: only the primary may
					// assign versions.
					seqs <- binPut(t, c.Nodes[node], "forwarded", "v").Seq
				}
			}(node)
		}
	}
	wg.Wait()
	close(seqs)
	seen := make(map[uint64]bool)
	for s := range seqs {
		if seen[s] {
			t.Fatalf("duplicate sequence number %d assigned across coordinators", s)
		}
		seen[s] = true
	}
	if len(seen) != 3*writers*per {
		t.Fatalf("%d distinct seqs, want %d", len(seen), 3*writers*per)
	}
	// With R=W=N the history must also have converged everywhere.
	for node := 0; node < 3; node++ {
		if got := c.ReplicaSeq(node, "forwarded"); got != uint64(3*writers*per) {
			t.Fatalf("node %d at seq %d, want %d", node, got, 3*writers*per)
		}
	}
}

// TestPutRejectsOversizedValue pins the bad-request verdict on values
// beyond the 1 MiB cap (previously the body was silently truncated and
// stored).
func TestPutRejectsOversizedValue(t *testing.T) {
	c, err := StartLocal(1, Params{N: 1, R: 1, W: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	big := strings.Repeat("x", maxValueBytes+1)
	if _, err := binPutErr(c.Nodes[0], "big", big); clientCode(err) != CodeBadRequest {
		t.Fatalf("oversized PUT got %v, want a CodeBadRequest verdict", err)
	}
	gr := binGet(t, c.Nodes[0], "big")
	if gr.Found {
		t.Fatal("truncated value was stored despite rejection")
	}
}

func TestConfigStatsHealth(t *testing.T) {
	c, err := StartLocal(4, Params{N: 3, R: 2, W: 1, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	resp, err := http.Get(c.HTTPAddrs[2] + "/config")
	if err != nil {
		t.Fatal(err)
	}
	var cfg ConfigResponse
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if cfg.N != 3 || cfg.R != 2 || cfg.W != 1 || len(cfg.Members) != 4 {
		t.Fatalf("config %+v", cfg)
	}

	binPut(t, c.Nodes[0], "s", "v")
	binGet(t, c.Nodes[0], "s")
	// The write may have been forwarded to its primary coordinator; the
	// cluster-wide totals must account for exactly one of each.
	var writes, reads int64
	for node := 0; node < 4; node++ {
		resp, err = http.Get(c.HTTPAddrs[node] + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var st StatsResponse
		if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		writes += st.CoordWrites
		reads += st.CoordReads
	}
	if writes != 1 || reads != 1 {
		t.Fatalf("cluster-wide stats: %d writes, %d reads, want 1 and 1", writes, reads)
	}

	resp, err = http.Get(c.HTTPAddrs[3] + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz %s", resp.Status)
	}
}

func TestStartLocalValidation(t *testing.T) {
	cases := []struct {
		nodes int
		p     Params
	}{
		{0, Params{N: 1, R: 1, W: 1}},
		{3, Params{N: 4, R: 1, W: 1}},
		{3, Params{N: 3, R: 0, W: 1}},
		{3, Params{N: 3, R: 1, W: 4}},
	}
	for _, tc := range cases {
		if _, err := StartLocal(tc.nodes, tc.p); err == nil {
			t.Fatalf("nodes=%d %+v accepted", tc.nodes, tc.p)
		}
	}
}
