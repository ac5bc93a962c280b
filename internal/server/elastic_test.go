package server

// Tests for elastic membership: live joins with key-range streaming, the
// ring flip, drained leaves, the read-side spare fallback, and the
// hint-log fsync policies.

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbs/internal/kvstore"
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
		httpPut(t, c.HTTPAddrs[i%3], fmt.Sprintf("pre-%d", i), fmt.Sprintf("v%d", i))
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
	pr := httpPut(t, n3.HTTPAddr(), "post-join", "x")
	if gr := httpGet(t, c.HTTPAddrs[0], "post-join"); gr.Seq != pr.Seq || gr.Value != "x" {
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
	// AddNode mutates c.HTTPAddrs; workers use a pre-join copy.
	bases := append([]string(nil), c.HTTPAddrs...)
	acked := make([]map[string]uint64, writers)
	var writeErrs atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		acked[w] = make(map[string]uint64)
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			i := 0
			for {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("load-%d-%d", w, i%keysPerWriter)
				pr, err := httpPutErr(bases[w%3], key, fmt.Sprintf("v-%d", i))
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
			gr := httpGet(t, joined.HTTPAddr(), key)
			if !gr.Found || gr.Seq < seq {
				t.Fatalf("acknowledged write %q seq %d lost after join (read %+v)", key, seq, gr)
			}
		}
	}
}

// httpPutErr is httpPut without the test fatality — load generators need
// to count failures, not abort.
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
	put := func(fwd uint64) (int, string) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPut, n.HTTPAddr()+"/kv/"+key, strings.NewReader("v"))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(forwardedHeader, fmt.Sprint(fwd))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	if st, body := put(epoch - 1); st != http.StatusOK {
		t.Fatalf("write forwarded under an older view: %d %s, want it forwarded on to the primary", st, body)
	}
	if st, body := put(epoch); st != http.StatusInternalServerError || !strings.Contains(body, "forwarding loop") {
		t.Fatalf("write forwarded under the same view: %d %s, want the forwarding-loop refusal", st, body)
	}
	start := time.Now()
	if st, body := put(epoch + 1); st != http.StatusInternalServerError {
		t.Fatalf("write forwarded under a view that never arrives: %d %s, want a refusal", st, body)
	}
	if waited := time.Since(start); waited < 900*time.Millisecond {
		t.Fatalf("refused a write from a newer view after %v, want a wait for that view first", waited)
	}
}

func httpPutErr(base, key, value string) (PutResponse, error) {
	req, err := http.NewRequest(http.MethodPut, base+"/kv/"+key, strings.NewReader(value))
	if err != nil {
		return PutResponse{}, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return PutResponse{}, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return PutResponse{}, fmt.Errorf("PUT %s: %s: %s", key, resp.Status, body)
	}
	var pr PutResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		return PutResponse{}, err
	}
	return pr, nil
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
		seqs[key] = httpPut(t, c.HTTPAddrs[i%4], key, "v").Seq
	}

	if err := c.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	m := c.Membership()
	if m.Size() != 3 || m.Contains(2) {
		t.Fatalf("membership after leave: %v", m)
	}
	for key, seq := range seqs {
		gr := httpGet(t, c.HTTPAddrs[0], key)
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
	pr := httpPut(t, c.HTTPAddrs[prefs[0]], key, "survives")

	// R=3 read with the replica still down: without the read-side
	// fallback this 503s (only 2 of 3 preference replicas answer); with
	// it, the spare's response counts toward R.
	gr := httpGet(t, c.HTTPAddrs[prefs[0]], key)
	if gr.Seq != pr.Seq || gr.Value != "survives" {
		t.Fatalf("spare-fallback read %+v, want seq %d", gr, pr.Seq)
	}
	if got := c.Stats().SpareReads; got < 1 {
		t.Fatalf("SpareReads = %d after a spare-answered read", got)
	}
}

// TestHintFsyncPolicies checks the policy knob end to end: all three
// policies accept appends and survive a clean reopen; an unknown policy is
// rejected at validation.
func TestHintFsyncPolicies(t *testing.T) {
	for _, policy := range []string{HintFsyncAlways, HintFsyncInterval, HintFsyncNever} {
		t.Run(policy, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "hints.log")
			h, err := newDurableHandoff(path, policy)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				h.store(1, kvstore.Version{Key: fmt.Sprintf("k%d", i), Seq: uint64(i + 1), Value: "v"})
			}
			h.closeLog()
			h2, err := newDurableHandoff(path, policy)
			if err != nil {
				t.Fatal(err)
			}
			pending, _, _, _ := h2.stats()
			if pending != 50 {
				t.Fatalf("policy %s: %d hints survived reopen, want 50", policy, pending)
			}
			h2.closeLog()
		})
	}

	p := Params{N: 1, R: 1, W: 1, HintFsync: "sometimes"}
	p.setDefaults()
	if err := p.validateElastic(); err == nil {
		t.Fatal("unknown fsync policy must be rejected")
	}
}

// TestHintLogIntervalReplaysCleanPrefix is the crash-durability property of
// the interval policy: whatever byte prefix of the log survives a crash
// (torn tail included), replay reconstructs exactly the fold of the
// decodable record prefix — never garbage, never a partial record.
func TestHintLogIntervalReplaysCleanPrefix(t *testing.T) {
	path := filepath.Join(t.TempDir(), "hints.log")
	h, err := newDurableHandoff(path, HintFsyncInterval)
	if err != nil {
		t.Fatal(err)
	}
	const records = 64
	for i := 0; i < records; i++ {
		h.store(i%3, kvstore.Version{Key: fmt.Sprintf("k%d", i%7), Seq: uint64(i + 1), Value: "v"})
	}
	h.closeLog()
	full, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate crashes at every truncation point of the surviving
	// prefix: replay must equal the fold of the records wholly contained
	// in the prefix, which is itself a prefix of the full fold.
	for cut := 0; cut <= len(full); cut += 13 {
		pending := replayHintBytes(t, full[:cut])
		for target, kh := range pending {
			for key, v := range kh {
				fullSet := replayHintBytes(t, full)
				fv, ok := fullSet[target][key]
				if !ok || fv.Seq < v.Seq {
					t.Fatalf("cut %d: replayed (%d, %q, seq %d) not subsumed by the full fold", cut, target, key, v.Seq)
				}
			}
		}
	}
	// The whole file folds to the expected newest-per-(target,key) set.
	fullSet := replayHintBytes(t, full)
	n := 0
	for _, kh := range fullSet {
		n += len(kh)
	}
	if n == 0 {
		t.Fatal("full replay recovered nothing")
	}
}

func replayHintBytes(t *testing.T, b []byte) map[int]map[string]kvstore.Version {
	t.Helper()
	f, err := os.CreateTemp(t.TempDir(), "prefix")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(b); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Seek(0, 0); err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	pending, _ := replayHints(f)
	return pending
}
