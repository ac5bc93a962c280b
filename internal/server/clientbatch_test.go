package server

// Batched client-op coverage: multi-key round trips through one frame,
// the per-key verdict split (one key's failure must not fail its batch),
// teardown mid-batch failing every in-flight key exactly once, and a
// pooled-buffer aliasing hammer (run under -race in CI — the names match
// the TestBinClient race-job pattern).

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestBinClientBatchRoundTrip drives MPut/MGet end to end: writes land in
// request order, reads come back index-aligned with missing keys reported
// per key, and tombstones delete through the batch path.
func TestBinClientBatchRoundTrip(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := NewBinClient(c.Nodes[0].selfInternal)
	defer bc.Close()

	ops := make([]BatchPutOp, 20)
	for i := range ops {
		ops[i] = BatchPutOp{Key: fmt.Sprintf("mb%d", i), Value: fmt.Sprintf("val%d", i)}
	}
	prs, epoch, err := mput(bc, ops)
	if err != nil {
		t.Fatalf("mput: %v", err)
	}
	if len(prs) != len(ops) || epoch != 1 {
		t.Fatalf("mput: %d results epoch=%d", len(prs), epoch)
	}
	for i, r := range prs {
		if r.Err != nil || r.Resp.Seq == 0 {
			t.Fatalf("mput op %d: seq=%d err=%v", i, r.Resp.Seq, r.Err)
		}
	}

	keys := make([]string, 0, len(ops)+1)
	for i := range ops {
		keys = append(keys, ops[i].Key)
	}
	keys = append(keys, "mb-missing")
	grs, epoch, err := mget(bc, keys)
	if err != nil {
		t.Fatalf("mget: %v", err)
	}
	if len(grs) != len(keys) || epoch != 1 {
		t.Fatalf("mget: %d results epoch=%d", len(grs), epoch)
	}
	for i := range ops {
		r := grs[i]
		if r.Err != nil || !r.Resp.Found || r.Resp.Value != ops[i].Value || r.Resp.Seq != prs[i].Resp.Seq {
			t.Fatalf("mget key %d: %+v err=%v (want value %q seq %d)",
				i, r.Resp, r.Err, ops[i].Value, prs[i].Resp.Seq)
		}
	}
	if last := grs[len(keys)-1]; last.Err != nil || last.Resp.Found {
		t.Fatalf("mget missing key: found=%v err=%v", last.Resp.Found, last.Err)
	}

	// Tombstones ride the same batch op.
	dels := []BatchPutOp{{Key: ops[0].Key, Tombstone: true}, {Key: ops[1].Key, Tombstone: true}}
	if prs, _, err = mput(bc, dels); err != nil || prs[0].Err != nil || prs[1].Err != nil {
		t.Fatalf("mput tombstones: %v %v %v", err, prs[0].Err, prs[1].Err)
	}
	grs, _, err = mget(bc, []string{ops[0].Key, ops[1].Key, ops[2].Key})
	if err != nil {
		t.Fatalf("mget after delete: %v", err)
	}
	if grs[0].Resp.Found || grs[1].Resp.Found || !grs[2].Resp.Found {
		t.Fatalf("mget after delete: found=%v,%v,%v (want false,false,true)",
			grs[0].Resp.Found, grs[1].Resp.Found, grs[2].Resp.Found)
	}
}

// TestBinClientBatchPartialBadRequest pins the per-key verdict split for
// semantic failures: an oversized value and an empty key each fail their
// own slot with CodeBadRequest while every other op in the batch commits.
func TestBinClientBatchPartialBadRequest(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := NewBinClient(c.Nodes[0].selfInternal)
	defer bc.Close()

	ops := []BatchPutOp{
		{Key: "pb-ok-1", Value: "v1"},
		{Key: "pb-big", Value: strings.Repeat("x", maxValueBytes+1)},
		{Key: "", Value: "v"},
		{Key: "pb-ok-2", Value: "v2"},
	}
	prs, _, err := mput(bc, ops)
	if err != nil {
		t.Fatalf("mput: %v", err)
	}
	for _, i := range []int{0, 3} {
		if prs[i].Err != nil || prs[i].Resp.Seq == 0 {
			t.Fatalf("op %d should have committed: seq=%d err=%v", i, prs[i].Resp.Seq, prs[i].Err)
		}
	}
	for _, i := range []int{1, 2} {
		if prs[i].Err == nil || prs[i].Err.Code != CodeBadRequest || prs[i].Err.Retryable() {
			t.Fatalf("op %d should have failed final CodeBadRequest, got %v", i, prs[i].Err)
		}
	}
	grs, _, err := mget(bc, []string{"pb-ok-1", "pb-ok-2"})
	if err != nil || !grs[0].Resp.Found || !grs[1].Resp.Found {
		t.Fatalf("committed ops not readable: %v %+v %+v", err, grs[0], grs[1])
	}

	// An empty key inside a read batch fails its slot only.
	grs, _, err = mget(bc, []string{"pb-ok-1", ""})
	if err != nil {
		t.Fatalf("mget with empty key: %v", err)
	}
	if grs[0].Err != nil || !grs[0].Resp.Found {
		t.Fatalf("valid key in mixed batch: %+v err=%v", grs[0].Resp, grs[0].Err)
	}
	if grs[1].Err == nil || grs[1].Err.Code != CodeBadRequest {
		t.Fatalf("empty key in mixed batch: %v (want CodeBadRequest)", grs[1].Err)
	}
}

// TestBinClientBatchPartialQuorumFailure pins the verdict split for
// cluster failures: on a 5-node N=3 R=2 W=2 ring with two crashed
// replicas, a key whose replica set lies entirely on the coordinator plus
// the crashed pair fails its quorum with a final CodeQuorumFailed — while
// a key replicated across live nodes, in the same batch, commits.
func TestBinClientBatchPartialQuorumFailure(t *testing.T) {
	c, err := StartLocal(5, Params{N: 3, R: 2, W: 2, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	m := c.Membership()

	// Pick the fail key first (any key node 0 coordinates), crash its two
	// replica peers, then find an ok key node 0 also coordinates whose
	// replicas all stayed live.
	failKey, okKey := "", ""
	var crashed []int
	for i := 0; i < 100000 && failKey == ""; i++ {
		k := fmt.Sprintf("pq%d", i)
		if prefs := m.PreferenceList(k, 3); prefs[0] == 0 {
			failKey, crashed = k, prefs[1:]
		}
	}
	if failKey == "" {
		t.Fatal("no key coordinated by node 0")
	}
	down := map[int]bool{crashed[0]: true, crashed[1]: true}
	for i := 0; i < 100000 && okKey == ""; i++ {
		k := fmt.Sprintf("pq-ok%d", i)
		if prefs := m.PreferenceList(k, 3); prefs[0] == 0 && !down[prefs[1]] && !down[prefs[2]] {
			okKey = k
		}
	}
	if okKey == "" {
		t.Fatal("no fully-live key coordinated by node 0")
	}
	c.Faults().Crash(crashed[0])
	c.Faults().Crash(crashed[1])

	bc := NewBinClient(c.Nodes[0].selfInternal)
	defer bc.Close()
	prs, _, err := mput(bc, []BatchPutOp{
		{Key: okKey, Value: "v-ok"},
		{Key: failKey, Value: "v-fail"},
	})
	if err != nil {
		t.Fatalf("mput: %v", err)
	}
	if prs[0].Err != nil || prs[0].Resp.Seq == 0 {
		t.Fatalf("live-replica key should have committed: %+v err=%v", prs[0].Resp, prs[0].Err)
	}
	if prs[1].Err == nil || prs[1].Err.Code != CodeQuorumFailed || prs[1].Err.Retryable() {
		t.Fatalf("dead-replica key should have failed final CodeQuorumFailed, got %v", prs[1].Err)
	}

	grs, _, err := mget(bc, []string{okKey, failKey})
	if err != nil {
		t.Fatalf("mget: %v", err)
	}
	if grs[0].Err != nil || !grs[0].Resp.Found || grs[0].Resp.Value != "v-ok" {
		t.Fatalf("live-replica read: %+v err=%v", grs[0].Resp, grs[0].Err)
	}
	if grs[1].Err == nil || grs[1].Err.Code != CodeQuorumFailed {
		t.Fatalf("dead-replica read: %v (want CodeQuorumFailed)", grs[1].Err)
	}
}

// TestBinClientBatchTeardownFailsInFlight pins the restart-mid-batch
// contract: every batched call in flight when the connection dies returns
// exactly one whole-batch error — none hang, none half-answer.
func TestBinClientBatchTeardownFailsInFlight(t *testing.T) {
	addr, received, killConns := startStallClientServer(t)
	bc := NewBinClient(addr)
	defer bc.Close()

	const inFlight = 16
	var wg sync.WaitGroup
	errs := make([]error, inFlight)
	outs := make([][]BatchGetResult, inFlight)
	wg.Add(inFlight)
	for i := 0; i < inFlight; i++ {
		go func(i int) {
			defer wg.Done()
			keys := []string{fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i), fmt.Sprintf("c%d", i)}
			outs[i], _, errs[i] = mget(bc, keys)
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for received.Load() < inFlight {
		if time.Now().After(deadline) {
			t.Fatalf("server saw %d/%d batch frames", received.Load(), inFlight)
		}
		time.Sleep(time.Millisecond)
	}
	killConns()

	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("in-flight batched calls hung after connection teardown")
	}
	for i := range errs {
		if errs[i] == nil {
			t.Fatalf("batch %d completed successfully on a dead connection", i)
		}
		if outs[i] != nil {
			t.Fatalf("batch %d returned results alongside its error", i)
		}
	}
}

// TestBinClientBatchAliasing hammers batched ops from many goroutines with
// per-key values: every response slot must carry its own key's value (no
// cross-call or cross-slot reuse on the pooled frame/verdict path; run
// under -race in CI).
func TestBinClientBatchAliasing(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := NewBinClient(c.Nodes[0].selfInternal)
	defer bc.Close()

	const workers = 8
	const rounds = 30
	const batch = 8
	var wg sync.WaitGroup
	wg.Add(workers)
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			ops := make([]BatchPutOp, batch)
			keys := make([]string, batch)
			for i := 0; i < rounds; i++ {
				for j := range ops {
					keys[j] = fmt.Sprintf("al-%d-%d-%d", w, i, j)
					ops[j] = BatchPutOp{Key: keys[j], Value: fmt.Sprintf("v-%d-%d-%d", w, i, j)}
				}
				prs, _, err := mput(bc, ops)
				if err != nil {
					errCh <- fmt.Errorf("mput round %d: %w", i, err)
					return
				}
				for j := range prs {
					if prs[j].Err != nil {
						errCh <- fmt.Errorf("mput round %d op %d: %v", i, j, prs[j].Err)
						return
					}
				}
				grs, _, err := mget(bc, keys)
				if err != nil {
					errCh <- fmt.Errorf("mget round %d: %w", i, err)
					return
				}
				for j := range grs {
					if grs[j].Err != nil || !grs[j].Resp.Found || grs[j].Resp.Value != ops[j].Value {
						errCh <- fmt.Errorf("mget round %d slot %d: found=%v val=%q err=%v (want %q): aliasing?",
							i, j, grs[j].Resp.Found, grs[j].Resp.Value, grs[j].Err, ops[j].Value)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	if err := <-errCh; err != nil {
		t.Fatal(err)
	}
}

// TestOneEntryListVerdicts pins that a single-key operation is a list of
// one: each case the retired single-key opcodes served gives the same
// typed verdict through BinClient's single-key call and through an
// explicit one-entry MPut or MGet — a found and a missing key, a
// tombstone, an empty key, an oversized value, a quorum failure, and a
// crashed coordinator. A verdict is (found, value, seq) for a read, the
// seq's presence for a write, and the client error code either way; a
// crashed coordinator refuses the whole frame, so its code is the call's.
func TestOneEntryListVerdicts(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := keysWithPrimary(t, c, 0, 3, "one-entry-")
	live, dead := keys[0], keys[1]
	bc := NewBinClient(c.Nodes[0].InternalAddr())
	defer bc.Close()
	pr, _, err := bc.Put(live, "v")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := bc.Put(dead, "v"); err != nil {
		t.Fatal(err)
	}
	del, _, err := bc.Delete(dead)
	if err != nil {
		t.Fatal(err)
	}
	crashed := NewBinClient(c.Nodes[1].InternalAddr())
	defer crashed.Close()

	type verdict struct {
		found bool
		value string
		seq   uint64
		code  byte
	}
	read := func(bc *BinClient, key string) (single, list verdict) {
		gr, _, err := bc.Get(key)
		single = verdict{gr.Found, gr.Value, gr.Seq, clientCode(err)}
		res, _, err := mget(bc, []string{key})
		if err != nil {
			return single, verdict{code: clientCode(err)}
		}
		r := res[0].Resp
		list = verdict{r.Found, r.Value, r.Seq, 0}
		if res[0].Err != nil {
			list.code = res[0].Err.Code
		}
		return single, list
	}
	// A write's seq is fresh on every call, so only its presence counts.
	write := func(bc *BinClient, w BatchPutOp) (single, list verdict) {
		var pr PutResponse
		if w.Tombstone {
			pr, _, err = bc.Delete(w.Key)
		} else {
			pr, _, err = bc.Put(w.Key, w.Value)
		}
		single = verdict{seq: min(pr.Seq, 1), code: clientCode(err)}
		res, _, err := mput(bc, []BatchPutOp{w})
		if err != nil {
			return single, verdict{code: clientCode(err)}
		}
		list = verdict{seq: min(res[0].Resp.Seq, 1)}
		if res[0].Err != nil {
			list.code = res[0].Err.Code
		}
		return single, list
	}

	cases := []struct {
		name string
		run  func() (single, list verdict)
		want verdict
	}{
		{"found get", func() (verdict, verdict) { return read(bc, live) }, verdict{true, "v", pr.Seq, 0}},
		{"missing get", func() (verdict, verdict) { return read(bc, "one-entry-missing") }, verdict{}},
		{"tombstone get", func() (verdict, verdict) { return read(bc, dead) }, verdict{false, "", del.Seq, 0}},
		{"empty-key get", func() (verdict, verdict) { return read(bc, "") }, verdict{code: CodeBadRequest}},
		{"empty-key put", func() (verdict, verdict) { return write(bc, BatchPutOp{Value: "v"}) }, verdict{code: CodeBadRequest}},
		{"oversized put", func() (verdict, verdict) {
			return write(bc, BatchPutOp{Key: live, Value: strings.Repeat("x", maxValueBytes+1)})
		}, verdict{code: CodeBadRequest}},
		{"put", func() (verdict, verdict) { return write(bc, BatchPutOp{Key: keys[2], Value: "w"}) }, verdict{seq: 1}},
		{"delete", func() (verdict, verdict) { return write(bc, BatchPutOp{Key: keys[2], Tombstone: true}) }, verdict{seq: 1}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			single, list := tc.run()
			if single != tc.want || list != tc.want {
				t.Fatalf("single-key %+v, one-entry list %+v, want %+v", single, list, tc.want)
			}
		})
	}

	// Node 0 stays live but cannot reach W=2 or R=2; node 1 is a crashed
	// coordinator.
	c.Faults().Crash(1)
	c.Faults().Crash(2)
	faulted := []struct {
		name string
		run  func() (single, list verdict)
		want verdict
	}{
		{"quorum-failed put", func() (verdict, verdict) { return write(bc, BatchPutOp{Key: live, Value: "x"}) }, verdict{code: CodeQuorumFailed}},
		{"quorum-failed get", func() (verdict, verdict) { return read(bc, live) }, verdict{code: CodeQuorumFailed}},
		{"crashed-coordinator put", func() (verdict, verdict) { return write(crashed, BatchPutOp{Key: live, Value: "x"}) }, verdict{code: CodeUnavailable}},
		{"crashed-coordinator get", func() (verdict, verdict) { return read(crashed, live) }, verdict{code: CodeUnavailable}},
	}
	for _, tc := range faulted {
		t.Run(tc.name, func(t *testing.T) {
			single, list := tc.run()
			if single != tc.want || list != tc.want {
				t.Fatalf("single-key %+v, one-entry list %+v, want %+v", single, list, tc.want)
			}
		})
	}
}
