package server

// Zero-copy GET: a replica's answer stays in the pooled frame it arrived
// in until its read state is released, and the winning value is copied
// once, into the client response, before the read counts as answered.
// TestGetAllocBudget pins what that buys; TestGetStragglerOwnership pins
// the ownership rules that keep it safe. Both run under -race in CI (the
// TestGetAlloc and TestGetStraggler regexes).

import (
	"fmt"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbs/internal/ring"
)

// keyedValue is value number i of key: it names its key and number, padded
// to about 100 bytes so a reused buffer overwrites all of it.
func keyedValue(key string, i int64) string {
	v := key + "#" + strconv.FormatInt(i, 10) + "#"
	return v + strings.Repeat("x", max(0, 100-len(v)))
}

// parseKeyedValue returns the key and number a keyedValue names.
func parseKeyedValue(v string) (key string, i int64, ok bool) {
	parts := strings.SplitN(v, "#", 3)
	if len(parts) != 3 {
		return "", 0, false
	}
	i, err := strconv.ParseInt(parts[1], 10, 64)
	return parts[0], i, err == nil
}

// TestGetAllocBudget: one coordinated GET on an in-process 3-node
// in-memory cluster (N=3, R=2, W=2) — a read list of one — costs at most
// 1 heap allocation end to end, client included: the client's copy of the
// value. The list's entries live in pooled scratch, the coordinator's
// preference list in stack scratch, and an in-memory replica's get costs
// none.
func TestGetAllocBudget(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Nodes[0]
	bc := NewBinClient(n.InternalAddr())
	defer bc.Close()
	keys := []string{"k0000001", "k0000002", "k0000003", "k0000004"}
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = keyedValue(k, 1)
		if _, _, err := bc.Put(k, vals[i]); err != nil {
			t.Fatal(err)
		}
	}

	t.Run("coordinated_get", func(t *testing.T) {
		for i := 0; i < 200; i++ { // warm the pools, workers and connections
			if _, _, err := bc.Get(keys[i%len(keys)]); err != nil {
				t.Fatal(err)
			}
		}
		i := 0
		allocs := testing.AllocsPerRun(1000, func() {
			i++
			k := i % len(keys)
			gr, _, err := bc.Get(keys[k])
			if err != nil || !gr.Found || gr.Value != vals[k] {
				t.Fatalf("GET %s = %+v, %v", keys[k], gr, err)
			}
		})
		t.Logf("%.2f allocs per coordinated GET", allocs)
		if raceEnabled {
			t.Log("budget not enforced under the race detector")
			return
		}
		if allocs > 1 {
			t.Fatalf("%.2f allocs per coordinated GET, want <= 1", allocs)
		}
	})

	t.Run("preference_list", func(t *testing.T) {
		v := n.view()
		key := []byte(keys[0])
		var pbuf [maxStackPrefs]int
		if got, want := n.prefs(pbuf[:0], v, ring.Hash(key)), v.m.PreferenceList(keys[0], 3); fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("prefs = %v, want %v", got, want)
		}
		if allocs := testing.AllocsPerRun(100, func() { n.prefs(pbuf[:0], v, ring.Hash(key)) }); allocs != 0 {
			t.Fatalf("%.1f allocs per preference list, want 0", allocs)
		}
	})

	t.Run("replica_get", func(t *testing.T) {
		hit := appendGet(nil, [][]byte{[]byte(keys[0])})
		miss := appendGet(nil, [][]byte{[]byte("absent")})
		buf := make([]byte, 0, 256)
		if status, resp := n.handlePeerOp(opGet, hit, buf); status != statusOK ||
			string((&decoder{b: resp}).readAnswer([]byte(keys[0])).value) != vals[0] {
			t.Fatalf("replica get = %d %q", status, resp)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			n.handlePeerOp(opGet, hit, buf)
			n.handlePeerOp(opGet, miss, buf)
		}); allocs != 0 {
			t.Fatalf("%.1f allocs per in-memory replica get, want 0", allocs)
		}
	})
}

// TestPutAllocBudget: one coordinated PUT of a key the coordinator
// already tracks, on the cluster TestGetAllocBudget uses, costs at most 10
// heap allocations end to end (12.00 when every write built and boxed a
// fresh key entry before finding the existing one).
func TestPutAllocBudget(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := NewBinClient(c.Nodes[0].InternalAddr())
	defer bc.Close()
	keys := []string{"k0000001", "k0000002", "k0000003", "k0000004"}
	vals := make([]string, len(keys))
	for i, k := range keys {
		vals[i] = keyedValue(k, 1)
	}
	put := func(i int) {
		k := i % len(keys)
		if pr, _, err := bc.Put(keys[k], vals[k]); err != nil || pr.Seq == 0 {
			t.Fatalf("PUT %s = %+v, %v", keys[k], pr, err)
		}
	}
	for i := 0; i < 200; i++ { // track every key; warm the pools, workers and connections
		put(i)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		put(i)
	})
	t.Logf("%.2f allocs per coordinated PUT", allocs)
	if raceEnabled {
		t.Log("budget not enforced under the race detector")
		return
	}
	if allocs > 10 {
		t.Fatalf("%.2f allocs per coordinated PUT, want <= 10", allocs)
	}
}

// TestMGetAllocBytes: a 64-key MGET of ~100-byte values on the cluster
// TestGetAllocBudget uses allocates at most half the bytes it did when
// each replica's batch answer and the coordinator's reply outgrew their
// 256-byte pooled scratch by append and were dropped to the collector.
func TestMGetAllocBytes(t *testing.T) {
	// Measured with this test when answers grew by append: 156408 to
	// 158011 B per MGET in three runs.
	const grownByAppend = 157000
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	bc := NewBinClient(c.Nodes[0].InternalAddr())
	defer bc.Close()
	keys := make([]string, 64)
	ops := make([]BatchPutOp, len(keys))
	for i := range keys {
		keys[i] = fmt.Sprintf("k%07d", i)
		ops[i] = BatchPutOp{Key: keys[i], Value: keyedValue(keys[i], 1)}
	}
	if _, _, err := mput(bc, ops); err != nil {
		t.Fatal(err)
	}
	mget := func() {
		res, _, err := mget(bc, keys)
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range res {
			if r.Err != nil || !r.Resp.Found || r.Resp.Value != ops[i].Value {
				t.Fatalf("MGET %s = %+v", keys[i], r)
			}
		}
	}
	for i := 0; i < 200; i++ { // warm the pools, workers and connections
		mget()
	}
	const runs = 1000
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		mget()
	}
	runtime.ReadMemStats(&after)
	perOp := float64(after.TotalAlloc-before.TotalAlloc) / runs
	t.Logf("%.0f bytes allocated per 64-key MGET", perOp)
	if raceEnabled {
		t.Log("budget not enforced under the race detector")
		return
	}
	if perOp > grownByAppend/2 {
		t.Fatalf("%.0f bytes allocated per 64-key MGET, want <= %d", perOp, grownByAppend/2)
	}
}

// TestGetStragglerOwnership: many single-key and batched reads race a slow
// third leg (every leg to node 2 is delayed) that lands after the read is
// answered and finalizes it with read repair on, repooling every answer
// buffer while other reads reuse them. Every value returned must belong to
// its key and be no older than the newest write acked before the read
// began (R+W > N), nor newer than the newest write begun; once writes stop
// every read must return exactly the newest acked write. Copying the
// winner after the read is marked answered, or repooling an answer before
// finalize, hands reads values of other keys (and races under -race).
func TestGetStragglerOwnership(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 11, ReadRepair: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	clients := make([]*BinClient, len(c.Nodes))
	for i, n := range c.Nodes {
		clients[i] = NewBinClient(n.InternalAddr())
		defer clients[i].Close()
	}
	const nkeys = 16
	keys := make([]string, nkeys)
	var begun, acked [nkeys]atomic.Int64
	for k := range keys {
		keys[k] = fmt.Sprintf("straggle-%02d", k)
		begun[k].Store(1)
		if _, _, err := clients[0].Put(keys[k], keyedValue(keys[k], 1)); err != nil {
			t.Fatal(err)
		}
		acked[k].Store(1)
	}
	c.Faults().SetDelay(2, 0.2)

	errs := make(chan error, 64)
	check := func(k int, lo int64, gr GetResponse) bool {
		hi := begun[k].Load()
		key, i, ok := parseKeyedValue(gr.Value)
		switch {
		case !gr.Found || !ok || key != keys[k]:
			errs <- fmt.Errorf("GET %s returned found=%v value %.40q: not a value of this key", keys[k], gr.Found, gr.Value)
		case i < lo || i > hi:
			errs <- fmt.Errorf("GET %s returned write %d, want within [%d, %d]", keys[k], i, lo, hi)
		case gr.Value != keyedValue(keys[k], i):
			errs <- fmt.Errorf("GET %s returned a damaged value %.40q", keys[k], gr.Value)
		default:
			return true
		}
		return false
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for k := range keys {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			bc := clients[k%len(clients)]
			for i := int64(2); ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				begun[k].Store(i)
				if _, _, err := bc.Put(keys[k], keyedValue(keys[k], i)); err != nil {
					errs <- fmt.Errorf("PUT %s #%d: %w", keys[k], i, err)
					return
				}
				acked[k].Store(i)
			}
		}(k)
	}
	const readers = 8
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			bc := clients[r%len(clients)]
			for op := r; ; op++ {
				select {
				case <-stop:
					return
				default:
				}
				if op%4 != 0 {
					k := op % nkeys
					lo := acked[k].Load()
					gr, _, err := bc.Get(keys[k])
					if err != nil {
						errs <- fmt.Errorf("GET %s: %w", keys[k], err)
						return
					}
					if !check(k, lo, gr) {
						return
					}
					continue
				}
				// A batch of four keys rides the batch legs.
				ks := make([]string, 4)
				var los [4]int64
				for j := range ks {
					k := (op + j*5) % nkeys
					ks[j], los[j] = keys[k], acked[k].Load()
				}
				res, _, err := mget(bc, ks)
				if err != nil {
					errs <- fmt.Errorf("MGET %v: %w", ks, err)
					return
				}
				for j, x := range res {
					if x.Err != nil {
						errs <- fmt.Errorf("MGET %s: %v", ks[j], x.Err)
						return
					}
					if !check((op+j*5)%nkeys, los[j], x.Resp) {
						return
					}
				}
			}
		}(r)
	}
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	// Quiescent: every read through every coordinator returns exactly the
	// newest acked write.
	for k, key := range keys {
		want := keyedValue(key, acked[k].Load())
		for _, bc := range clients {
			if gr, _, err := bc.Get(key); err != nil || !gr.Found || gr.Value != want {
				t.Fatalf("quiescent GET %s = %.40q, %v; want %.40q", key, gr.Value, err, want)
			}
		}
	}
	st := c.Stats()
	if st.CoordReads == 0 || st.ReadRepairs == 0 {
		t.Fatalf("reads=%d repairs=%d: the slow leg never finalized a read with a repair", st.CoordReads, st.ReadRepairs)
	}
	t.Logf("%d coordinated reads, %d read repairs, %d detector flags", st.CoordReads, st.ReadRepairs, st.DetectorFlags)
}
