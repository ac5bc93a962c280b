package server

// Timer-driven injected legs on the worker path: injected WARS delays must
// overlap across legs and operations without a goroutine per leg, and a
// node closing while delay timers are armed must still answer every
// waiting coordinator. Run under -race in CI (the TestWorkerPath regex).

import (
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"testing"
	"time"

	"pbs/internal/dist"
)

// pointModel injects exactly d ms on every W, A, R and S leg.
func pointModel(d float64) *dist.LatencyModel {
	p := dist.Point{V: d}
	return &dist.LatencyModel{Name: fmt.Sprintf("point(%g)", d), W: p, A: p, R: p, S: p}
}

// runConcurrentOps starts ops coordinated operations on n at once — writes
// on even indexes, reads on odd ones — and returns each one's
// coordinator-measured latency and error once all have returned. sample,
// when set, runs while the operations are in flight.
func runConcurrentOps(n *Node, prefix string, ops int, sample func()) (lat []float64, errs []error) {
	lat, errs = make([]float64, ops), make([]error, ops)
	v := n.view()
	start := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(ops)
	for i := 0; i < ops; i++ {
		go func(i int) {
			defer wg.Done()
			<-start
			key := fmt.Sprintf("%s-%d", prefix, i/2)
			if i%2 == 0 {
				ops := []putOp{{BatchPutOp: BatchPutOp{Key: key, Value: "v"}}}
				n.coordinateWrites(v, ops, false)
				lat[i] = ops[0].pr.CoordMs
				if ops[0].oe != nil {
					errs[i] = ops[0].oe
				}
				return
			}
			res := make([]BatchGetResult, 1)
			errs[i] = decodeClientMGetBody(n.coordinateReads([]getOp{{key: []byte(key)}}, nil), res)
			lat[i] = res[0].Resp.CoordMs
			if errs[i] == nil && res[0].Err != nil {
				errs[i] = res[0].Err
			}
		}(i)
	}
	close(start)
	if sample != nil {
		sample()
	}
	wg.Wait()
	return lat, errs
}

// TestWorkerPathInjectedLegsOverlap: with d ms injected on every leg and
// far more concurrent operations than a peer has leg workers, every
// operation still completes in about W+A (or R+S) = 2d — the delays are
// timers, not worker-held sleeps — the goroutine count stays near one per
// operation rather than one per leg, and /wars records the injected legs.
func TestWorkerPathInjectedLegsOverlap(t *testing.T) {
	const d = 40.0
	c, err := StartLocal(3, Params{N: 3, R: 3, W: 3, Seed: 5, Model: pointModel(d), WARSSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Nodes[0]
	// Warm up: start every peer's leg workers and mux connections.
	if _, errs := runConcurrentOps(n, "warm", 6, nil); errs[0] != nil || errs[1] != nil {
		t.Fatalf("warm-up: %v %v", errs[0], errs[1])
	}

	ops := 4*legWorkersPerPeer + 8
	base := runtime.NumGoroutine()
	peak := 0
	began := time.Now()
	lat, errs := runConcurrentOps(n, "overlap", ops, func() {
		// Mid-way through the request delay every leg is an armed timer.
		time.Sleep(time.Duration(d/2) * time.Millisecond)
		peak = runtime.NumGoroutine() - base
	})
	wall := durationMs(time.Since(began))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	// Serialized behind the workers, ops/workers rounds of 2d each would
	// take at least 8d; overlapped, every op takes 2d plus loopback time.
	for i, ms := range lat {
		if ms < 2*d || ms > 4*d {
			t.Errorf("op %d: coordinator latency %.1fms, want in [%g, %g]", i, ms, 2*d, 4*d)
		}
	}
	if wall > 4*d {
		t.Errorf("%d concurrent ops took %.1fms, want < %gms", ops, wall, 4*d)
	}
	// One goroutine per operation, plus slack for transient runtime and
	// connection goroutines; a goroutine per leg would add 3 per op.
	if limit := ops + 32; peak > limit {
		t.Errorf("%d goroutines above baseline with %d ops in flight, want <= %d", peak, ops, limit)
	}

	resp, err := http.Get(c.HTTPAddrs[0] + "/wars")
	if err != nil {
		t.Fatal(err)
	}
	var wr WARSResponse
	if err := decodeJSON(resp, &wr); err != nil {
		t.Fatal(err)
	}
	if len(wr.W) == 0 || len(wr.R) == 0 || len(wr.W) != len(wr.A) || len(wr.R) != len(wr.S) {
		t.Fatalf("leg samples W=%d A=%d R=%d S=%d", len(wr.W), len(wr.A), len(wr.R), len(wr.S))
	}
	for i := range wr.W {
		if wr.W[i] < d || wr.A[i] != d {
			t.Fatalf("write leg %d: W=%.3f A=%.3f, want W >= %g and A = %g", i, wr.W[i], wr.A[i], d, d)
		}
	}
	for i := range wr.R {
		if wr.R[i] < d || wr.S[i] != d {
			t.Fatalf("read leg %d: R=%.3f S=%.3f, want R >= %g and S = %g", i, wr.R[i], wr.S[i], d, d)
		}
	}
}

// TestWorkerPathCloseWithArmedLegs closes a cluster while one group of
// operations waits on armed request-delay timers and another on armed
// response-delay timers. Every waiting coordinator must return, no
// goroutine may outlive the delays, and a task must never sit in the pool
// with its timer still armed (it would be reused before its outcome was
// delivered).
func TestWorkerPathCloseWithArmedLegs(t *testing.T) {
	const d = 60.0
	base := runtime.NumGoroutine()
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 9, Model: pointModel(d)})
	if err != nil {
		t.Fatal(err)
	}
	n := c.Nodes[0]

	stopProbe := make(chan struct{})
	probeDone := make(chan error, 1)
	go func() {
		// Pull tasks from the pool and check none has an armed timer.
		for {
			select {
			case <-stopProbe:
				probeDone <- nil
				return
			default:
			}
			lt := legTaskPool.Get().(*legTask)
			if lt.timer != nil && lt.timer.Stop() {
				probeDone <- fmt.Errorf("pooled leg task with an armed timer")
				return
			}
			legTaskPool.Put(lt)
			time.Sleep(100 * time.Microsecond)
		}
	}()

	const ops = 24
	var wg sync.WaitGroup
	results := make([][]error, 2)
	for g, delay := range []time.Duration{0, time.Duration(2*d/3) * time.Millisecond} {
		wg.Add(1)
		go func(g int, delay time.Duration) {
			defer wg.Done()
			time.Sleep(delay)
			_, results[g] = runConcurrentOps(n, fmt.Sprintf("close%d", g), ops, nil)
		}(g, delay)
	}
	// At 4d/3 the first group is inside its response delay and the second
	// inside its request delay.
	time.Sleep(time.Duration(4*d/3) * time.Millisecond)
	c.Close()

	returned := make(chan struct{})
	go func() { wg.Wait(); close(returned) }()
	select {
	case <-returned:
	case <-time.After(5 * time.Second):
		t.Fatal("coordinators still waiting 5s after Close")
	}
	close(stopProbe)
	if err := <-probeDone; err != nil {
		t.Fatal(err)
	}
	// The first group's legs delivered before Close or during it; the
	// second group's reached closed peers. Either way each op has a verdict
	// (success or a quorum failure), which returning at all proves.
	t.Logf("group errors: %d/%d before-close group, %d/%d after-close group",
		countErrs(results[0]), ops, countErrs(results[1]), ops)

	deadline := time.Now().Add(5 * time.Second)
	for {
		left := runtime.NumGoroutine() - base
		if left <= 2 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%d goroutines above the pre-cluster baseline after Close:\n%s", left, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func countErrs(errs []error) int {
	k := 0
	for _, err := range errs {
		if err != nil {
			k++
		}
	}
	return k
}
