package conformance

// Elastic-membership conformance: a node joining a loaded cluster through
// the live protocol (bootstrap, key-range streaming, ring flip, delta
// passes) must be invisible to correctness — zero client-visible write
// failures, zero lost acknowledged writes — and invisible to the model:
// after the flip the measured t-visibility curve must sit back in the
// fault-free prediction band, because the WARS model knows nothing about
// membership churn.

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbs/internal/client"
	"pbs/internal/rng"
	"pbs/internal/server"
	"pbs/internal/wars"
)

func TestJoinConformance(t *testing.T) {
	model := expModel(16, 8)
	pred, err := wars.Simulate(wars.NewIID(3, model), wars.Config{R: 1, W: 1},
		predictionTrials, rng.New(211))
	if err != nil {
		t.Fatal(err)
	}

	cl, err := server.StartLocal(3, server.Params{
		N: 3, R: 1, W: 1, Model: &model, Seed: 29,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := client.DialBinary(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}

	// Continuous write load across the join window. Each worker tracks the
	// highest acknowledged seq per key — the contract the join must keep.
	const workers = 6
	type ack struct {
		key string
		seq uint64
	}
	var (
		ackMu    sync.Mutex
		acked    = make(map[string]uint64)
		failures atomic.Int64
		stop     = make(chan struct{})
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("join-load-%d-%d", w, i%32)
				pr, err := c.Put(key, fmt.Sprintf("v%d", i))
				if err != nil {
					failures.Add(1)
					continue
				}
				ackMu.Lock()
				if pr.Seq > acked[key] {
					acked[key] = pr.Seq
				}
				ackMu.Unlock()
			}
		}(w)
	}

	time.Sleep(300 * time.Millisecond)
	joined, err := cl.AddNode() // the scripted join, mid-load
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	close(stop)
	wg.Wait()

	if f := failures.Load(); f != 0 {
		t.Errorf("%d client-visible write failures during the join", f)
	}
	if got := joined.Membership().Size(); got != 4 {
		t.Fatalf("cluster has %d members after join", got)
	}

	// Zero lost acknowledged writes: every acked (key, seq) is readable at
	// or above its acknowledged version through the refreshed ring —
	// including reads the joiner coordinates. R=1 reads may race the last
	// writes' propagation, so allow the detector's own convergence time.
	if err := c.Refresh(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		lost := 0
		ackMu.Lock()
		snapshot := make([]ack, 0, len(acked))
		for k, s := range acked {
			snapshot = append(snapshot, ack{k, s})
		}
		ackMu.Unlock()
		for _, a := range snapshot {
			gr, err := c.Get(a.key)
			if err != nil || !gr.Found || gr.Seq < a.seq {
				lost++
			}
		}
		if lost == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d acknowledged writes unreadable at their acked version after the join", lost, len(snapshot))
		}
		time.Sleep(50 * time.Millisecond)
	}

	// The probe curve returns to the fault-free band: membership churn
	// settled, the 4-member ring still realizes the same WARS behavior at
	// N=3.
	rmse := probeBand(t, c, pred, 420, "post-join-")
	t.Logf("post-join t-visibility RMSE: %.2f%%", rmse*100)
	if limit := faultCurveLimit(); rmse > limit {
		t.Errorf("post-join RMSE %.2f%% exceeds %.0f%%", rmse*100, limit*100)
	}
}
