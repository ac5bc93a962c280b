package server

// Raw internal-RPC benchmark hook for the serving bench harness
// (internal/smoke). End-to-end PUT/GET cells measure the whole serving
// stack; this hook measures the data-plane transport alone — concurrent
// mux RPCs against a live node — undiluted by client-front-end and
// coordinator cost.

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/kvstore"
)

// RPCBenchResult is one raw-transport cell: conc concurrent callers
// hammering a single op type at one node for a fixed window.
type RPCBenchResult struct {
	Op          string  `json:"op"` // "apply" or "get"
	Conc        int     `json:"conc"`
	Ops         int64   `json:"ops"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Micros   float64 `json:"p50_us"`
	P999Micros  float64 `json:"p999_us"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// BenchInternalRPC drives conc concurrent callers issuing one internal
// data-plane RPC type (replica applies, or version reads when read is
// true) against the last node of the cluster for the given window, over a
// fresh multiplexed peer.
func (c *Cluster) BenchInternalRPC(read bool, conc int, d time.Duration) (RPCBenchResult, error) {
	p := newPeer(c.Nodes[len(c.Nodes)-1].selfInternal)
	defer p.close()

	res := RPCBenchResult{Op: "apply", Conc: conc}
	if read {
		res.Op = "get"
	}

	var ops atomic.Int64
	var failed atomic.Value
	lats := make([][]float64, conc)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var memBefore, memAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for w := 0; w < conc; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("rb%d", (w*131+i)%256)
				t0 := time.Now()
				var err error
				if read {
					_, _, err = p.GetVersion(key)
				} else {
					v := kvstore.Version{
						Key: key, Seq: uint64(i + 1),
						Value: "serving-bench-value-0123456789abcdef",
					}
					_, _, err = p.Apply(v)
				}
				if err != nil {
					failed.Store(err)
					return
				}
				lats[w] = append(lats[w], float64(time.Since(t0).Microseconds()))
				ops.Add(1)
			}
		}(w)
	}
	time.Sleep(d)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	runtime.ReadMemStats(&memAfter)
	if err, ok := failed.Load().(error); ok && err != nil {
		return res, err
	}

	all := make([]float64, 0, ops.Load())
	for _, l := range lats {
		all = append(all, l...)
	}
	sort.Float64s(all)
	res.Ops = ops.Load()
	res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	if len(all) > 0 {
		pct := func(p float64) float64 { return all[min(len(all)-1, int(p*float64(len(all))))] }
		res.P50Micros, res.P999Micros = pct(0.50), pct(0.999)
	}
	if res.Ops > 0 {
		res.AllocsPerOp = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.Ops)
	}
	return res, nil
}
