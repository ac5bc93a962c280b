package client

// Concurrent load generation over internal/workload: Zipf or uniform key
// popularity, Poisson (open-loop) or closed-loop arrivals, and
// configurable read/write mixes including the paper's production LinkedIn
// and Yammer mixes. Every operation is recorded in a Monitor, which gives
// the live system the same observability the paper instrumented into its
// modified Cassandra.

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/rng"
	"pbs/internal/workload"
)

// LoadOptions configures a load-generation run.
type LoadOptions struct {
	// Clients is the number of concurrent workers (default 16), each
	// keeping one request in flight: the total in-flight concurrency. The
	// workers share one Client, whose connections pipeline their requests.
	Clients int
	// Rate is the target aggregate throughput in operations per second.
	// Zero runs closed-loop: every worker issues its next operation as soon
	// as the previous one completes.
	Rate float64
	// Duration bounds the run in wall-clock time (required unless MaxOps
	// is set).
	Duration time.Duration
	// MaxOps stops the run after this many operations (0 = unlimited).
	MaxOps int64
	// Keys picks the key for each operation (required).
	Keys workload.KeyChooser
	// Mix chooses between reads and writes.
	Mix workload.Mix
	// Seed drives key, mix, and arrival sampling.
	Seed uint64
	// BatchSize groups operations into multi-key batches (default 1 =
	// single-key ops). With BatchSize > 1 each worker draws one op kind
	// per batch, then BatchSize keys, and issues one MGet/MPut — modeling
	// scan-ish multi-get traffic. Every key counts as one operation, so
	// Throughput stays keys per second, and the open-loop Rate still
	// paces individual operations (one batch consumes BatchSize tokens).
	BatchSize int
}

func (o *LoadOptions) setDefaults() error {
	if o.Clients <= 0 {
		o.Clients = 16
	}
	if o.Keys == nil {
		return errors.New("client: load options need a key chooser")
	}
	if o.Duration <= 0 && o.MaxOps <= 0 {
		return errors.New("client: load options need a duration or an op budget")
	}
	if o.Rate < 0 {
		return errors.New("client: rate must be non-negative")
	}
	if o.BatchSize <= 0 {
		o.BatchSize = 1
	}
	return nil
}

// LoadResult summarizes a load-generation run.
type LoadResult struct {
	Ops, Reads, Writes, Errors int64
	Elapsed                    time.Duration
	// Throughput is completed operations per second of wall-clock time.
	Throughput float64
}

// RunLoad drives the cluster through c until the duration elapses or the
// op budget is exhausted, recording every operation in mon (which may be
// shared with other concurrent measurement).
func RunLoad(c *Client, mon *Monitor, opt LoadOptions) (LoadResult, error) {
	if err := opt.setDefaults(); err != nil {
		return LoadResult{}, err
	}
	ctx := context.Background()
	var cancel context.CancelFunc
	if opt.Duration > 0 {
		ctx, cancel = context.WithTimeout(ctx, opt.Duration)
		defer cancel()
	}

	var ops, reads, writes, errs, opSerial atomic.Int64
	budgetLeft := func() bool {
		return opt.MaxOps <= 0 || ops.Load() < opt.MaxOps
	}

	// Open loop: a dispatcher paces arrivals and workers drain a bounded
	// queue (backpressure once the cluster saturates). Closed loop: workers
	// fire back-to-back.
	var tokens chan struct{}
	if opt.Rate > 0 {
		tokens = make(chan struct{}, 4*opt.Clients)
		arrival := workload.NewPoisson(opt.Rate)
		go func() {
			defer close(tokens)
			r := rng.NewStream(opt.Seed, ^uint64(0))
			next := time.Now()
			for budgetLeft() {
				next = next.Add(time.Duration(arrival.NextGap(r) * float64(time.Second)))
				if d := time.Until(next); d > 0 {
					select {
					case <-time.After(d):
					case <-ctx.Done():
						return
					}
				}
				select {
				case tokens <- struct{}{}:
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	start := time.Now()
	var wg sync.WaitGroup
	// One issuer goroutine per worker, each with its own sampling stream.
	for w := 0; w < opt.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			r := rng.NewStream(opt.Seed, uint64(w))
			// Per-worker batch buffers, reused across batches.
			var (
				keys      []string
				baselines []uint64
				puts      []PutOp
			)
			if opt.BatchSize > 1 {
				keys = make([]string, 0, opt.BatchSize)
				baselines = make([]uint64, 0, opt.BatchSize)
				puts = make([]PutOp, 0, opt.BatchSize)
			}
			for ctx.Err() == nil && budgetLeft() {
				if tokens != nil {
					if _, ok := <-tokens; !ok {
						return
					}
				}
				if opt.BatchSize > 1 {
					// One kind draw per batch, then BatchSize key draws: a
					// batch is all-reads or all-writes, like a scan or a bulk
					// load. Each key is one operation for accounting and
					// pacing (the token above paid for the first key).
					kind := opt.Mix.Op(r)
					size := opt.BatchSize
					if tokens != nil {
						for extra := 1; extra < size; extra++ {
							if _, ok := <-tokens; !ok {
								size = extra
								break
							}
						}
					}
					if kind == workload.OpRead {
						keys, baselines = keys[:0], baselines[:0]
						for j := 0; j < size; j++ {
							k := opt.Keys.Key(r)
							keys = append(keys, k)
							baselines = append(baselines, mon.Committed(k))
						}
						outs, err := c.MGet(keys)
						if err != nil {
							errs.Add(int64(size))
						} else {
							for j, out := range outs {
								if out.Err != nil {
									errs.Add(1)
									continue
								}
								reads.Add(1)
								mon.RecordRead(keys[j], out.Seq, baselines[j], out.ClientMs, out.CoordMs)
							}
						}
					} else {
						puts = puts[:0]
						for j := 0; j < size; j++ {
							puts = append(puts, PutOp{
								Key:   opt.Keys.Key(r),
								Value: fmt.Sprintf("v%d", opSerial.Add(1)),
							})
						}
						outs, err := c.MPut(puts)
						if err != nil {
							errs.Add(int64(size))
						} else {
							for j, out := range outs {
								if out.Err != nil {
									errs.Add(1)
									continue
								}
								writes.Add(1)
								mon.RecordWrite(puts[j].Key, out.Seq, out.ClientMs, out.CoordMs)
							}
						}
					}
					ops.Add(int64(size))
					continue
				}
				key := opt.Keys.Key(r)
				if opt.Mix.Op(r) == workload.OpRead {
					baseline := mon.Committed(key)
					res, err := c.Get(key)
					if err != nil {
						errs.Add(1)
					} else {
						reads.Add(1)
						mon.RecordRead(key, res.Seq, baseline, res.ClientMs, res.CoordMs)
					}
				} else {
					res, err := c.Put(key, fmt.Sprintf("v%d", opSerial.Add(1)))
					if err != nil {
						errs.Add(1)
					} else {
						writes.Add(1)
						mon.RecordWrite(key, res.Seq, res.ClientMs, res.CoordMs)
					}
				}
				ops.Add(1)
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)

	res := LoadResult{
		Ops: ops.Load(), Reads: reads.Load(), Writes: writes.Load(),
		Errors: errs.Load(), Elapsed: elapsed,
	}
	if elapsed > 0 {
		res.Throughput = float64(res.Ops-res.Errors) / elapsed.Seconds()
	}
	return res, nil
}
