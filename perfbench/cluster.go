package main

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"pbs"
	"pbs/internal/client"
	"pbs/internal/dist"
	"pbs/internal/server"
)

// shape is the cluster a set-up boots.
type shape struct {
	nodes, n, r, w int
	durable        bool
	injected       bool
}

func (sp spec) shape() shape {
	return shape{nodes: 3, n: 3, r: sp.r, w: sp.w, durable: sp.durable, injected: sp.injected}
}

// singleNode is the transport baseline: one in-memory node, N=R=W=1.
var singleNode = shape{nodes: 1, n: 1, r: 1, w: 1}

// injectedModel is the WARS model the injected workload runs under and
// predicts: the paper's LNKD-DISK fit, stretched so that injected delays
// dominate loopback and CPU time.
func injectedModel() dist.LatencyModel {
	return dist.ScaleModel(dist.LNKDDISK(), injectScale)
}

// env is one set-up cluster with its client.
type env struct {
	sh  shape
	c   *server.Cluster
	cl  *client.Client
	dir string
	// committed holds, per key index, the newest seq a write of this run
	// has seen acknowledged; a read must return at least the value held
	// when it began.
	committed []atomic.Uint64
	// phases times the set-up steps (seconds), in order.
	phases []phase
}

type phase struct {
	name string
	dur  time.Duration
}

func (e *env) close() {
	e.cl.Close()
	e.c.Close()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// setUp boots the cluster, bulk-loads every key with MPut and reads every
// key back with MGet, checking that the read-back returns exactly the
// loaded values. With predict, it also builds the WARS predictor for the
// injected model.
func setUp(sh shape, ks *keyspace, dir string, seed uint64, sessions int, predict bool) (*env, *pbs.Predictor, error) {
	e := &env{sh: sh, dir: dir, committed: make([]atomic.Uint64, len(ks.names))}
	p := server.Params{N: sh.n, R: sh.r, W: sh.w, Seed: seed}
	if sh.durable {
		p.DataDir, p.MemtableBytes = dir, memtableBytes
	}
	if sh.injected {
		m := injectedModel()
		p.Model = &m
	}
	t0 := time.Now()
	c, err := server.StartLocal(sh.nodes, p)
	if err != nil {
		return nil, nil, err
	}
	cl, err := client.DialBinary(c.HTTPAddrs[0])
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	e.c, e.cl = c, cl
	t1 := time.Now()
	e.phases = append(e.phases, phase{"start", t1.Sub(t0)})

	fail := func(err error) (*env, *pbs.Predictor, error) {
		e.close()
		return nil, nil, err
	}
	if err := bulkLoad(e, ks, sessions); err != nil {
		return fail(err)
	}
	t2 := time.Now()
	e.phases = append(e.phases, phase{"bulk_load", t2.Sub(t1)})

	// Under partial quorums a read-back at R<N may race the load's
	// unacknowledged legs; reading at R=N with R+W>N sees every load.
	if sh.r+sh.w <= sh.n {
		if err := c.SetQuorums(sh.n, sh.w); err != nil {
			return fail(err)
		}
	}
	if err := readBack(e, ks, sessions); err != nil {
		return fail(err)
	}
	if err := c.SetQuorums(sh.r, sh.w); err != nil {
		return fail(err)
	}
	t3 := time.Now()
	e.phases = append(e.phases, phase{"read_back", t3.Sub(t2)})

	var pred *pbs.Predictor
	if predict {
		if pred, err = newPredictor(seed); err != nil {
			return fail(err)
		}
		e.phases = append(e.phases, phase{"predictor", time.Since(t3)})
	}
	return e, pred, nil
}

func (e *env) setupSeconds() float64 {
	var d time.Duration
	for _, p := range e.phases {
		d += p.dur
	}
	return d.Seconds()
}

func (e *env) phase(name string) time.Duration {
	for _, p := range e.phases {
		if p.name == name {
			return p.dur
		}
	}
	return 0
}

// forBatches runs f over consecutive batches of key indices on `sessions`
// goroutines and returns the first error.
func forBatches(n, sessions int, f func(lo, hi int) error) error {
	var next atomic.Int64
	var wg sync.WaitGroup
	errs := make([]error, sessions)
	for s := 0; s < sessions; s++ {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			for {
				lo := int(next.Add(batchKeys)) - batchKeys
				if lo >= n {
					return
				}
				if err := f(lo, min(lo+batchKeys, n)); err != nil {
					errs[s] = err
					return
				}
			}
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

func bulkLoad(e *env, ks *keyspace, sessions int) error {
	return forBatches(len(ks.names), sessions, func(lo, hi int) error {
		ops := make([]client.PutOp, 0, hi-lo)
		for i := lo; i < hi; i++ {
			ops = append(ops, client.PutOp{Key: ks.names[i], Value: ks.values[i]})
		}
		outs, err := e.cl.MPut(ops)
		if err != nil {
			return fmt.Errorf("bulk load: %w", err)
		}
		for j, o := range outs {
			if o.Err != nil {
				return fmt.Errorf("bulk load %s: %w", ops[j].Key, o.Err)
			}
			e.committed[lo+j].Store(o.Seq)
		}
		return nil
	})
}

func readBack(e *env, ks *keyspace, sessions int) error {
	return forBatches(len(ks.names), sessions, func(lo, hi int) error {
		outs, err := e.cl.MGet(ks.names[lo:hi])
		if err != nil {
			return fmt.Errorf("read-back: %w", err)
		}
		for j, o := range outs {
			i := lo + j
			switch {
			case o.Err != nil:
				return fmt.Errorf("read-back %s: %w", ks.names[i], o.Err)
			case !o.Found || o.Value != ks.values[i] || o.Seq != e.committed[i].Load():
				return fmt.Errorf("read-back %s: got found=%v seq=%d value %.20q, loaded seq %d value %.20q",
					ks.names[i], o.Found, o.Seq, o.Value, e.committed[i].Load(), ks.values[i])
			}
		}
		return nil
	})
}
