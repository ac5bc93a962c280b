package server

// The coordinator's own replica leg is served in process (peer.local):
// encoded, served by handlePeerOp and decoded like a wire leg, behind the
// same fault layer, without a socket round trip to itself. Run under -race
// in CI (the TestSelfLeg regex).

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"pbs/internal/kvstore"
	"pbs/internal/storage"
)

// selfPeer returns node n's fault-wrapped client for itself and the
// transport client behind it.
func selfPeer(t *testing.T, n *Node) (*faultPeer, *peer) {
	t.Helper()
	fp, ok := n.view().peers[n.id].(*faultPeer)
	if !ok {
		t.Fatalf("node %d's own peer is not fault-wrapped", n.id)
	}
	p, ok := fp.next.(*peer)
	if !ok || p.local == nil {
		t.Fatalf("node %d's own peer does not serve its legs in process", n.id)
	}
	return fp, p
}

// dialedLegConns counts p's live peer-role connections.
func dialedLegConns(p *peer) int {
	p.legs.mu.Lock()
	defer p.legs.mu.Unlock()
	k := 0
	for _, mc := range p.legs.conns {
		if mc != nil {
			k++
		}
	}
	return k
}

// TestSelfLegServedInProcess: on a one-node cluster every data leg is the
// coordinator's own, so single-key and batched reads and writes all
// succeed without its peer-role connections ever being dialed — while a
// control-plane op to itself still rides the mux.
func TestSelfLegServedInProcess(t *testing.T) {
	c, err := StartLocal(1, Params{N: 1, R: 1, W: 1, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Nodes[0]
	_, p := selfPeer(t, n)

	pr := binPut(t, n, "solo", "v1")
	if gr := binGet(t, n, "solo"); !gr.Found || gr.Value != "v1" || gr.Seq != pr.Seq {
		t.Fatalf("GET after PUT = %+v, want v1 at seq %d", gr, pr.Seq)
	}
	bc := NewBinClient(n.InternalAddr())
	defer bc.Close()
	ops := make([]BatchPutOp, 16)
	keys := make([]string, len(ops))
	for i := range ops {
		keys[i] = fmt.Sprintf("batch-%d", i)
		ops[i] = BatchPutOp{Key: keys[i], Value: fmt.Sprintf("b%d", i)}
	}
	puts, _, err := mput(bc, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range puts {
		if r.Err != nil {
			t.Fatalf("MPut %s: %v", keys[i], r.Err)
		}
	}
	gets, _, err := mget(bc, keys)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range gets {
		if r.Err != nil || !r.Resp.Found || r.Resp.Value != ops[i].Value {
			t.Fatalf("MGet %s = %+v (%v), want %s", keys[i], r.Resp, r.Err, ops[i].Value)
		}
	}
	if k := dialedLegConns(p); k != 0 {
		t.Fatalf("self peer dialed %d peer-role connections for data legs, want 0", k)
	}

	if _, err := n.view().peers[n.id].MerkleNodes(2); err != nil {
		t.Fatalf("MerkleNodes to self: %v", err)
	}
	if k := dialedLegConns(p); k != 1 {
		t.Fatalf("MerkleNodes to self dialed %d peer-role connections, want 1 (control ops keep the mux)", k)
	}
}

// TestSelfLegFaults: a crash or partition of the coordinator itself fails
// its own leg with the same typed errors as before — at the fault layer in
// front of the in-process leg, and at handlePeerOp's replica-side refusal
// for a caller that gets past that layer.
func TestSelfLegFaults(t *testing.T) {
	c, err := StartLocal(3, Params{N: 3, R: 2, W: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Nodes[1]
	fp, p := selfPeer(t, n)
	v := kvstore.Version{Key: "self-fault", Seq: 1, Value: "v"}
	if err := applyOne(fp, v); err != nil {
		t.Fatalf("healthy self apply: %v", err)
	}
	get := func(p Peer) error {
		var out [1]readResp
		err := p.Get([][]byte{[]byte(v.Key)}, out[:])
		putBuf(out[0].buf)
		return err
	}

	for _, tc := range []struct {
		name       string
		inject     func(int)
		heal       func(int)
		want       error
		refusalMsg string
	}{
		{"crash", c.Faults().Crash, c.Faults().Recover, ErrReplicaDown, ErrReplicaDown.Error()},
		{"partition", c.Faults().Partition, c.Faults().Heal, ErrPartitioned, ErrPartitioned.Error()},
	} {
		tc.inject(n.id)
		if err := applyOne(fp, v); !errors.Is(err, tc.want) {
			t.Errorf("%s: self Apply = %v, want %v", tc.name, err, tc.want)
		}
		if err := get(fp); !errors.Is(err, tc.want) {
			t.Errorf("%s: self Get = %v, want %v", tc.name, err, tc.want)
		}
		if _, err := fp.ApplyHinted(v, n.id); !errors.Is(err, tc.want) {
			t.Errorf("%s: self ApplyHinted = %v, want %v", tc.name, err, tc.want)
		}
		if err := fp.Ping(); !errors.Is(err, tc.want) {
			t.Errorf("%s: self Ping = %v, want %v", tc.name, err, tc.want)
		}
		// Past the fault layer, the replica refuses the leg itself.
		if err := get(p); err == nil || !strings.Contains(err.Error(), tc.refusalMsg) {
			t.Errorf("%s: unwrapped self Get = %v, want a %q refusal", tc.name, err, tc.refusalMsg)
		}
		tc.heal(n.id)
		if err := get(fp); err != nil {
			t.Errorf("%s healed: self Get: %v", tc.name, err)
		}
	}

	// A closed node refuses its own legs too.
	n.Close()
	if err := get(p); err == nil {
		t.Error("closed node served its own leg")
	}
}

// TestSelfLegInjectedDelays: a leg to self still waits its injected W/A
// (R/S) timers, and those legs overlap across concurrent operations as in
// TestWorkerPathInjectedLegsOverlap; a fault-injected delay on the node
// delays its own leg too.
func TestSelfLegInjectedDelays(t *testing.T) {
	const d = 20.0
	c, err := StartLocal(1, Params{N: 1, R: 1, W: 1, Seed: 6, Model: pointModel(d), WARSSampling: true})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Nodes[0]

	ops := 4*legWorkersPerPeer + 8
	began := time.Now()
	lat, errs := runConcurrentOps(n, "self-delay", ops, nil)
	wall := durationMs(time.Since(began))
	for i, err := range errs {
		if err != nil {
			t.Fatalf("op %d: %v", i, err)
		}
	}
	for i, ms := range lat {
		if ms < 2*d || ms > 4*d {
			t.Errorf("op %d: coordinator latency %.1fms, want in [%g, %g]", i, ms, 2*d, 4*d)
		}
	}
	if wall > 4*d {
		t.Errorf("%d concurrent ops took %.1fms, want < %gms", ops, wall, 4*d)
	}
	wr := n.legs.snapshot(n.id)
	if len(wr.W) == 0 || len(wr.R) == 0 {
		t.Fatalf("leg samples W=%d R=%d, want both recorded", len(wr.W), len(wr.R))
	}
	for i := range wr.W {
		if wr.W[i] < d || wr.A[i] != d {
			t.Fatalf("self write leg %d: W=%.3f A=%.3f, want W >= %g and A = %g", i, wr.W[i], wr.A[i], d, d)
		}
	}
	for i := range wr.R {
		if wr.R[i] < d || wr.S[i] != d {
			t.Fatalf("self read leg %d: R=%.3f S=%.3f, want R >= %g and S = %g", i, wr.R[i], wr.S[i], d, d)
		}
	}

	const delayMs = 30
	c.Faults().SetDelay(n.id, delayMs)
	if pr := binPut(t, n, "self-fault-delay", "v"); pr.CoordMs < 2*d+delayMs {
		t.Fatalf("write in %.2fms beat %gms of injected legs plus the %dms fault delay on self", pr.CoordMs, 2*d, delayMs)
	}
}

// TestSelfLegBatchOneGroupCommit: on a durable fsync=always node, a
// 64-key MPut reaches the replica as one batch leg, and that leg costs one
// group commit, not one per version.
func TestSelfLegBatchOneGroupCommit(t *testing.T) {
	c, err := StartLocal(1, Params{N: 1, R: 1, W: 1, Seed: 8, DataDir: t.TempDir(), Fsync: storage.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	n := c.Nodes[0]
	eng := n.store.(*storage.Engine)
	bc := NewBinClient(n.InternalAddr())
	defer bc.Close()
	ops := make([]BatchPutOp, 64)
	for i := range ops {
		ops[i] = BatchPutOp{Key: fmt.Sprintf("gc-%d", i), Value: "v"}
	}
	before := eng.Metrics()
	res, _, err := mput(bc, ops)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range res {
		if r.Err != nil {
			t.Fatalf("MPut %s: %v", ops[i].Key, r.Err)
		}
	}
	after := eng.Metrics()
	if got := after.WALAppends - before.WALAppends; got != int64(len(ops)) {
		t.Fatalf("MPut of %d keys staged %d WAL records", len(ops), got)
	}
	if got := after.WALSyncs - before.WALSyncs; got != 1 {
		t.Fatalf("MPut of %d keys cost %d fsyncs, want 1", len(ops), got)
	}
}
