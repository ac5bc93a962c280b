// Package client is the client side of the live networked PBS store: a
// ring-routing client for the internal/server key-value API (speaking the
// binary tagged-frame client protocol — see binary.go), a concurrent load
// generator driven by internal/workload, an online staleness monitor
// streaming measured t-visibility/k-staleness and latency quantiles, and the
// probe-based t-visibility measurement that the end-to-end conformance
// suite compares against wars.SimulateBatch predictions.
package client

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/ring"
	"pbs/internal/server"
)

// Client talks to a cluster of internal/server nodes. It routes writes to
// each key's primary coordinator (the first node of the key's preference
// list, which serializes version assignment) and spreads reads across all
// nodes round-robin — any node can coordinate a read. Safe for concurrent
// use.
//
// DialBinary builds one; the wire protocol lives in binary.go, and the
// routing, retry, and view-refresh logic live here.
//
// The routing state is a versioned view of the cluster (ring epoch, member
// set, consistent-hash ring) held behind an atomic pointer: every server
// response carries the node's ring epoch (a frame prefix), and
// when the cluster has moved on (a node joined or left) the client
// refreshes its view from the config endpoint in the background — no
// static node list, no restart.
type Client struct {
	tr *binaryTransport

	view       atomic.Pointer[clientView]
	refreshing atomic.Bool
	readRR     atomic.Uint64
}

// clientView is one immutable snapshot of the cluster as seen by the
// client. Members are kept in ID order; positional APIs (GetVia, Stats,
// sticky sessions) index into that order.
type clientView struct {
	epoch   uint64
	n       int
	vnodes  int
	ids     []int               // member IDs, ascending
	members []server.MemberInfo // same order as ids
	byID    map[int]server.MemberInfo
	ring    *ring.Ring
}

// buildView validates a config and compiles the routing view. Every
// member must advertise the internal address the client protocol dials.
func buildView(cfg server.ConfigResponse) (*clientView, error) {
	if len(cfg.Members) == 0 {
		return nil, errors.New("client: bad config: no members")
	}
	if cfg.Vnodes < 1 {
		return nil, fmt.Errorf("client: bad config: %d vnodes", cfg.Vnodes)
	}
	v := &clientView{
		epoch:  cfg.RingEpoch,
		n:      cfg.N,
		vnodes: cfg.Vnodes,
		byID:   make(map[int]server.MemberInfo, len(cfg.Members)),
	}
	for _, m := range cfg.Members {
		// Validate before ring construction: NewWithIDs panics on
		// duplicate or negative IDs, and this data came off the network.
		if m.ID < 0 {
			return nil, fmt.Errorf("client: bad config: negative member id %d", m.ID)
		}
		if _, dup := v.byID[m.ID]; dup {
			return nil, fmt.Errorf("client: bad config: duplicate member id %d", m.ID)
		}
		if m.Internal == "" {
			return nil, fmt.Errorf("client: member %d advertises no internal address", m.ID)
		}
		v.ids = append(v.ids, m.ID)
		v.members = append(v.members, m)
		v.byID[m.ID] = m
	}
	v.ring = ring.NewWithIDs(v.ids, cfg.Vnodes)
	return v, nil
}

// RingEpoch returns the epoch of the client's current cluster view.
func (c *Client) RingEpoch() uint64 { return c.view.Load().epoch }

// Refresh re-fetches the cluster configuration from the current members
// and installs it if it is newer than the cached view. It returns an error
// only when no member answered.
func (c *Client) Refresh() error {
	v := c.view.Load()
	var lastErr error
	for _, m := range v.members {
		cfg, err := c.tr.FetchConfig(m)
		if err != nil {
			lastErr = err
			continue
		}
		nv, err := buildView(cfg)
		if err != nil {
			lastErr = err
			continue
		}
		c.install(nv)
		return nil
	}
	return fmt.Errorf("client: refresh failed on every member: %w", lastErr)
}

// install swaps in nv unless the cached view is already as new.
func (c *Client) install(nv *clientView) {
	for {
		cur := c.view.Load()
		if nv.epoch <= cur.epoch {
			return
		}
		if c.view.CompareAndSwap(cur, nv) {
			return
		}
	}
}

// noteEpoch is the transport's epoch-notify hook: every response carries
// the responding node's ring epoch,
// and when the cluster is ahead of the cached view one background refresh
// is triggered. Routing keeps working off the stale view meanwhile — the
// servers proxy mis-routed operations to the right owners.
func (c *Client) noteEpoch(e uint64) {
	if e <= c.view.Load().epoch {
		return
	}
	if c.refreshing.CompareAndSwap(false, true) {
		go func() {
			defer c.refreshing.Store(false)
			c.Refresh()
		}()
	}
}

// Close releases the transport's connections; in-flight calls fail
// exactly once.
func (c *Client) Close() { c.tr.Close() }

// Nodes returns the cluster size under the current view.
func (c *Client) Nodes() int { return len(c.view.Load().members) }

// PutResult is the outcome of a write.
type PutResult struct {
	// Seq is the version number the cluster assigned.
	Seq uint64
	// CommittedAt is the coordinator's wall clock at quorum commit — the
	// origin for t-visibility probing (same machine, same clock, for the
	// loopback conformance setup).
	CommittedAt time.Time
	// CoordMs is the coordinator-measured write latency (WARS W-th order
	// statistic analogue); ClientMs additionally includes the client hop.
	CoordMs  float64
	ClientMs float64
}

// GetResult is the outcome of a read.
type GetResult struct {
	Found bool
	Seq   uint64
	Value string
	// CoordMs is the coordinator-measured read latency (WARS R-th order
	// statistic analogue); ClientMs additionally includes the client hop.
	CoordMs  float64
	ClientMs float64
}

// Put writes value to key through the key's primary coordinator. When a
// node is unreachable or answers a retryable unavailability (crashed node,
// dead forward hop), the write falls through the rest of the key's ring
// order — paired with the server's sloppy quorums this makes a single
// node crash invisible to writers. A coordinator's own "write quorum not
// reached" is returned immediately: it is the cluster's verdict, and
// re-coordinating it at every other node would only repeat the failure.
func (c *Client) Put(key, value string) (PutResult, error) {
	return c.write(key, value, false)
}

// Delete removes key through the key's primary coordinator. On the server
// a delete is a write whose version is a tombstone: it gets a fresh seq,
// commits at the same W quorum, and replicates through hinted handoff and
// anti-entropy, so a stale replica cannot resurrect the key later. The
// routing and retry discipline is exactly Put's: unreachable nodes and
// routing-level unavailability fall through the key's ring order, a
// coordinator's own quorum failure is final.
func (c *Client) Delete(key string) (PutResult, error) {
	return c.write(key, "", true)
}

func (c *Client) write(key, value string, tombstone bool) (PutResult, error) {
	start := time.Now()
	v := c.view.Load()
	var lastErr error
	for _, id := range v.ring.PreferenceList(key, len(v.members)) {
		pr, err := c.tr.Put(v.byID[id], key, value, tombstone)
		if err != nil {
			if isRetryable(err) {
				lastErr = err
				continue
			}
			return PutResult{}, err
		}
		return PutResult{
			Seq:         pr.Seq,
			CommittedAt: time.Unix(0, pr.CommittedUnixNano),
			CoordMs:     pr.CoordMs,
			ClientMs:    float64(time.Since(start)) / float64(time.Millisecond),
		}, nil
	}
	verb := "put"
	if tombstone {
		verb = "delete"
	}
	return PutResult{}, fmt.Errorf("client: %s %q failed on every node: %w", verb, key, lastErr)
}

// Get reads key through a round-robin coordinator. A coordinator that is
// unreachable or answers a retryable unavailability is skipped for the
// next in rotation, so a crashed node degrades read spread, not read
// availability.
func (c *Client) Get(key string) (GetResult, error) {
	var lastErr error
	// One draw from the shared round-robin counter, then a deterministic
	// walk from it: concurrent Gets bumping the counter must not be able
	// to alias every retry of this Get onto the same (crashed) node.
	base := c.readRR.Add(1)
	nodes := c.Nodes()
	for attempt := 0; attempt < nodes; attempt++ {
		node := int((base + uint64(attempt)) % uint64(nodes))
		res, err := c.GetVia(node, key)
		if err != nil {
			if isRetryable(err) {
				lastErr = err
				continue
			}
			return GetResult{}, err
		}
		return res, nil
	}
	return GetResult{}, fmt.Errorf("client: get %q failed on every node: %w", key, lastErr)
}

// retryableError marks a response worth retrying at another coordinator.
type retryableError struct{ err error }

func (e *retryableError) Error() string { return e.err.Error() }
func (e *retryableError) Unwrap() error { return e.err }

func isRetryable(err error) bool {
	var re *retryableError
	return errors.As(err, &re)
}

// GetVia reads key through a specific coordinator (sticky sessions,
// tests). node indexes the current member list positionally (ID order).
func (c *Client) GetVia(node int, key string) (GetResult, error) {
	v := c.view.Load()
	if node < 0 || node >= len(v.members) {
		return GetResult{}, fmt.Errorf("client: node %d outside cluster of %d", node, len(v.members))
	}
	start := time.Now()
	gr, err := c.tr.Get(v.members[node], key)
	if err != nil {
		return GetResult{}, err
	}
	return GetResult{
		Found:    gr.Found,
		Seq:      gr.Seq,
		Value:    gr.Value,
		CoordMs:  gr.CoordMs,
		ClientMs: float64(time.Since(start)) / float64(time.Millisecond),
	}, nil
}

// PutOp is one write inside a batched Client.MPut.
type PutOp struct {
	Key, Value string
	Delete     bool
}

// PutOutcome is one op's outcome inside a batched write: Err nil means the
// embedded PutResult is valid.
type PutOutcome struct {
	PutResult
	Err error
}

// GetOutcome is one key's outcome inside a batched read.
type GetOutcome struct {
	GetResult
	Err error
}

// MGet reads many keys with one request per coordinator: keys are grouped
// by their ring primary under the current view (so the receiving node
// coordinates its own keys and the server's grouped fan-out stays local),
// the per-group requests run concurrently, and results come back
// index-aligned with keys. Per-key verdicts follow Get's retryable/final
// discipline: a retryable verdict (the group's node was unreachable or
// answered a routing-level failure) falls back to the single-key walk for
// that key; final verdicts (quorum failures, bad requests) are returned
// as-is.
func (c *Client) MGet(keys []string) ([]GetOutcome, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	outs := make([]GetOutcome, len(keys))
	v := c.view.Load()
	start := time.Now()
	groups := make(map[int][]int)
	for i, key := range keys {
		id := v.ring.Coordinator(key)
		groups[id] = append(groups[id], i)
	}
	var wg sync.WaitGroup
	for id, idxs := range groups {
		wg.Add(1)
		go func(id int, idxs []int) {
			defer wg.Done()
			gkeys := make([]string, len(idxs))
			for j, i := range idxs {
				gkeys[j] = keys[i]
			}
			res, err := c.tr.MGet(v.byID[id], gkeys)
			if err != nil {
				for _, i := range idxs {
					outs[i].Err = err
				}
				return
			}
			elapsed := float64(time.Since(start)) / float64(time.Millisecond)
			for j, i := range idxs {
				if res[j].Err != nil {
					outs[i].Err = res[j].Err
					continue
				}
				gr := res[j].Resp
				outs[i].GetResult = GetResult{
					Found:    gr.Found,
					Seq:      gr.Seq,
					Value:    gr.Value,
					CoordMs:  gr.CoordMs,
					ClientMs: elapsed,
				}
			}
		}(id, idxs)
	}
	wg.Wait()
	for i := range outs {
		if outs[i].Err != nil && isRetryable(outs[i].Err) {
			res, err := c.Get(keys[i])
			outs[i] = GetOutcome{GetResult: res, Err: err}
		}
	}
	return outs, nil
}

// MGetVia reads many keys through one specific coordinator in a single
// request (sticky sessions, tests) — no grouping, no per-key retry.
func (c *Client) MGetVia(node int, keys []string) ([]GetOutcome, error) {
	v := c.view.Load()
	if node < 0 || node >= len(v.members) {
		return nil, fmt.Errorf("client: node %d outside cluster of %d", node, len(v.members))
	}
	start := time.Now()
	res, err := c.tr.MGet(v.members[node], keys)
	if err != nil {
		return nil, err
	}
	elapsed := float64(time.Since(start)) / float64(time.Millisecond)
	outs := make([]GetOutcome, len(res))
	for i, r := range res {
		if r.Err != nil {
			outs[i].Err = r.Err
			continue
		}
		outs[i].GetResult = GetResult{
			Found:    r.Resp.Found,
			Seq:      r.Resp.Seq,
			Value:    r.Resp.Value,
			CoordMs:  r.Resp.CoordMs,
			ClientMs: elapsed,
		}
	}
	return outs, nil
}

// MPut writes many ops with one request per coordinator, grouped like
// MGet. Per-op retryable failures fall back to the single-key write walk
// (which tries the key's whole ring order); final verdicts are returned
// as-is, index-aligned with ops.
func (c *Client) MPut(ops []PutOp) ([]PutOutcome, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	outs := make([]PutOutcome, len(ops))
	v := c.view.Load()
	start := time.Now()
	sops := make([]server.BatchPutOp, len(ops))
	for i, op := range ops {
		sops[i] = server.BatchPutOp{Key: op.Key, Value: op.Value, Tombstone: op.Delete}
	}
	groups := make(map[int][]int)
	for i := range ops {
		id := v.ring.Coordinator(ops[i].Key)
		groups[id] = append(groups[id], i)
	}
	var wg sync.WaitGroup
	for id, idxs := range groups {
		wg.Add(1)
		go func(id int, idxs []int) {
			defer wg.Done()
			gops := make([]server.BatchPutOp, len(idxs))
			for j, i := range idxs {
				gops[j] = sops[i]
			}
			res, err := c.tr.MPut(v.byID[id], gops)
			if err != nil {
				for _, i := range idxs {
					outs[i].Err = err
				}
				return
			}
			elapsed := float64(time.Since(start)) / float64(time.Millisecond)
			for j, i := range idxs {
				if res[j].Err != nil {
					outs[i].Err = res[j].Err
					continue
				}
				pr := res[j].Resp
				outs[i].PutResult = PutResult{
					Seq:         pr.Seq,
					CommittedAt: time.Unix(0, pr.CommittedUnixNano),
					CoordMs:     pr.CoordMs,
					ClientMs:    elapsed,
				}
			}
		}(id, idxs)
	}
	wg.Wait()
	for i := range outs {
		if outs[i].Err != nil && isRetryable(outs[i].Err) {
			res, err := c.write(ops[i].Key, ops[i].Value, ops[i].Delete)
			outs[i] = PutOutcome{PutResult: res, Err: err}
		}
	}
	return outs, nil
}

// WARSSamples fetches every node's measured WARS leg samples and pools
// them: the cluster-wide empirical W/A/R/S distributions the tuner fits
// online (Section 6's dynamic configuration). Unreachable nodes (crashed
// replicas refuse client frames) are skipped, so the tuning loop keeps
// running on the survivors' measurements during an outage; an
// error is returned only when no node answers.
func (c *Client) WARSSamples() (w, a, r, s []float64, err error) {
	var lastErr error
	answered := 0
	for _, m := range c.view.Load().members {
		wr, err := c.tr.WARS(m)
		if err != nil {
			lastErr = err
			continue
		}
		answered++
		w = append(w, wr.W...)
		a = append(a, wr.A...)
		r = append(r, wr.R...)
		s = append(s, wr.S...)
	}
	if answered == 0 {
		return nil, nil, nil, nil, fmt.Errorf("client: no node served /wars: %w", lastErr)
	}
	return w, a, r, s, nil
}

// ClusterStats sums the counters of every reachable node (crashed
// replicas refuse client frames and are skipped) — the client-side view of
// Cluster.Stats, including the sloppy-quorum surface (failover writes,
// spare writes, pending/restored hints). An error is returned only when no
// node answers.
func (c *Client) ClusterStats() (server.StatsResponse, error) {
	var agg server.StatsResponse
	agg.Node = -1
	var lastErr error
	answered := 0
	for node := range c.view.Load().members {
		st, err := c.Stats(node)
		if err != nil {
			lastErr = err
			continue
		}
		answered++
		agg.Accumulate(st)
	}
	if answered == 0 {
		return agg, fmt.Errorf("client: no node served /stats: %w", lastErr)
	}
	return agg, nil
}

// Stats fetches one node's counters (node indexes the member list
// positionally).
func (c *Client) Stats(node int) (server.StatsResponse, error) {
	var st server.StatsResponse
	v := c.view.Load()
	if node < 0 || node >= len(v.members) {
		return st, fmt.Errorf("client: node %d outside cluster of %d", node, len(v.members))
	}
	return c.tr.Stats(v.members[node])
}

// Session is a client session with monotonic-reads tracking (paper
// Section 3.2): it records the highest version observed per key and counts
// reads that regress. With Sticky routing all session reads go through one
// coordinator — the paper's "continue to contact the same replica"
// mitigation.
type Session struct {
	c      *Client
	sticky int // -1: round-robin

	mu         sync.Mutex
	lastSeen   map[string]uint64
	reads      int64
	violations int64
}

// NewSession starts a session. When sticky is true all reads route through
// one fixed coordinator.
func (c *Client) NewSession(sticky bool) *Session {
	s := &Session{c: c, sticky: -1, lastSeen: make(map[string]uint64)}
	if sticky {
		s.sticky = int(c.readRR.Add(1)) % c.Nodes()
	}
	return s
}

// Get reads key within the session, reporting whether this read violated
// monotonic reads (observed an older version than a previous session
// read).
func (s *Session) Get(key string) (res GetResult, violated bool, err error) {
	if s.sticky >= 0 {
		res, err = s.c.GetVia(s.sticky, key)
	} else {
		res, err = s.c.Get(key)
	}
	if err != nil {
		return res, false, err
	}
	s.mu.Lock()
	s.reads++
	last := s.lastSeen[key]
	if res.Seq < last {
		violated = true
		s.violations++
	} else {
		s.lastSeen[key] = res.Seq
	}
	s.mu.Unlock()
	return res, violated, nil
}

// MGet reads a batch of keys within the session (one frame per
// coordinator — or a single frame through the sticky coordinator),
// applying the same per-key monotonic-reads accounting as Get. violated
// is index-aligned with keys; failed keys count neither as reads nor as
// violations.
func (s *Session) MGet(keys []string) (res []GetOutcome, violated []bool, err error) {
	if s.sticky >= 0 {
		res, err = s.c.MGetVia(s.sticky, keys)
	} else {
		res, err = s.c.MGet(keys)
	}
	if err != nil {
		return nil, nil, err
	}
	violated = make([]bool, len(res))
	s.mu.Lock()
	for i := range res {
		if res[i].Err != nil {
			continue
		}
		s.reads++
		if res[i].Seq < s.lastSeen[keys[i]] {
			violated[i] = true
			s.violations++
		} else {
			s.lastSeen[keys[i]] = res[i].Seq
		}
	}
	s.mu.Unlock()
	return res, violated, nil
}

// MPut writes a batch of ops within the session (one frame per
// coordinator, per-key verdicts).
func (s *Session) MPut(ops []PutOp) ([]PutOutcome, error) {
	return s.c.MPut(ops)
}

// Stats returns the session's read and monotonic-reads violation counts.
func (s *Session) Stats() (reads, violations int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.reads, s.violations
}
