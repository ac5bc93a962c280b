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
	"slices"
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
// client. Members are kept in ID order; positional APIs (GetVia, MGetVia,
// Stats) index into that order, while sticky sessions pin a member ID.
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
	if e > c.view.Load().epoch {
		c.refreshInBackground()
	}
}

// refreshInBackground starts one background Refresh unless one is running.
func (c *Client) refreshInBackground() {
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
	return c.write(PutOp{Key: key, Value: value})
}

// Delete removes key through the key's primary coordinator. On the server
// a delete is a write whose version is a tombstone: it gets a fresh seq,
// commits at the same W quorum, and replicates through hinted handoff and
// anti-entropy, so a stale replica cannot resurrect the key later. The
// routing and retry discipline is exactly Put's: unreachable nodes and
// routing-level unavailability fall through the key's ring order, a
// coordinator's own quorum failure is final.
func (c *Client) Delete(key string) (PutResult, error) {
	return c.write(PutOp{Key: key, Delete: true})
}

// write walks op's key's ring order with a write list of one per node.
func (c *Client) write(op PutOp) (PutResult, error) {
	start := time.Now()
	v := c.view.Load()
	ops := [1]server.BatchPutOp{{Key: op.Key, Value: op.Value, Tombstone: op.Delete}}
	var out [1]PutOutcome
	var lastErr error
	for _, id := range v.ring.PreferenceList(op.Key, len(v.members)) {
		c.putVia(v.byID[id], ops[:], out[:], start)
		if err := out[0].Err; err != nil {
			if isRetryable(err) {
				lastErr = err
				continue
			}
			return PutResult{}, err
		}
		return out[0].PutResult, nil
	}
	verb := "put"
	if op.Delete {
		verb = "delete"
	}
	return PutResult{}, fmt.Errorf("client: %s %q failed on every node: %w", verb, op.Key, lastErr)
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
	v := c.view.Load()
	nodes := uint64(len(v.members))
	for attempt := range nodes {
		res, err := c.getOne(v.members[(base+attempt)%nodes], key)
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

// member returns the node-th member of the current view (ID order).
func (c *Client) member(node int) (server.MemberInfo, error) {
	v := c.view.Load()
	if node < 0 || node >= len(v.members) {
		return server.MemberInfo{}, fmt.Errorf("client: node %d outside cluster of %d", node, len(v.members))
	}
	return v.members[node], nil
}

// GetVia reads key through a specific coordinator (tests). node indexes
// the current member list positionally (ID order).
func (c *Client) GetVia(node int, key string) (GetResult, error) {
	m, err := c.member(node)
	if err != nil {
		return GetResult{}, err
	}
	return c.getOne(m, key)
}

// getOne reads key through member m as a read list of one.
func (c *Client) getOne(m server.MemberInfo, key string) (GetResult, error) {
	keys := [1]string{key}
	var out [1]GetOutcome
	c.getVia(m, keys[:], out[:], time.Now())
	return out[0].GetResult, out[0].Err
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

// putVia writes ops through member m in one list call, writing each op's
// outcome into out (index-aligned); ClientMs runs from start. A call that
// fails as a whole fails every op, and is returned too.
func (c *Client) putVia(m server.MemberInfo, ops []server.BatchPutOp, out []PutOutcome, start time.Time) error {
	var one [1]server.BatchPutResult
	res := one[:]
	if len(ops) != 1 {
		res = make([]server.BatchPutResult, len(ops))
	}
	err := c.tr.MPut(m, ops, res)
	elapsed := msSince(start)
	for i := range out {
		switch r := &res[i]; {
		case err != nil:
			out[i] = PutOutcome{Err: err}
		case r.Err != nil:
			out[i] = PutOutcome{Err: translate(r.Err)}
		default:
			out[i] = PutOutcome{PutResult: PutResult{
				Seq:         r.Resp.Seq,
				CommittedAt: time.Unix(0, r.Resp.CommittedUnixNano),
				CoordMs:     r.Resp.CoordMs,
				ClientMs:    elapsed,
			}}
		}
	}
	return err
}

// getVia is putVia for a read list.
func (c *Client) getVia(m server.MemberInfo, keys []string, out []GetOutcome, start time.Time) error {
	var one [1]server.BatchGetResult
	res := one[:]
	if len(keys) != 1 {
		res = make([]server.BatchGetResult, len(keys))
	}
	err := c.tr.MGet(m, keys, res)
	elapsed := msSince(start)
	for i := range out {
		switch r := &res[i]; {
		case err != nil:
			out[i] = GetOutcome{Err: err}
		case r.Err != nil:
			out[i] = GetOutcome{Err: translate(r.Err)}
		default:
			out[i] = GetOutcome{GetResult: GetResult{
				Found:    r.Resp.Found,
				Seq:      r.Resp.Seq,
				Value:    r.Resp.Value,
				CoordMs:  r.Resp.CoordMs,
				ClientMs: elapsed,
			}}
		}
	}
	return err
}

func msSince(start time.Time) float64 { return float64(time.Since(start)) / float64(time.Millisecond) }

// scatter groups n entries by each key's ring primary under view v (key
// names entry i's key) and runs call once per group, concurrently, with
// the group's member and entry indexes.
func scatter(v *clientView, n int, key func(i int) string, call func(m server.MemberInfo, idxs []int)) {
	groups := make(map[int][]int)
	for i := range n {
		id := v.ring.Coordinator(key(i))
		groups[id] = append(groups[id], i)
	}
	var wg sync.WaitGroup
	for id, idxs := range groups {
		wg.Add(1)
		go func() {
			defer wg.Done()
			call(v.byID[id], idxs)
		}()
	}
	wg.Wait()
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
	start := time.Now()
	scatter(c.view.Load(), len(keys), func(i int) string { return keys[i] }, func(m server.MemberInfo, idxs []int) {
		gkeys, gouts := make([]string, len(idxs)), make([]GetOutcome, len(idxs))
		for j, i := range idxs {
			gkeys[j] = keys[i]
		}
		c.getVia(m, gkeys, gouts, start)
		for j, i := range idxs {
			outs[i] = gouts[j]
		}
	})
	for i := range outs {
		if outs[i].Err != nil && isRetryable(outs[i].Err) {
			res, err := c.Get(keys[i])
			outs[i] = GetOutcome{GetResult: res, Err: err}
		}
	}
	return outs, nil
}

// MGetVia reads many keys through one specific coordinator in a single
// request (tests) — no grouping, no per-key retry. node indexes the
// current member list positionally (ID order).
func (c *Client) MGetVia(node int, keys []string) ([]GetOutcome, error) {
	m, err := c.member(node)
	if err != nil {
		return nil, err
	}
	return c.mgetAt(m, keys)
}

// mgetAt reads keys through member m in one request.
func (c *Client) mgetAt(m server.MemberInfo, keys []string) ([]GetOutcome, error) {
	outs := make([]GetOutcome, len(keys))
	if err := c.getVia(m, keys, outs, time.Now()); err != nil {
		return nil, err
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
	start := time.Now()
	scatter(c.view.Load(), len(ops), func(i int) string { return ops[i].Key }, func(m server.MemberInfo, idxs []int) {
		gops, gouts := make([]server.BatchPutOp, len(idxs)), make([]PutOutcome, len(idxs))
		for j, i := range idxs {
			gops[j] = server.BatchPutOp{Key: ops[i].Key, Value: ops[i].Value, Tombstone: ops[i].Delete}
		}
		c.putVia(m, gops, gouts, start)
		for j, i := range idxs {
			outs[i] = gouts[j]
		}
	})
	for i := range outs {
		if outs[i].Err != nil && isRetryable(outs[i].Err) {
			res, err := c.write(ops[i])
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
	m, err := c.member(node)
	if err != nil {
		return server.StatsResponse{}, err
	}
	return c.tr.Stats(m)
}

// Session is a client session with monotonic-reads tracking (paper
// Section 3.2): it records the highest version observed per key and counts
// reads that regress. With Sticky routing all session reads go through one
// coordinator — the paper's "continue to contact the same replica"
// mitigation.
type Session struct {
	c      *Client
	sticky bool
	// pin is the member ID a sticky session reads through (pinned).
	pin atomic.Int64

	mu         sync.Mutex
	lastSeen   map[string]uint64
	reads      int64
	violations int64
}

// NewSession starts a session. When sticky is true all reads route through
// one coordinator, pinned by member ID.
func (c *Client) NewSession(sticky bool) *Session {
	s := &Session{c: c, sticky: sticky, lastSeen: make(map[string]uint64)}
	if sticky {
		v := c.view.Load()
		s.pin.Store(int64(v.ids[c.readRR.Add(1)%uint64(len(v.ids))]))
	}
	return s
}

// pinned returns the member a sticky session reads through: its pinned
// member while the current view holds it. Once that member has left, the
// session re-pins to the first member above it in ID order (wrapping
// around), so it keeps contacting one replica, as the paper's mitigation
// asks, rather than failing or drifting.
func (s *Session) pinned() server.MemberInfo {
	v := s.c.view.Load()
	id := s.pin.Load()
	if m, ok := v.byID[int(id)]; ok {
		return m
	}
	i, _ := slices.BinarySearch(v.ids, int(id))
	m := v.members[i%len(v.members)]
	s.pin.CompareAndSwap(id, int64(m.ID))
	return m
}

// unreachable reacts to a failed sticky read: a pinned member that cannot
// be reached may have left the cluster, and no answer will carry the
// epoch that says so, so the view is refreshed in the background.
func (s *Session) unreachable(err error) {
	if s.sticky && isRetryable(err) {
		s.c.refreshInBackground()
	}
}

// Get reads key within the session, reporting whether this read violated
// monotonic reads (observed an older version than a previous session
// read).
func (s *Session) Get(key string) (res GetResult, violated bool, err error) {
	if s.sticky {
		res, err = s.c.getOne(s.pinned(), key)
	} else {
		res, err = s.c.Get(key)
	}
	if err != nil {
		s.unreachable(err)
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
	if s.sticky {
		res, err = s.c.mgetAt(s.pinned(), keys)
	} else {
		res, err = s.c.MGet(keys)
	}
	if err != nil {
		s.unreachable(err)
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
