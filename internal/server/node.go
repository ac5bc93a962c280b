// Package server implements the live networked half of the PBS
// reproduction: a real N-replica Dynamo-style key-value service assembled
// from the repository's building blocks — internal/kvstore versioned
// replica storage, internal/ring consistent-hash placement, versions
// ordered by an epoch-tagged per-key sequence number (SeqEpoch) — serving
// a binary client protocol
// (clientproto.go) with coordinated partial-quorum reads and writes
// (tunable N, R, W), send-to-all fan-out, optional read repair, an
// asynchronous staleness detector (paper Section 4.3), and injectable
// per-replica WARS latency (internal/dist) so a loopback cluster
// reproduces the paper's LNKD-SSD / LNKD-DISK / YMMR production
// conditions.
//
// Any node can coordinate any operation: the coordinator looks up the
// key's N-replica preference list on the ring and fans the operation out
// to all N replicas over the internal TCP transport (transport.go), its
// own replica included — matching the WARS model's IID assumption in which
// the coordinator is not co-located with any replica. A write commits when
// W replicas acknowledged; a read returns the newest version among the
// first R responses. The remaining responses complete in the background,
// feeding the staleness detector and (when enabled) read repair.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/configlog"
	"pbs/internal/dist"
	"pbs/internal/gossip"
	"pbs/internal/kvstore"
	"pbs/internal/ring"
	"pbs/internal/storage"
)

// Params configures every node of a cluster.
type Params struct {
	// N, R, W are the replication factor and read/write quorum sizes. All
	// three are initial values: Cluster.SetQuorums retunes (R, W) live and
	// Cluster.SetConfig retunes N too. On an elastic cluster smaller than
	// N, the effective replication factor (and with it R, W) is clamped to
	// the member count until enough nodes join.
	N, R, W int
	// ReadRepair pushes the newest observed version to stale replicas after
	// each read. Leave off for WARS conformance measurement (the paper's
	// validation methodology, Section 5.2).
	ReadRepair bool
	// Handoff enables hinted handoff: coordinators buffer writes for
	// unreachable replicas and replay them on recovery (handoff.go).
	Handoff bool
	// SloppyQuorum enables sloppy quorums (Dynamo Section 4.6): a write
	// whose primary coordinator is down fails over to the first live node
	// on the key's preference list, and fan-out legs to unreachable
	// preference replicas land on the next live node beyond the list as
	// spare writes carrying hints — the spare counts toward the W quorum,
	// so a replica crash causes zero write unavailability as long as W
	// live nodes remain anywhere on the ring. Implies Handoff (the spares'
	// hints need the replay machinery).
	SloppyQuorum bool
	// HandoffInterval paces hint replay (zero means 250ms).
	HandoffInterval time.Duration
	// DataDir enables the durable storage engine (internal/storage): each
	// node persists its replica state under DataDir/node-<id> — a
	// group-commit WAL in front of a memtable that flushes to SSTables — and
	// recovers it on restart, replaying the clean WAL prefix past any torn
	// tail. The pending hinted-handoff set rides the same WAL, so a restart
	// loses no pending hint either. Empty means in-memory storage and hints
	// (state dies with the process).
	DataDir string
	// Fsync is the storage engine's WAL durability policy, for data and
	// hints alike: "always" group-commits an fsync before every ack and
	// every stored hint (the default), "interval" fsyncs on a 100ms
	// ticker, "never" flushes to the OS only. Ignored without DataDir.
	Fsync string
	// MemtableBytes is the storage engine's memtable flush threshold (zero
	// means 4 MiB). Ignored without DataDir.
	MemtableBytes int64
	// AntiEntropy enables the background Merkle anti-entropy service
	// (antientropy.go).
	AntiEntropy bool
	// AntiEntropyInterval paces exchange rounds (zero means 1s).
	AntiEntropyInterval time.Duration
	// GossipInterval paces membership-gossip rounds (gossip.go; zero means
	// 250ms). Gossip runs on every node: it is the dissemination layer that
	// re-converges partitioned or restarted members onto the current ring
	// and carries seq-epoch observations between coordinators.
	GossipInterval time.Duration
	// WARSSampling records per-replica WARS leg latencies into bounded
	// reservoirs served at GET /wars — the measurement feed for the
	// dynamic-configuration tuner. Off by default: sampling costs two
	// clock reads and a mutex per fan-out leg on the hot path.
	WARSSampling bool
	// Model injects per-replica WARS delays drawn from this latency model
	// into every coordinated operation, as given: a caller that stretches
	// the time axis passes the dist.ScaleModel result, the same model its
	// prediction uses. Nil injects nothing.
	Model *dist.LatencyModel
	// Seed seeds latency-injection sampling.
	Seed uint64
}

// ringVnodes is the number of virtual nodes per physical node on the ring.
const ringVnodes = 64

func (p *Params) setDefaults() {
	if p.SloppyQuorum {
		p.Handoff = true
	}
	if p.Fsync == "" {
		p.Fsync = storage.FsyncAlways
	}
}

func (p Params) validate(nodes int) error {
	if nodes < 1 {
		return fmt.Errorf("server: cluster needs at least one node")
	}
	if p.N > nodes {
		return fmt.Errorf("server: replication factor N=%d outside [1, %d]", p.N, nodes)
	}
	return p.validateElastic()
}

// validateElastic checks everything except the N <= cluster-size bound: an
// elastic node may start with a target N above the current member count
// (the effective replication clamps until enough nodes join).
func (p Params) validateElastic() error {
	if p.N < 1 {
		return fmt.Errorf("server: replication factor N=%d outside [1, ...]", p.N)
	}
	if p.R < 1 || p.R > p.N || p.W < 1 || p.W > p.N {
		return fmt.Errorf("server: quorums R=%d W=%d outside [1, N=%d]", p.R, p.W, p.N)
	}
	if p.Fsync != "" && !storage.ValidPolicy(p.Fsync) {
		return fmt.Errorf("server: fsync policy %q (want %s, %s or %s)",
			p.Fsync, storage.FsyncAlways, storage.FsyncInterval, storage.FsyncNever)
	}
	return nil
}

// MemberInfo is one cluster member as reported by GET /config.
type MemberInfo struct {
	ID       int    `json:"id"`
	Addr     string `json:"addr"`     // HTTP admin base URL
	Internal string `json:"internal"` // replication-transport TCP address
}

// ConfigResponse is the payload of GET /config: everything a client needs
// to route operations itself (Section 4.2's client-driven coordination).
// Members carries the versioned ring view (members in ID order).
type ConfigResponse struct {
	N      int `json:"n"`
	R      int `json:"r"`
	W      int `json:"w"`
	Vnodes int `json:"vnodes"`
	// RingEpoch versions the member set; a client holding a lower epoch
	// should refresh its view.
	RingEpoch uint64       `json:"ring_epoch"`
	Members   []MemberInfo `json:"members"`
}

// PutResponse answers a client write (opClientPut/opClientDelete).
type PutResponse struct {
	Seq uint64 `json:"seq"`
	// CommittedUnixNano is the coordinator wall clock at quorum commit (the
	// W-th acknowledgment), the origin of the paper's t axis.
	CommittedUnixNano int64 `json:"committed_unix_nano"`
	// CoordMs is the coordinator-measured operation latency: fan-out start
	// to quorum commit, the live counterpart of the WARS W-th order
	// statistic of W+A.
	CoordMs float64 `json:"coord_ms"`
	Node    int     `json:"node"`
}

// GetResponse answers a client read (opClientGet).
type GetResponse struct {
	Found bool   `json:"found"`
	Seq   uint64 `json:"seq"`
	Value string `json:"value"`
	// CoordMs is the coordinator-measured read latency: fan-out start to
	// the R-th response, the live counterpart of the WARS R-th order
	// statistic of R+S.
	CoordMs float64 `json:"coord_ms"`
	Node    int     `json:"node"`
}

// StatsResponse is the payload of GET /stats.
type StatsResponse struct {
	Node          int   `json:"node"`
	R             int   `json:"r"` // current read quorum (live-tunable)
	W             int   `json:"w"` // current write quorum (live-tunable)
	CoordReads    int64 `json:"coord_reads"`
	CoordWrites   int64 `json:"coord_writes"`
	FailedOps     int64 `json:"failed_ops"`
	ReadRepairs   int64 `json:"read_repairs"`
	DetectorFlags int64 `json:"detector_flags"`
	Keys          int   `json:"keys"`
	Applied       int64 `json:"applied"`
	Ignored       int64 `json:"ignored"`

	// Hinted-handoff counters (zero unless Params.Handoff).
	HintsPending  int   `json:"hints_pending"`
	HintsStored   int64 `json:"hints_stored"`
	HintsReplayed int64 `json:"hints_replayed"`
	HintsDropped  int64 `json:"hints_dropped"`
	// HintsRestored counts hints recovered from the storage engine's WAL
	// at node start (zero unless Params.DataDir).
	HintsRestored int64 `json:"hints_restored"`

	// Sloppy-quorum counters (zero unless Params.SloppyQuorum).
	// FailoverWrites counts writes this node coordinated in place of a
	// down primary; SpareWrites counts write legs that landed on a spare
	// node beyond the preference list, carrying a hint; SpareReads counts
	// read legs answered by a spare standing in for a down replica.
	FailoverWrites int64 `json:"failover_writes"`
	SpareWrites    int64 `json:"spare_writes"`
	SpareReads     int64 `json:"spare_reads"`

	// Elastic-membership state: the node's current ring epoch and how many
	// membership changes (joins/leaves) it has adopted since start.
	RingEpoch uint64 `json:"ring_epoch"`
	RingFlips int64  `json:"ring_flips"`

	// Membership-gossip counters (gossip.go). GossipInstalls counts ring
	// views adopted *from* gossip exchanges — nonzero on a node that
	// re-learned the membership through dissemination rather than an
	// explicit push.
	GossipRounds   int64 `json:"gossip_rounds"`
	GossipFailed   int64 `json:"gossip_failed"`
	GossipInstalls int64 `json:"gossip_installs"`

	// Ring-config consensus counters (ringlog.go, internal/configlog).
	// ConfigDecides counts log slots this node learned a decision for;
	// ConfigRejects counts membership installs refused because they
	// conflicted with the configuration committed at the same epoch.
	ConfigDecides int64 `json:"config_decides"`
	ConfigRejects int64 `json:"config_rejects"`

	// Anti-entropy counters (zero unless Params.AntiEntropy).
	AERounds  int64 `json:"ae_rounds"`
	AEFailed  int64 `json:"ae_failed"`
	AEBuckets int64 `json:"ae_buckets"`
	AEPulled  int64 `json:"ae_pulled"`
	AEPushed  int64 `json:"ae_pushed"`

	// Durable-storage-engine counters (zero unless Params.DataDir).
	// StoreRecovered is the number of distinct keys reloaded from disk at
	// node start; WALAppends/WALSyncs expose the group-commit batch ratio.
	StoreRecovered   int64 `json:"store_recovered"`
	StoreFlushes     int64 `json:"store_flushes"`
	StoreCompactions int64 `json:"store_compactions"`
	StoreSSTables    int   `json:"store_sstables"`
	WALAppends       int64 `json:"wal_appends"`
	WALSyncs         int64 `json:"wal_syncs"`
	WALErrs          int64 `json:"wal_errs"`
	// WALTruncated is 1 when the start-time WAL replay stopped before a
	// segment's end at a torn or undecodable record, data or hint (the
	// clean prefix was still replayed).
	WALTruncated int64 `json:"wal_truncated"`
}

// Sequence numbers carry a per-key epoch in their high bits: a failover
// coordinator (sloppy quorums) claims a fresh epoch above everything stored
// locally, so the seqs it assigns can never tie with ones the unreachable
// primary may still assign from memory after recovery — ties are what fork
// a key's history (two distinct versions with equal seq converge to
// different replicas under the store's ignore-duplicates rule). Within an
// epoch, seqs remain densely increasing counters.
const (
	seqEpochShift = 48
	seqCounterMax = uint64(1)<<seqEpochShift - 1
)

// SeqEpoch and SeqCounter split a version number into its failover epoch
// (high bits) and per-epoch counter (low bits). Counters continue across
// epoch claims — a takeover bumps the epoch but keeps counting — so the
// counter difference between two versions of one key counts the versions
// between them even across a failover; consumers measuring k-staleness
// must compare counters, not raw seqs.
func SeqEpoch(seq uint64) uint64   { return seq >> seqEpochShift }
func SeqCounter(seq uint64) uint64 { return seq & seqCounterMax }

// Accumulate adds every counter of o into s; R and W (live quorum sizes,
// not counters) adopt o's values and Node is left alone. It is the single
// aggregation path shared by Cluster.Stats and the client-side
// ClusterStats, so a counter added to StatsResponse cannot be summed in
// one aggregator and silently missed in the other.
func (s *StatsResponse) Accumulate(o StatsResponse) {
	s.R, s.W = o.R, o.W
	s.CoordReads += o.CoordReads
	s.CoordWrites += o.CoordWrites
	s.FailedOps += o.FailedOps
	s.ReadRepairs += o.ReadRepairs
	s.DetectorFlags += o.DetectorFlags
	s.Keys += o.Keys
	s.Applied += o.Applied
	s.Ignored += o.Ignored
	s.HintsPending += o.HintsPending
	s.HintsStored += o.HintsStored
	s.HintsReplayed += o.HintsReplayed
	s.HintsDropped += o.HintsDropped
	s.HintsRestored += o.HintsRestored
	s.FailoverWrites += o.FailoverWrites
	s.SpareWrites += o.SpareWrites
	s.SpareReads += o.SpareReads
	if o.RingEpoch > s.RingEpoch {
		s.RingEpoch = o.RingEpoch
	}
	s.RingFlips += o.RingFlips
	s.GossipRounds += o.GossipRounds
	s.GossipFailed += o.GossipFailed
	s.GossipInstalls += o.GossipInstalls
	s.ConfigDecides += o.ConfigDecides
	s.ConfigRejects += o.ConfigRejects
	s.AERounds += o.AERounds
	s.AEFailed += o.AEFailed
	s.AEBuckets += o.AEBuckets
	s.AEPulled += o.AEPulled
	s.AEPushed += o.AEPushed
	s.StoreRecovered += o.StoreRecovered
	s.StoreFlushes += o.StoreFlushes
	s.StoreCompactions += o.StoreCompactions
	s.StoreSSTables += o.StoreSSTables
	s.WALAppends += o.WALAppends
	s.WALSyncs += o.WALSyncs
	s.WALErrs += o.WALErrs
	s.WALTruncated += o.WALTruncated
}

// keyEntry serializes version-number assignment for one key at its
// coordinator.
type keyEntry struct {
	mu   sync.Mutex
	next uint64
}

// Node is one replica process: local storage plus coordinator logic.
type Node struct {
	id     int
	params Params
	inj    *injector
	epoch  time.Time
	// selfHTTP and selfInternal are this node's own addresses — needed
	// before the node appears in its own membership (a joiner mid-join).
	selfHTTP, selfInternal string

	// mem is the node's atomic membership snapshot (versioned ring + RPC
	// clients, see membership.go); memMu serializes installs. Every
	// coordinated operation loads the snapshot once at admission.
	mem   atomic.Pointer[memView]
	memMu sync.Mutex
	// pendingJoins maps a joining node's internal address to the ID this
	// node assigned it (opJoin), until the join's ring flip lands; guarded
	// by memMu. lastAssigned keeps back-to-back assignments distinct even
	// before any flip.
	pendingJoins map[string]int
	lastAssigned int
	ringFlips    atomic.Int64
	// cfgDigests pins the membership digest committed (or first installed)
	// at each ring epoch, guarded by memMu: a second, different membership
	// claiming an already-pinned epoch is rejected, so two conflicting
	// same-epoch views can never both take effect on one node.
	cfgDigests map[uint64]uint64

	// gossip is the node's membership-dissemination table (internal/gossip);
	// cfglog is its ring-config consensus acceptor/learner state
	// (internal/configlog). Both are nil only on detached test nodes.
	gossip *gossip.State
	cfglog *configlog.Log

	// seqFloor is the highest seq epoch the *cluster* remembers this node
	// claiming (fed by gossip echoes of previous incarnations); nextSeq
	// assigns above it. selfMaxClaim is the highest epoch this incarnation
	// has claimed itself — echoes at or below it carry no new information
	// and do not move the floor.
	seqFloor     atomic.Uint64
	selfMaxClaim atomic.Uint64

	// rq, wq and nrep are the live quorum sizes and replication factor.
	// They start at Params.R/W/N and can be retuned at runtime
	// (Cluster.SetQuorums/SetConfig, the monitor-fed tuner); coordinators
	// load them once per operation.
	rq, wq, nrep atomic.Int32

	// store is the replica's storage engine: kvstore.Synced (in-memory) or
	// storage.Engine (durable, Params.DataDir). Engines are internally
	// synchronized — the node layer never wraps a lock around them, which is
	// what lets the durable engine group-commit concurrent appliers under
	// one fsync.
	store kvstore.Engine

	keys sync.Map // string -> *keyEntry

	// legQueues holds the persistent per-peer fan-out worker queues
	// (fanout.go): member ID -> *peerQueue. IDs are never reused, so a
	// queue binds to one member forever.
	legQueues sync.Map

	faults *Faults
	live   *liveness // peer reachability cache (sloppy-quorum routing)
	ae     aeStats
	legs   *legSampler
	stop   chan struct{} // closed on Close; stops background loops

	coordReads     atomic.Int64
	coordWrites    atomic.Int64
	failedOps      atomic.Int64
	readRepairs    atomic.Int64
	detectorFlags  atomic.Int64
	failoverWrites atomic.Int64
	spareWrites    atomic.Int64
	spareReads     atomic.Int64
	gossipRounds   atomic.Int64
	gossipFailed   atomic.Int64
	gossipInstalls atomic.Int64
	configDecides  atomic.Int64
	configRejects  atomic.Int64

	httpSrv    *http.Server
	internalLn net.Listener
	// accepted holds the live connections accepted on the internal
	// listener — peer mux and client protocol alike — so Close can cut
	// them: a closed node stops answering instead of serving whoever still
	// holds a connection. nil once Close has run.
	acceptedMu sync.Mutex
	accepted   map[net.Conn]struct{}
	closeOnce  sync.Once
	closed     atomic.Bool // set by Close; a closed node is not a live member
}

// nowMs is the node's store clock (milliseconds since node start), used to
// stamp version arrival times.
func (n *Node) nowMs() float64 {
	return float64(time.Since(n.epoch)) / float64(time.Millisecond)
}

// applyLocal installs a replicated version into this replica's store. With
// a durable engine this does not return until the version is persisted per
// the fsync policy — an acked apply survives SIGKILL.
func (n *Node) applyLocal(v kvstore.Version) bool {
	return n.store.Apply(v, n.nowMs())
}

// getLocal reads this replica's current version for key. The boolean means
// a record exists — a tombstone reads as found here, so quorum reads can
// pick the newest version across live and deleted states; visibility is
// decided at the coordinator (coordinateGetOp).
func (n *Node) getLocal(key string) (kvstore.Version, bool) {
	return n.store.Get(key)
}

// nextSeq assigns the next version number for key. Writes for a key are
// routed to its primary coordinator (ring.Coordinator), which serializes
// assignment per key; the store's own sequence is folded in so a node that
// newly becomes coordinator continues the existing version history.
//
// takeover marks failover coordination (sloppy quorums: the primary is
// down and this node is the first live preference replica).
//
// Epoch ownership is structural: epoch 0 belongs to the key's ring
// primary, and every other epoch e belongs to node e mod clusterSize —
// a coordinator that finds itself assigning in an epoch it does not own
// (a takeover leaving the primary's epoch 0, a recovered primary taking
// back a key whose history a failover coordinator advanced, a second
// failover coordinator succeeding a first) claims the next epoch above
// it carrying its own residue. Two distinct nodes can therefore never
// assign in the same epoch, so cross-coordinator seq ties — the thing
// that forks a key's history, since two distinct versions with equal seq
// converge to different replicas under the store's ignore-duplicates
// rule — are impossible by construction; within an epoch, assignment is
// serialized by the owner's keyEntry.
//
// The stale-coordinator race is caught at delivery time, not here: a
// coordinator whose store missed a higher epoch assigns beneath it,
// replicas answer each apply with their current seq, a leg ignored in
// favor of a higher-epoch version does not count toward W (ackable), and
// the observed seq is folded back (foldSeq) so the retry assigns above
// the usurping epoch. The once-remaining window — no reachable replica
// has the higher epoch to report, e.g. a coordinator restarted mid-epoch
// after acking writes no surviving replica stored — is closed by gossip:
// every claim a coordinator makes is recorded in its gossip entry and
// echoed back by peers, so a restarted coordinator re-learns the highest
// epoch its previous incarnation ever claimed (seqFloor) from its first
// gossip exchange and assigns above it, even when no surviving replica
// stored a version carrying that epoch.
// Seq-epoch ownership is computed modulo the membership's ID-allocation
// bound (ring.Membership.SeqModulus) rather than the member count: IDs are
// never reused, so ownership of every already-claimed epoch stays with the
// node that claimed it across joins. The modulus does grow when nodes
// join, which can reinterpret an *old* epoch's residue — a coordinator that
// finds itself in that position simply claims a fresh epoch above it
// carrying its own residue under the current modulus, which is always safe
// (claims are monotone).
func (n *Node) nextSeq(key string, takeover bool) uint64 {
	e := n.keyEntry(key)
	e.mu.Lock()
	defer e.mu.Unlock()
	stored := n.store.Seq(key)
	if stored > e.next {
		e.next = stored
	}
	epoch := SeqEpoch(e.next)
	owns := epoch == 0 && !takeover
	var nodes uint64
	if v := n.view(); v != nil {
		nodes = v.m.SeqModulus()
	}
	if !owns && nodes > 0 {
		owns = epoch != 0 && epoch%nodes == uint64(n.id)
		if !owns {
			next := epoch + 1
			next += (uint64(n.id) + nodes - next%nodes) % nodes
			e.next = next<<seqEpochShift | SeqCounter(e.next)
		}
	}
	// Gossip floor: the cluster remembers this node claiming an epoch above
	// what its (possibly restarted, possibly empty) store shows — claim a
	// fresh owned epoch above the floor so no assignment can tie with the
	// previous incarnation's.
	if floor := n.seqFloor.Load(); nodes > 0 && floor > 0 && SeqEpoch(e.next) <= floor {
		next := floor + 1
		next += (uint64(n.id) + nodes - next%nodes) % nodes
		e.next = next<<seqEpochShift | SeqCounter(e.next)
	}
	e.next++
	// Publish the claim so peers remember it for this node's next
	// incarnation. selfMaxClaim is raised first: a gossip echo of this very
	// claim must read as already-known, not as a floor raise.
	if ep := SeqEpoch(e.next); ep > 0 && n.gossip != nil {
		for {
			cur := n.selfMaxClaim.Load()
			if ep <= cur || n.selfMaxClaim.CompareAndSwap(cur, ep) {
				break
			}
		}
		n.gossip.ObserveSeqEpoch(n.id, ep)
	}
	return e.next
}

// --- HTTP admin API ----------------------------------------------------

// handler serves the admin surface: the routing configuration a client
// bootstraps from (DialBinary fetches GET /config), counters, WARS leg
// reservoirs and a health check. Data-plane traffic speaks the binary
// client protocol (clientproto.go).
func (n *Node) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /config", n.handleConfig)
	mux.HandleFunc("GET /stats", n.handleStats)
	mux.HandleFunc("GET /wars", n.handleWARS)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Write([]byte("ok"))
	})
	// A crashed replica's entire admin surface answers 503 — health checks
	// and stats scrapes must see the process as dead.
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if n.faults.Down(n.id) {
			http.Error(w, ErrReplicaDown.Error(), http.StatusServiceUnavailable)
			return
		}
		mux.ServeHTTP(w, req)
	})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(v)
}

// maxValueBytes bounds one value payload.
const maxValueBytes = 1 << 20

const errValueTooLarge = "server: value exceeds 1 MiB"

// opError is a coordination failure in typed form: code is the binary
// client protocol's error code (clientproto.go). Single-key, batched and
// forwarded writes all route through the typed entry points below, so
// they cannot drift on failure semantics — in particular on which
// failures a client may retry at another node (CodeUnavailable) versus
// which are the cluster's final verdict (quorum failures, bad requests).
type opError struct {
	code byte
	msg  string
}

func (e *opError) Error() string { return e.msg }

func errUnavailable(msg string) *opError { return &opError{code: CodeUnavailable, msg: msg} }

func errQuorumFailed(msg string) *opError { return &opError{code: CodeQuorumFailed, msg: msg} }

func errBadRequest(msg string) *opError { return &opError{code: CodeBadRequest, msg: msg} }

func errInternal(msg string) *opError { return &opError{code: CodeInternal, msg: msg} }

// routeWriteOp routes a write (a delete is a write whose version is a
// tombstone). Version-number assignment is serialized at the key's
// coordinator, so a write arriving at any other node is forwarded there
// first (Section 4.2's "proxying operations") — otherwise two coordinators
// could assign the same sequence number and fork the key's history. The
// coordinator is normally the key's ring primary; with sloppy quorums it
// is the first *live* node on the preference list, so a crashed primary
// costs availability nothing (the failover coordinator claims a fresh seq
// epoch, see nextSeq).
//
// fwdEpoch is the forwarder's ring epoch, 0 when the write was not
// forwarded. A receiver that is not the key's primary forwards again only
// when its own view is newer than the forwarder's, so every hop carries a
// strictly higher epoch and forwarding cannot loop; a receiver whose view
// is older waits for the forwarder's newer view to arrive (awaitEpoch).
func (n *Node) routeWriteOp(key, value string, tombstone bool, fwdEpoch uint64) (PutResponse, *opError) {
	v := n.view()
	if v == nil {
		return PutResponse{}, errUnavailable("server: node has no membership yet")
	}
	primary := v.m.Coordinator(key)
	if primary == n.id {
		return n.coordinatePutOp(v, key, value, tombstone, false)
	}
	if !n.params.SloppyQuorum {
		switch epoch := v.m.Epoch(); {
		case fwdEpoch == 0 || epoch > fwdEpoch:
			return n.forwardWrite(v, primary, key, value, tombstone)
		case epoch < fwdEpoch && n.awaitEpoch(fwdEpoch):
			return n.routeWriteOp(key, value, tombstone, fwdEpoch)
		}
		return PutResponse{}, errInternal("server: forwarding loop: not the primary coordinator")
	}
	if fwdEpoch != 0 {
		// The forwarder decided we are the first live preference replica.
		// Accept the takeover if we really are on the preference list;
		// re-forwarding here risks loops whenever liveness views disagree.
		if !n.onPreferenceList(v, key) {
			return PutResponse{}, errInternal("server: forwarded to a non-replica coordinator")
		}
		return n.coordinatePutOp(v, key, value, tombstone, true)
	}
	// Sloppy routing: hand the write to the first live preference replica,
	// falling through the list as candidates fail — ourselves included.
	sawQuorumFail := false
	var pbuf [maxStackPrefs]int
	for _, cand := range n.prefs(pbuf[:0], v, ring.Hash(key)) {
		if cand == n.id {
			return n.coordinatePutOp(v, key, value, tombstone, true)
		}
		if !n.alive(v, cand) {
			continue
		}
		pr, oe, outcome := n.tryForwardOp(v, cand, key, value, tombstone)
		switch outcome {
		case forwardRelayed:
			return pr, oe
		case forwardFailed:
			// The candidate is alive — it coordinated (or proxied) and
			// genuinely failed; it is not dead and already counted the
			// failure. Still try the remaining candidates: a different
			// coordinator may reach a quorum this one could not.
			sawQuorumFail = true
		}
	}
	if sawQuorumFail {
		// A live coordinator owned the failure and counted it; relaying
		// its verdict without another failedOps increment keeps one failed
		// client write from counting 2-3 times across the routing chain.
		return PutResponse{}, errQuorumFailed("server: write quorum not reached")
	}
	// No coordination happened here, so nothing is added to failedOps —
	// that counter means failed coordinations, and a client walking the
	// ring would otherwise count one dead key range once per live routing
	// node it tried. Routing-level unavailability surfaces as the client's
	// own error count.
	return PutResponse{}, errUnavailable("server: no live coordinator for key")
}

// awaitEpoch waits, for at most a second, until this node has installed a
// ring view at least as new as epoch; it reports whether it has. A
// forwarder's newer view is normally in flight to us (the flip pushes it to
// every member), so waiting keeps the write from failing mid-flip.
func (n *Node) awaitEpoch(epoch uint64) bool {
	deadline := time.Now().Add(time.Second)
	for {
		if v := n.view(); v != nil && v.m.Epoch() >= epoch {
			return true
		}
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-n.stop:
			return false
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// onPreferenceList reports whether this node replicates key under view v.
func (n *Node) onPreferenceList(v *memView, key string) bool {
	var pbuf [maxStackPrefs]int
	for _, id := range n.prefs(pbuf[:0], v, ring.Hash(key)) {
		if id == n.id {
			return true
		}
	}
	return false
}

// coordinatePutOp coordinates a write at this node: assign the next
// version, fan it out to all N preference replicas with injected W/A delays
// (redirecting legs for unreachable replicas to hinted spares in sloppy
// mode), answer at the W-th acknowledgment. The whole operation runs under
// the membership view loaded at admission.
func (n *Node) coordinatePutOp(v *memView, key, value string, tombstone, takeover bool) (PutResponse, *opError) {
	n.coordWrites.Add(1)
	if takeover {
		n.failoverWrites.Add(1)
	}

	seq := n.nextSeq(key, takeover)
	ver := kvstore.Version{
		Key:       key,
		Seq:       seq,
		Value:     value,
		Tombstone: tombstone,
	}
	var pbuf [maxStackPrefs]int
	prefs := n.prefs(pbuf[:0], v, ring.Hash(key))
	nReps := len(prefs)
	// The quorum clamps to the replica count: an elastic cluster smaller
	// than its target N keeps committing with the replicas it has.
	quorumW := int(n.wq.Load())
	if quorumW > nReps {
		quorumW = nReps
	}
	start := time.Now()
	ws := newWriteState(quorumW, nReps)
	var lbuf [maxStackPrefs]*legTask
	n.submitLegs(n.addWriteLegs(lbuf[:0], v, prefs, ver, ws))

	<-ws.waiter
	committed := ws.signaledAt
	if !ws.finish() {
		n.failedOps.Add(1)
		return PutResponse{}, errQuorumFailed("server: write quorum not reached")
	}
	return PutResponse{
		Seq:               seq,
		CommittedUnixNano: committed.UnixNano(),
		CoordMs:           durationMs(committed.Sub(start)),
		Node:              n.id,
	}, nil
}

// ackable decides whether a delivered write leg counts toward W. A replica
// that ignored the version because it already holds a same- or
// lower-epoch seq is a benign duplicate race (two concurrent writes of one
// coordinator reordered in flight) and still acks; a replica holding a
// *higher-epoch* version reveals that this coordinator is assigning in a
// superseded epoch — a recovered primary racing the hint drain — and the
// leg must NOT ack: the write is already shadowed everywhere, and acking
// would report durability for a value the cluster is about to discard.
// The observed seq is folded into the key's assignment state so the
// client's retry is assigned above the usurping epoch and commits cleanly.
func (n *Node) ackable(ver kvstore.Version, ack applyAck) bool {
	if ack.applied || SeqEpoch(ack.seq) <= SeqEpoch(ver.Seq) {
		return true
	}
	n.foldSeq(ver.Key, ack.seq)
	return false
}

// keyEntry returns key's assignment state, creating it on first use. The
// Load comes first so a key the node already tracks costs no entry and no
// boxed key.
func (n *Node) keyEntry(key string) *keyEntry {
	if e, ok := n.keys.Load(key); ok {
		return e.(*keyEntry)
	}
	e, _ := n.keys.LoadOrStore(key, &keyEntry{})
	return e.(*keyEntry)
}

// deadError reports whether an RPC failure indicates the replica itself is
// unreachable, as opposed to a single lost message. A dropped RPC
// (link-level loss injection) must not poison the liveness cache: a lossy
// replica is degraded, not dead, and routing writes away from it — spares,
// takeover epochs — is the policy crashGate and Ping deliberately avoid.
func deadError(err error) bool {
	return !errors.Is(err, ErrRPCDropped)
}

// foldSeq folds a replica-observed seq into the key's assignment state, so
// the next version assigned here claims above it.
func (n *Node) foldSeq(key string, seq uint64) {
	e := n.keyEntry(key)
	e.mu.Lock()
	if seq > e.next {
		e.next = seq
	}
	e.mu.Unlock()
}

// forwardWrite proxies a write to the key's primary coordinator
// (strict-quorum routing) and relays its verdict in typed form. A forward
// that gets no verdict back — the primary is crashed or cut off, or the
// forward or its answer was lost — is a retryable unavailability, not a
// quorum verdict: no coordinator has ruled on the write (as with a
// client's own broken connection, a retry may repeat a write whose answer
// was lost).
func (n *Node) forwardWrite(v *memView, primary int, key, value string, tombstone bool) (PutResponse, *opError) {
	pr, err := v.peers[primary].ForwardWrite(key, value, tombstone, v.m.Epoch())
	if err == nil {
		return pr, nil
	}
	var ce *ClientError
	if errors.As(err, &ce) {
		return PutResponse{}, &opError{code: ce.Code, msg: ce.Msg}
	}
	return PutResponse{}, errUnavailable("server: forward to primary: " + err.Error())
}

// forwardOutcome classifies one sloppy-routing forward attempt.
type forwardOutcome int

const (
	// forwardRelayed: the candidate answered and its response was relayed.
	forwardRelayed forwardOutcome = iota
	// forwardUnreachable: the forward never reached a coordinator — the
	// candidate is down or cut off (and is marked dead), or the message
	// was lost on a lossy link.
	forwardUnreachable
	// forwardFailed: the candidate is alive but could not commit (its own
	// quorum failed, or it is otherwise unavailable) — not a death signal.
	forwardFailed
)

// tryForwardOp proxies a write to candidate coordinator cand
// (sloppy-quorum routing). Unreachable and failed candidates are NOT
// relayed: the caller moves to the next candidate instead of surfacing a
// failure the cluster can absorb. Only a candidate that is down or
// partitioned is marked dead in the liveness cache; the response/error
// pair is meaningful only on forwardRelayed.
func (n *Node) tryForwardOp(v *memView, cand int, key, value string, tombstone bool) (PutResponse, *opError, forwardOutcome) {
	pr, err := v.peers[cand].ForwardWrite(key, value, tombstone, v.m.Epoch())
	if err == nil {
		return pr, nil, forwardRelayed
	}
	var ce *ClientError
	if !errors.As(err, &ce) {
		if deadError(err) {
			n.live.markDead(cand)
		}
		return PutResponse{}, nil, forwardUnreachable
	}
	switch ce.Code {
	case CodeUnavailable:
		// A crashed or partitioned candidate refuses forwards with exactly
		// these messages (downRefusal).
		if ce.Msg == ErrReplicaDown.Error() || ce.Msg == ErrPartitioned.Error() {
			n.live.markDead(cand)
			return PutResponse{}, nil, forwardUnreachable
		}
		return PutResponse{}, nil, forwardFailed
	case CodeQuorumFailed:
		return PutResponse{}, nil, forwardFailed
	}
	return PutResponse{}, &opError{code: ce.Code, msg: ce.Msg}, forwardRelayed
}

// coordinateGetOp coordinates a read: fan out to all N preference replicas
// with injected R/S delays, answer with the newest of the first R
// responses, then keep collecting in the background for the staleness
// detector and read repair. With sloppy quorums, a leg whose preference
// replica is down falls back to the next live spare beyond the preference
// list — the node that absorbed the down replica's hinted writes — and the
// spare's response counts toward R (the read-side mirror of the write-side
// spare behavior). key may alias the client's request frame: the read
// state keeps its own copy. The answer is appended to dst as a client GET
// body (appendClientGetBody).
func (n *Node) coordinateGetOp(key, dst []byte) ([]byte, *opError) {
	n.coordReads.Add(1)

	v := n.view()
	if v == nil {
		return dst, errUnavailable("server: node has no membership yet")
	}
	var pbuf [maxStackPrefs]int
	prefs := n.prefs(pbuf[:0], v, ring.Hash(key))
	nReps := len(prefs)
	quorumR := int(n.rq.Load())
	if quorumR > nReps {
		quorumR = nReps
	}
	start := time.Now()
	rs := n.newReadState(v, key, quorumR, nReps)
	var lbuf [maxStackPrefs]*legTask
	n.submitLegs(n.addReadLegs(lbuf[:0], v, prefs, rs))

	// Wait for the read quorum (or every leg, if the quorum is
	// unreachable), then compute the verdict over the first R successful
	// responses in arrival order.
	<-rs.waiter
	out, ok, finalizeNow := rs.answer(dst, durationMs(rs.signaledAt.Sub(start)))
	if !ok {
		// The waiter only fired with succ < quorum because every leg had
		// answered, so nothing can still touch rs: release it here.
		n.failedOps.Add(1)
		rs.release()
		return dst, errQuorumFailed("server: read quorum not reached")
	}
	// The staleness-detector / read-repair pass over the complete response
	// set (the v1 finishRead) runs on whichever of {last leg, handler} gets
	// there last.
	rs.finish(finalizeNow)
	return out, nil
}

func (n *Node) handleConfig(w http.ResponseWriter, _ *http.Request) {
	cfg, oe := n.configLocal()
	if oe != nil {
		http.Error(w, oe.msg, http.StatusServiceUnavailable)
		return
	}
	writeJSON(w, cfg)
}

// configLocal assembles the routing configuration served at GET /config
// and over the binary protocol's config op.
func (n *Node) configLocal() (ConfigResponse, *opError) {
	v := n.view()
	if v == nil {
		return ConfigResponse{}, errUnavailable("server: node has no membership yet")
	}
	members := v.m.Members()
	cfg := ConfigResponse{
		N:         int(n.nrep.Load()),
		R:         int(n.rq.Load()),
		W:         int(n.wq.Load()),
		Vnodes:    v.m.Vnodes(),
		RingEpoch: v.m.Epoch(),
	}
	for _, mem := range members {
		cfg.Members = append(cfg.Members, MemberInfo{ID: mem.ID, Addr: mem.HTTPAddr, Internal: mem.InternalAddr})
	}
	return cfg, nil
}

// statsLocal assembles this node's full counter snapshot — the single
// source for both the /stats endpoint and Cluster.Stats aggregation.
func (n *Node) statsLocal() StatsResponse {
	keys := n.store.Len()
	applied, ignored := n.store.Stats()
	st := StatsResponse{
		Node:           n.id,
		R:              int(n.rq.Load()),
		W:              int(n.wq.Load()),
		CoordReads:     n.coordReads.Load(),
		CoordWrites:    n.coordWrites.Load(),
		FailedOps:      n.failedOps.Load(),
		ReadRepairs:    n.readRepairs.Load(),
		DetectorFlags:  n.detectorFlags.Load(),
		FailoverWrites: n.failoverWrites.Load(),
		SpareWrites:    n.spareWrites.Load(),
		SpareReads:     n.spareReads.Load(),
		RingFlips:      n.ringFlips.Load(),
		GossipRounds:   n.gossipRounds.Load(),
		GossipFailed:   n.gossipFailed.Load(),
		GossipInstalls: n.gossipInstalls.Load(),
		ConfigDecides:  n.configDecides.Load(),
		ConfigRejects:  n.configRejects.Load(),
		Keys:           keys,
		Applied:        applied,
		Ignored:        ignored,
	}
	if v := n.view(); v != nil {
		st.RingEpoch = v.m.Epoch()
	}
	hs := n.store.HintStats()
	st.HintsPending, st.HintsStored, st.HintsReplayed, st.HintsDropped, st.HintsRestored =
		hs.Pending, hs.Stored, hs.Replayed, hs.Dropped, hs.Restored
	st.AERounds, st.AEFailed, st.AEBuckets, st.AEPulled, st.AEPushed = n.ae.snapshot()
	if e, ok := n.store.(*storage.Engine); ok {
		m := e.Metrics()
		st.StoreRecovered = m.Recovered
		st.StoreFlushes = m.Flushes
		st.StoreCompactions = m.Compactions
		st.StoreSSTables = m.SSTables
		st.WALAppends = m.WALAppends
		st.WALSyncs = m.WALSyncs
		st.WALErrs = m.WALErrs
		st.WALTruncated = m.WALTruncated
	}
	return st
}

func (n *Node) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, n.statsLocal())
}

func (n *Node) handleWARS(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, n.legs.snapshot(n.id))
}
