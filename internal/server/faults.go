package server

// Cluster-wide fault injection. A Faults controller is shared by every node
// of a cluster; the per-link faultPeer wrappers (peers.go) consult it
// before each internal RPC, and nodes consult it to refuse service while
// crashed. Supported faults:
//
//   - crash: the replica is down — internal RPCs to or from it fail fast,
//     its public HTTP API answers 503, and its background services
//     (handoff replay, anti-entropy) idle until recovery.
//   - pause: the replica stalls (long GC, VM migration) — RPCs toward it
//     block until resume instead of failing.
//   - drop: a fraction of internal RPCs toward the replica is lost.
//   - delay: internal RPCs toward the replica are delayed by a fixed
//     amount, on top of any injected WARS latency.
//   - partition: the replica is cut off from every other node — internal
//     RPCs to and from it fail, control plane included (gossip, pings,
//     membership pushes), but unlike a crash its process stays up: the
//     public HTTP surface keeps answering from the stale local view. This
//     is the "drop rule between one node and the rest" scenario gossip
//     must heal.
//
// Faults can be driven programmatically (tests, Cluster helpers) or from a
// scripted schedule ("500ms crash 1; 2s recover 1") for pbs-serve's -fail
// flag.

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"pbs/internal/rng"
)

// ErrReplicaDown is the fast-fail error for RPCs to or from a crashed
// replica.
var ErrReplicaDown = errors.New("server: replica down")

// ErrRPCDropped is the error for an internal RPC lost to link-level drop
// injection.
var ErrRPCDropped = errors.New("server: rpc dropped")

// ErrPartitioned is the error for an internal RPC cut by a network
// partition at either endpoint.
var ErrPartitioned = errors.New("server: network partition")

// nodeFault is the injected state of one replica.
type nodeFault struct {
	down        bool
	partitioned bool
	paused      chan struct{} // non-nil while paused; closed on resume
	dropP       float64
	delayMs     float64
}

// Faults is a cluster-wide fault controller, safe for concurrent use.
// The zero value and the nil pointer inject nothing.
type Faults struct {
	// armed mirrors whether any fault is currently configured (recomputed
	// by rearm on every mutation): while false, the per-RPC gates (allow,
	// Down) are a single atomic load, so a cluster with no active faults —
	// never injected, or healed after a fault window — pays nothing on the
	// replication hot path.
	armed atomic.Bool

	mu    sync.Mutex
	r     *rng.RNG
	nodes map[int]*nodeFault
	log   []string
	epoch time.Time

	injected int64 // RPCs failed or delayed by injection
}

// NewFaults returns an idle fault controller; seed drives drop sampling.
func NewFaults(seed uint64) *Faults {
	return &Faults{r: rng.New(seed), nodes: make(map[int]*nodeFault), epoch: time.Now()}
}

// node returns (creating if needed) a replica's fault state. Callers hold
// f.mu and must rearm after mutating.
func (f *Faults) node(id int) *nodeFault {
	nf := f.nodes[id]
	if nf == nil {
		nf = &nodeFault{}
		f.nodes[id] = nf
	}
	return nf
}

// rearm recomputes the armed fast-path flag from the current fault state.
// Callers hold f.mu.
func (f *Faults) rearm() {
	for _, nf := range f.nodes {
		if nf.down || nf.partitioned || nf.paused != nil || nf.dropP > 0 || nf.delayMs > 0 {
			f.armed.Store(true)
			return
		}
	}
	f.armed.Store(false)
}

func (f *Faults) record(format string, args ...any) {
	f.log = append(f.log, fmt.Sprintf("[%7.3fs] %s",
		time.Since(f.epoch).Seconds(), fmt.Sprintf(format, args...)))
}

// Crash marks a replica down until Recover. RPCs blocked on a pause
// toward the replica fail fast (a crash supersedes a pause).
func (f *Faults) Crash(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	nf := f.node(id)
	nf.down = true
	if nf.paused != nil {
		close(nf.paused)
		nf.paused = nil
	}
	f.rearm()
	f.record("crash node %d", id)
}

// Recover clears a crash.
func (f *Faults) Recover(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.node(id).down = false
	f.rearm()
	f.record("recover node %d", id)
}

// Pause stalls RPC delivery toward a replica until Resume.
func (f *Faults) Pause(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	nf := f.node(id)
	if nf.paused == nil {
		nf.paused = make(chan struct{})
	}
	f.rearm()
	f.record("pause node %d", id)
}

// Resume releases a Pause, delivering all blocked RPCs.
func (f *Faults) Resume(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	nf := f.node(id)
	if nf.paused != nil {
		close(nf.paused)
		nf.paused = nil
	}
	f.rearm()
	f.record("resume node %d", id)
}

// SetDrop makes a fraction p of internal RPCs toward the replica fail.
func (f *Faults) SetDrop(id int, p float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.node(id).dropP = p
	f.rearm()
	f.record("drop %.0f%% of rpcs to node %d", p*100, id)
}

// SetDelay adds a fixed delay to internal RPCs toward the replica.
func (f *Faults) SetDelay(id int, ms float64) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.node(id).delayMs = ms
	f.rearm()
	f.record("delay rpcs to node %d by %gms", id, ms)
}

// Partition cuts the replica off from every other node until Heal: RPCs
// to and from it — control plane included — fail fast, while its process
// (public HTTP surface, local state) stays up.
func (f *Faults) Partition(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.node(id).partitioned = true
	f.rearm()
	f.record("partition node %d", id)
}

// Partitioned reports whether the replica is currently cut off. Nil-safe;
// nodes consult it server-side so a partition also blocks RPCs arriving
// from processes that do not share this controller.
func (f *Faults) Partitioned(id int) bool {
	if f == nil || !f.armed.Load() {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	nf := f.nodes[id]
	return nf != nil && nf.partitioned
}

// Heal clears every fault on the replica.
func (f *Faults) Heal(id int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	nf := f.node(id)
	nf.down = false
	nf.partitioned = false
	nf.dropP = 0
	nf.delayMs = 0
	if nf.paused != nil {
		close(nf.paused)
		nf.paused = nil
	}
	f.rearm()
	f.record("heal node %d", id)
}

// Down reports whether the replica is currently crashed. Nil-safe.
func (f *Faults) Down(id int) bool {
	if f == nil || !f.armed.Load() {
		return false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	nf := f.nodes[id]
	return nf != nil && nf.down
}

// Injected counts RPCs that injection failed, dropped, or delayed.
func (f *Faults) Injected() int64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.injected
}

// Log returns the fault event log (timestamps relative to controller
// creation).
func (f *Faults) Log() []string {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.log...)
}

// crashGate gates a liveness probe from `from` to `to`: it fails only when
// either endpoint is crashed or partitioned, ignoring pause/drop/delay (a
// paused or lossy replica is degraded, not dead — but a partitioned one is
// unreachable, control plane included). Nil-safe, and not counted as
// injection — probes are control-plane traffic.
func (f *Faults) crashGate(from, to int) error {
	if f == nil || !f.armed.Load() {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if nf := f.nodes[from]; nf != nil {
		if nf.down {
			return fmt.Errorf("%w: sender %d crashed", ErrReplicaDown, from)
		}
		if nf.partitioned {
			return fmt.Errorf("%w: sender %d isolated", ErrPartitioned, from)
		}
	}
	if nf := f.nodes[to]; nf != nil {
		if nf.down {
			return fmt.Errorf("%w: node %d", ErrReplicaDown, to)
		}
		if nf.partitioned {
			return fmt.Errorf("%w: node %d isolated", ErrPartitioned, to)
		}
	}
	return nil
}

// allow gates one internal RPC from coordinator `from` to replica `to`.
// Nil-safe: a nil or never-armed controller allows everything without
// taking the lock.
func (f *Faults) allow(from, to int) error {
	if f == nil || !f.armed.Load() {
		return nil
	}
	f.mu.Lock()
	if nf := f.nodes[from]; nf != nil {
		if nf.down {
			f.injected++
			f.mu.Unlock()
			return fmt.Errorf("%w: sender %d crashed", ErrReplicaDown, from)
		}
		if nf.partitioned {
			f.injected++
			f.mu.Unlock()
			return fmt.Errorf("%w: sender %d isolated", ErrPartitioned, from)
		}
	}
	nf := f.nodes[to]
	if nf == nil {
		f.mu.Unlock()
		return nil
	}
	if nf.down {
		f.injected++
		f.mu.Unlock()
		return fmt.Errorf("%w: node %d", ErrReplicaDown, to)
	}
	if nf.partitioned {
		f.injected++
		f.mu.Unlock()
		return fmt.Errorf("%w: node %d isolated", ErrPartitioned, to)
	}
	paused := nf.paused
	dropP, delayMs := nf.dropP, nf.delayMs
	dropped := dropP > 0 && f.r.Float64() < dropP
	if dropped || delayMs > 0 || paused != nil {
		f.injected++
	}
	f.mu.Unlock()

	if paused != nil {
		select {
		case <-paused:
			// Resumed: the RPC proceeds (the target was stalled, not dead).
		case <-time.After(rpcTimeout):
			return fmt.Errorf("server: rpc to node %d timed out while paused", to)
		}
		// The target may have crashed while paused.
		if f.Down(to) {
			return fmt.Errorf("%w: node %d", ErrReplicaDown, to)
		}
	}
	if dropped {
		return fmt.Errorf("%w: to node %d", ErrRPCDropped, to)
	}
	if delayMs > 0 {
		time.Sleep(msDuration(delayMs))
	}
	return nil
}

// --- scripted schedules -------------------------------------------------

// FaultEvent is one step of a scripted fault schedule.
type FaultEvent struct {
	// After is the delay from schedule start.
	After time.Duration
	// Action is one of crash, recover, pause, resume, heal, partition,
	// drop, delay.
	Action string
	// Node is the target replica. -1 means "self" — resolved by a
	// single-node process (pbs-serve) to its own member ID once known.
	Node int
	// Value parameterizes drop (probability) and delay (milliseconds).
	Value float64
}

func (e FaultEvent) String() string {
	switch e.Action {
	case "drop":
		return fmt.Sprintf("%v %s %d %.2f", e.After, e.Action, e.Node, e.Value)
	case "delay":
		return fmt.Sprintf("%v %s %d %gms", e.After, e.Action, e.Node, e.Value)
	default:
		return fmt.Sprintf("%v %s %d", e.After, e.Action, e.Node)
	}
}

// ParseSchedule parses a scripted fault schedule of semicolon-separated
// events, each "<after> <action> <node> [value]", e.g.
//
//	"500ms crash 1; 2s recover 1; 0s drop 2 0.3; 0s delay 0 5"
//	"2s partition self; 8s heal self"
//
// Durations use Go syntax; drop takes a probability in [0,1]; delay takes
// milliseconds. The node field accepts the literal "self" (Node -1) for
// schedules shipped to a single-node process that learns its member ID
// only after joining.
func ParseSchedule(spec string) ([]FaultEvent, error) {
	var events []FaultEvent
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		fields := strings.Fields(part)
		if len(fields) < 3 {
			return nil, fmt.Errorf("server: fault event %q: want \"<after> <action> <node> [value]\"", part)
		}
		after, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("server: fault event %q: %w", part, err)
		}
		node := -1
		if fields[2] != "self" {
			node, err = strconv.Atoi(fields[2])
			if err != nil || node < 0 {
				return nil, fmt.Errorf("server: fault event %q: bad node %q", part, fields[2])
			}
		}
		ev := FaultEvent{After: after, Action: fields[1], Node: node}
		switch ev.Action {
		case "crash", "recover", "pause", "resume", "heal", "partition":
			if len(fields) != 3 {
				return nil, fmt.Errorf("server: fault event %q: %s takes no value", part, ev.Action)
			}
		case "drop", "delay":
			if len(fields) != 4 {
				return nil, fmt.Errorf("server: fault event %q: %s needs a value", part, ev.Action)
			}
			if ev.Value, err = strconv.ParseFloat(fields[3], 64); err != nil {
				return nil, fmt.Errorf("server: fault event %q: bad value %q", part, fields[3])
			}
			if ev.Action == "drop" && (ev.Value < 0 || ev.Value > 1) {
				return nil, fmt.Errorf("server: fault event %q: drop probability outside [0,1]", part)
			}
		default:
			return nil, fmt.Errorf("server: fault event %q: unknown action %q", part, fields[1])
		}
		events = append(events, ev)
	}
	sort.SliceStable(events, func(i, j int) bool { return events[i].After < events[j].After })
	return events, nil
}

func (f *Faults) apply(e FaultEvent) {
	switch e.Action {
	case "crash":
		f.Crash(e.Node)
	case "recover":
		f.Recover(e.Node)
	case "pause":
		f.Pause(e.Node)
	case "resume":
		f.Resume(e.Node)
	case "heal":
		f.Heal(e.Node)
	case "partition":
		f.Partition(e.Node)
	case "drop":
		f.SetDrop(e.Node, e.Value)
	case "delay":
		f.SetDelay(e.Node, e.Value)
	}
}

// RunSchedule applies the events at their offsets from now, in a background
// goroutine. The returned stop function cancels pending events (already
// applied faults stay in force).
func (f *Faults) RunSchedule(events []FaultEvent) (stop func()) {
	done := make(chan struct{})
	go func() {
		start := time.Now()
		for _, e := range events {
			d := e.After - time.Since(start)
			if d > 0 {
				select {
				case <-time.After(d):
				case <-done:
					return
				}
			}
			select {
			case <-done:
				return
			default:
			}
			f.apply(e)
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done) }) }
}
