package conformance

// Kill-replay-converge conformance for the durable storage engine: a
// pbs-serve process killed with SIGKILL mid-load must lose zero
// acknowledged writes (including tombstones) under -fsync always, come
// back at its old member ID from its own WAL/SSTables rather than a full
// re-stream, and — once handoff and anti-entropy reconverge it — leave
// the cluster's measured t-visibility inside the fault-free prediction
// band. Three scenarios:
//
//   - TestKillReplayDurability: a single-node cluster (no quorum to mask
//     a hole) is killed mid-write-load and restarted on the same data
//     dir. Every acknowledged (key, seq) — put or delete — must read
//     back at or above its acked version, with tombstones staying dead.
//
//   - TestKillReplayConverge: a three-process cluster with sloppy
//     quorums, handoff and anti-entropy. One replica is SIGKILLed while
//     writers keep committing, restarted under the same ports and data
//     dir, and must rejoin at its old member ID, recover its pre-kill
//     keys from disk (delta pull, not a full re-stream), reconverge on
//     every acknowledged write, and land the post-restart probe
//     campaign inside the fault-free RMSE band.
//
//   - TestKillReplayHints: a four-process sloppy cluster without
//     anti-entropy, so hints are the only repair path. A spare holding
//     hints for a down replica is SIGKILLed and restarted: its WAL must
//     restore every pending hint, and once the replica is back the hints
//     must drain to it.

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"pbs/internal/client"
	"pbs/internal/ring"
	"pbs/internal/rng"
	"pbs/internal/server"
	"pbs/internal/wars"
)

var krNodeLineRE = regexp.MustCompile(`node (\d+): http=(\S+) internal=(\S+) ring-epoch=(\d+) members=(\d+)`)

// krAck records the newest acknowledged operation on a key.
type krAck struct {
	seq uint64
	del bool
}

// krProc is one pbs-serve -node OS process.
type krProc struct {
	cmd      *exec.Cmd
	id       string
	httpAddr string
	internal string
}

// kill delivers SIGKILL — no shutdown path runs, exactly the crash the
// WAL must absorb — and reaps the process.
func (p *krProc) kill() {
	p.cmd.Process.Kill()
	p.cmd.Wait()
}

// krBuildServe builds the pbs-serve binary once per test.
func krBuildServe(t *testing.T) string {
	t.Helper()
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			break
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("go.mod not found above working directory")
		}
		dir = parent
	}
	bin := filepath.Join(t.TempDir(), "pbs-serve")
	build := exec.Command("go", "build", "-o", bin, "pbs/cmd/pbs-serve")
	build.Dir = dir
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build pbs-serve: %v\n%s", err, out)
	}
	return bin
}

// krReservePorts picks n distinct loopback addresses by binding and
// releasing ephemeral listeners — restartable processes need addresses
// known before the first boot so the restart can reclaim them.
func krReservePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range lns {
		ln.Close()
	}
	return addrs
}

// krStart launches one pbs-serve -node process and waits for its ready
// line. cleanup controls whether the test reaps it automatically — the
// restart scenarios kill and reap by hand.
func krStart(t *testing.T, ctx context.Context, bin string, cleanup bool, args ...string) *krProc {
	t.Helper()
	cmd := exec.CommandContext(ctx, bin, append([]string{"-node"}, args...)...)
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	p := &krProc{cmd: cmd}
	if cleanup {
		t.Cleanup(p.kill)
	}
	sc := bufio.NewScanner(stdout)
	deadline := time.After(60 * time.Second)
	lineCh := make(chan string)
	go func() {
		defer close(lineCh)
		for sc.Scan() {
			lineCh <- sc.Text()
		}
	}()
	var lines []string
	for {
		select {
		case <-deadline:
			t.Fatalf("pbs-serve %v never reported ready:\n%s", args, strings.Join(lines, "\n"))
		case line, ok := <-lineCh:
			if !ok {
				t.Fatalf("pbs-serve %v exited before ready:\n%s", args, strings.Join(lines, "\n"))
			}
			lines = append(lines, line)
			if m := krNodeLineRE.FindStringSubmatch(line); m != nil {
				p.id, p.httpAddr, p.internal = m[1], m[2], m[3]
			}
			if line == "ready" {
				if p.httpAddr == "" {
					t.Fatalf("pbs-serve %v ready without a node line:\n%s", args, strings.Join(lines, "\n"))
				}
				go func() { // drain so the child never blocks on a full pipe
					for range lineCh {
					}
				}()
				return p
			}
		}
	}
}

// krKV is the subset of the put/get/delete answers the scenarios need.
type krKV struct {
	Seq   uint64
	Found bool
	Value string
}

// krPut, krDelete and krGet drive one node directly over the binary client
// protocol at its internal address — the scenarios pin which process
// coordinates.
func krPut(addr, key, value string) (krKV, error) {
	bc := server.NewBinClient(addr)
	defer bc.Close()
	pr, _, err := bc.Put(key, value)
	return krKV{Seq: pr.Seq}, err
}

func krDelete(addr, key string) (krKV, error) {
	bc := server.NewBinClient(addr)
	defer bc.Close()
	pr, _, err := bc.Delete(key)
	return krKV{Seq: pr.Seq}, err
}

func krGet(addr, key string) (krKV, error) {
	bc := server.NewBinClient(addr)
	defer bc.Close()
	gr, _, err := bc.Get(key)
	return krKV{Seq: gr.Seq, Found: gr.Found, Value: gr.Value}, err
}

func krStats(t *testing.T, base string) server.StatsResponse {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st server.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// krCheckAck verifies one acknowledged operation against a read taken
// after recovery. The invariant is seq-monotone durability: the store
// must never answer below the acked version, and at exactly the acked
// version the tombstone state must match the acked operation. Above it,
// a write that was staged but never acked before the kill legitimately
// survived — group commit may persist more than it acked, never less.
func krCheckAck(key string, ack krAck, kv krKV) error {
	if kv.Seq < ack.seq {
		return fmt.Errorf("key %s: acked seq %d (delete=%v) but store answers seq %d", key, ack.seq, ack.del, kv.Seq)
	}
	if kv.Seq == ack.seq && kv.Found == ack.del {
		return fmt.Errorf("key %s: acked seq %d delete=%v but store answers found=%v at that seq", key, ack.seq, ack.del, kv.Found)
	}
	return nil
}

// TestKillReplayDurability SIGKILLs a single-node durable cluster
// mid-load and restarts it on the same data dir: with -fsync always,
// every acknowledged write and delete must be answered at or above its
// acked version. A single node leaves no replica to mask a lost write —
// whatever survives, survived the WAL replay.
func TestKillReplayDurability(t *testing.T) {
	if testing.Short() {
		t.Skip("process kill-replay scenario skipped in -short mode")
	}
	bin := krBuildServe(t)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	addrs := krReservePorts(t, 2)
	dataDir := t.TempDir()
	args := []string{
		"-listen", addrs[0], "-internal", addrs[1],
		"-n", "1", "-r", "1", "-w", "1",
		"-data-dir", dataDir, "-fsync", "always",
		"-model", "validation", "-scale", "0.02", "-seed", "11",
	}
	p := krStart(t, ctx, bin, false, args...)

	// Write load: four writers over a small keyspace, every seventh op a
	// delete, recording the newest acked (seq, op) per key. The kill
	// lands while all four are mid-flight.
	const writers = 4
	var (
		mu    sync.Mutex
		acked = make(map[string]krAck)
		stop  atomic.Bool
		wg    sync.WaitGroup
	)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				key := fmt.Sprintf("kr-%d-%d", w, i%32)
				var kv krKV
				var err error
				del := i%7 == 6
				if del {
					kv, err = krDelete(p.internal, key)
				} else {
					kv, err = krPut(p.internal, key, fmt.Sprintf("v-%d-%d", w, i))
				}
				if err != nil {
					continue // post-kill refusals; only acks count
				}
				mu.Lock()
				if kv.Seq > acked[key].seq {
					acked[key] = krAck{seq: kv.Seq, del: del}
				}
				mu.Unlock()
			}
		}(w)
	}
	time.Sleep(1200 * time.Millisecond)
	p.kill()
	stop.Store(true)
	wg.Wait()
	if len(acked) == 0 {
		t.Fatal("no writes were acknowledged before the kill")
	}

	// Same ports, same data dir: recovery replays the WAL and SSTables.
	p2 := krStart(t, ctx, bin, true, args...)
	st := krStats(t, p2.httpAddr)
	if st.StoreRecovered < int64(len(acked)) {
		t.Errorf("recovery reloaded %d keys from disk, want at least the %d acked", st.StoreRecovered, len(acked))
	}

	lost := 0
	for key, ack := range acked {
		kv, err := krGet(p2.internal, key)
		if err != nil {
			t.Fatalf("read-back of %s: %v", key, err)
		}
		if err := krCheckAck(key, ack, kv); err != nil {
			t.Error(err)
			lost++
		}
	}
	t.Logf("kill-replay: %d acked keys, %d recovered from disk, %d lost", len(acked), st.StoreRecovered, lost)
}

// TestKillReplayConverge is the full scenario: a three-process durable
// cluster (sloppy quorums, handoff, anti-entropy, validation latency
// model) loses one replica to SIGKILL under write load. The restarted
// process must rejoin at its old member ID with its pre-kill state
// recovered from disk — the join's catch-up applies only the missed
// window, not the whole keyspace — reconverge on every acknowledged
// write including tombstones, and leave the measured t-visibility
// inside the fault-free prediction band.
func TestKillReplayConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("process kill-replay scenario skipped in -short mode")
	}
	// The fault-free prediction for the cluster's configuration: the
	// paper's validation model (exponential W mean 20ms, A=R=S mean
	// 10ms) at N=3, R=1, W=1 — same model pbs-serve injects under
	// -model validation.
	model := expModel(20, 10)
	pred, err := wars.Simulate(wars.NewIID(3, model), wars.Config{R: 1, W: 1},
		predictionTrials, rng.New(101))
	if err != nil {
		t.Fatal(err)
	}

	bin := krBuildServe(t)
	ctx, cancel := context.WithTimeout(context.Background(), 8*time.Minute)
	defer cancel()

	dataDir := t.TempDir()
	common := []string{
		"-n", "3", "-r", "1", "-w", "1", "-sloppy", "-anti-entropy",
		"-data-dir", dataDir, "-fsync", "always",
		"-model", "validation", "-seed", "23",
	}
	seed := krStart(t, ctx, bin, true, common...)
	j1 := krStart(t, ctx, bin, true, append([]string{"-join", seed.internal}, common...)...)
	victimPorts := krReservePorts(t, 2)
	victimArgs := append([]string{
		"-join", seed.internal, "-listen", victimPorts[0], "-internal", victimPorts[1],
	}, common...)
	victim := krStart(t, ctx, bin, false, victimArgs...)
	victimID := victim.id

	c, err := client.DialBinary(seed.httpAddr)
	if err != nil {
		t.Fatal(err)
	}

	// Preload: a keyspace large enough that a full re-stream on rejoin
	// would dwarf the churn window, plus a batch of replicated deletes
	// whose tombstones must survive the round trip.
	const preloadN, deleteN = 600, 24
	acked := make(map[string]krAck)
	var mu sync.Mutex
	var preWG sync.WaitGroup
	sem := make(chan struct{}, 8)
	var preFailures atomic.Int64
	for i := 0; i < preloadN; i++ {
		key := fmt.Sprintf("krp-%d", i)
		sem <- struct{}{}
		preWG.Add(1)
		go func(key string) {
			defer preWG.Done()
			defer func() { <-sem }()
			res, err := c.Put(key, "v-"+key)
			if err != nil {
				preFailures.Add(1)
				return
			}
			mu.Lock()
			acked[key] = krAck{seq: res.Seq}
			mu.Unlock()
		}(key)
	}
	preWG.Wait()
	if f := preFailures.Load(); f > 0 {
		t.Fatalf("%d preload writes failed", f)
	}
	for i := 0; i < deleteN; i++ {
		key := fmt.Sprintf("krd-%d", i)
		if _, err := c.Put(key, "doomed"); err != nil {
			t.Fatal(err)
		}
		res, err := c.Delete(key)
		if err != nil {
			t.Fatal(err)
		}
		acked[key] = krAck{seq: res.Seq, del: true}
	}

	// Let replication settle enough that the victim holds the preload,
	// then snapshot its key count — the recovery floor.
	var preKill server.StatsResponse
	settleDeadline := time.Now().Add(30 * time.Second)
	for {
		preKill = krStats(t, victim.httpAddr)
		if preKill.Keys >= preloadN {
			break
		}
		if time.Now().After(settleDeadline) {
			t.Fatalf("victim settled at only %d of %d preloaded keys", preKill.Keys, preloadN)
		}
		time.Sleep(100 * time.Millisecond)
	}

	// Churn: two writers cycling a small keyspace through the survivors,
	// running across the kill, the restart, and the rejoin. The paced
	// loop keeps the missed window small relative to the preload.
	var (
		stop    = make(chan struct{})
		churnWG sync.WaitGroup
	)
	addrs := []string{seed.internal, j1.internal}
	for w := 0; w < 2; w++ {
		churnWG.Add(1)
		go func(w int) {
			defer churnWG.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				key := fmt.Sprintf("krw-%d-%d", w, i%16)
				kv, err := krPut(addrs[w], key, fmt.Sprintf("c-%d-%d", w, i))
				if err == nil {
					mu.Lock()
					if kv.Seq > acked[key].seq {
						acked[key] = krAck{seq: kv.Seq}
					}
					mu.Unlock()
				}
				time.Sleep(25 * time.Millisecond)
			}
		}(w)
	}
	time.Sleep(500 * time.Millisecond)
	victim.kill()
	time.Sleep(1500 * time.Millisecond)

	// Restart on the same ports and data dir: the join handshake is
	// idempotent per internal address, so the node must come back at its
	// old member ID and reopen its old engine directory.
	restarted := krStart(t, ctx, bin, true, victimArgs...)
	if restarted.id != victimID {
		t.Fatalf("victim rejoined as member %s, want its old ID %s", restarted.id, victimID)
	}
	time.Sleep(1 * time.Second)
	close(stop)
	churnWG.Wait()

	// Delta pull, not a full re-stream: the pre-kill keyspace came back
	// from the local engine, and the join catch-up applied only the
	// writes missed during the downtime window.
	rejoin := krStats(t, restarted.httpAddr)
	if rejoin.StoreRecovered < int64(preKill.Keys) {
		t.Errorf("restart recovered %d keys from disk, want at least the %d held before the kill",
			rejoin.StoreRecovered, preKill.Keys)
	}
	if rejoin.Applied >= preloadN/2 {
		t.Errorf("rejoin applied %d versions over the network — that is a re-stream, not a delta pull (preload %d)",
			rejoin.Applied, preloadN)
	}
	t.Logf("rejoin: member %s, %d keys recovered from disk, %d versions delta-pulled",
		restarted.id, rejoin.StoreRecovered, rejoin.Applied)

	// Convergence: every acknowledged write — puts and tombstones — must
	// be answered at or above its acked version through the restarted
	// node, and tombstones must stay dead through every coordinator.
	mu.Lock()
	snapshot := make(map[string]krAck, len(acked))
	for k, a := range acked {
		snapshot[k] = a
	}
	mu.Unlock()
	allAddrs := []string{seed.internal, j1.internal, restarted.internal}
	convergeDeadline := time.Now().Add(30 * time.Second)
	for {
		behind := 0
		var lastErr error
		for key, ack := range snapshot {
			targets := allAddrs
			if !ack.del {
				targets = allAddrs[2:3] // puts: through the restarted coordinator
			}
			for _, addr := range targets {
				kv, err := krGet(addr, key)
				if err != nil {
					behind++
					lastErr = err
					break
				}
				if err := krCheckAck(key, ack, kv); err != nil {
					behind++
					lastErr = err
					break
				}
			}
		}
		if behind == 0 {
			break
		}
		if time.Now().After(convergeDeadline) {
			t.Fatalf("%d of %d acknowledged writes still unconverged after restart: %v",
				behind, len(snapshot), lastErr)
		}
		time.Sleep(200 * time.Millisecond)
	}

	// Post-restart probe campaign: the live measured t-visibility must
	// sit back inside the fault-free prediction band. Let the tail of
	// hint replay and anti-entropy churn drain first, and give the
	// campaign a second attempt — three OS processes on a shared host
	// carry scheduling noise the in-process fault scenarios don't.
	time.Sleep(1 * time.Second)
	best := 1.0
	for attempt := 0; attempt < 2; attempt++ {
		rmse := probeBand(t, c, pred, 420, fmt.Sprintf("krprobe-%d-", attempt))
		t.Logf("post-restart probe attempt %d: RMSE %.4f (limit %.4f)", attempt, rmse, faultCurveLimit())
		if rmse < best {
			best = rmse
		}
		if best <= faultCurveLimit() {
			break
		}
	}
	if best > faultCurveLimit() {
		t.Errorf("post-restart t-visibility RMSE %.4f outside the fault-free band %.4f", best, faultCurveLimit())
	}
}

// krMembership rebuilds a node's current ring view from its /config, so a
// scenario can pick keys by preference list the way the cluster routes
// them.
func krMembership(t *testing.T, base string) *ring.Membership {
	t.Helper()
	resp, err := http.Get(base + "/config")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cfg server.ConfigResponse
	if err := json.NewDecoder(resp.Body).Decode(&cfg); err != nil {
		t.Fatal(err)
	}
	members := make([]ring.Member, len(cfg.Members))
	for i, m := range cfg.Members {
		members[i] = ring.Member{ID: m.ID, HTTPAddr: m.Addr, InternalAddr: m.Internal}
	}
	params := server.Params{}
	params.SetDefaults()
	m, err := ring.NewMembership(members, params.Vnodes)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestKillReplayHints SIGKILLs the spare holding a down replica's hints.
// Four pbs-serve processes run sloppy quorums at W = N on durable engines
// under -fsync always, with anti-entropy off. One preference replica (the
// target) is killed, and keys it replicates are written while it is down,
// so each write commits through the one spare beyond their preference
// list, which logs a hint for the target. The spare is then SIGKILLed —
// no shutdown path runs — and restarted on its ports and data dir: its
// WAL replay must restore at least the hints pending before the kill.
// Finally the target comes back, and the spare's hints must drain to it,
// leaving the target holding every acknowledged version.
func TestKillReplayHints(t *testing.T) {
	if testing.Short() {
		t.Skip("process kill-replay scenario skipped in -short mode")
	}
	bin := krBuildServe(t)
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	dataDir := t.TempDir()
	common := []string{
		"-n", "3", "-r", "1", "-w", "3", "-sloppy",
		"-data-dir", dataDir, "-fsync", "always",
		"-model", "validation", "-scale", "0.02", "-seed", "29",
	}
	seed := krStart(t, ctx, bin, true, common...)
	joinArgs := func(ports []string) []string {
		return append([]string{"-join", seed.internal, "-listen", ports[0], "-internal", ports[1]}, common...)
	}
	krStart(t, ctx, bin, true, append([]string{"-join", seed.internal}, common...)...)
	targetArgs := joinArgs(krReservePorts(t, 2))
	target := krStart(t, ctx, bin, false, targetArgs...)
	spareArgs := joinArgs(krReservePorts(t, 2))
	spare := krStart(t, ctx, bin, false, spareArgs...)
	defer func() { target.kill(); spare.kill() }()

	// Keys the target replicates but does not coordinate, whose one spare
	// (the fourth node in ring order) is the spare process.
	m := krMembership(t, seed.httpAddr)
	if m.Size() != 4 {
		t.Fatalf("cluster has %d members, want 4", m.Size())
	}
	var targetID, spareID int
	fmt.Sscan(target.id, &targetID)
	fmt.Sscan(spare.id, &spareID)
	const hinted = 24
	var keys []string
	for i := 0; len(keys) < hinted; i++ {
		key := fmt.Sprintf("krh-%d", i)
		full := m.PreferenceList(key, 4)
		if full[0] != targetID && (full[1] == targetID || full[2] == targetID) && full[3] == spareID {
			keys = append(keys, key)
		}
	}

	c, err := client.DialBinary(seed.httpAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keysBefore := krStats(t, target.httpAddr).Keys
	target.kill()

	acked := make(map[string]uint64, len(keys))
	for _, key := range keys {
		res, err := c.Put(key, "v-"+key)
		if err != nil {
			t.Fatalf("write %s with the target down: %v", key, err)
		}
		acked[key] = res.Seq
	}
	pending := krStats(t, spare.httpAddr).HintsPending
	if pending < hinted {
		t.Fatalf("spare holds %d pending hints after %d spare writes", pending, hinted)
	}

	spare.kill()
	spare = krStart(t, ctx, bin, false, spareArgs...)
	if id := spare.id; id != fmt.Sprint(spareID) {
		t.Fatalf("spare restarted as member %s, want %d", id, spareID)
	}
	if st := krStats(t, spare.httpAddr); st.HintsRestored < int64(pending) {
		t.Fatalf("spare restored %d hints from its WAL after SIGKILL, want at least the %d pending before it",
			st.HintsRestored, pending)
	}

	target = krStart(t, ctx, bin, false, targetArgs...)
	deadline := time.Now().Add(30 * time.Second)
	for {
		sp, tg := krStats(t, spare.httpAddr), krStats(t, target.httpAddr)
		if sp.HintsPending == 0 && tg.Keys >= keysBefore+hinted {
			if sp.HintsDropped != 0 {
				t.Fatalf("spare dropped %d hints instead of delivering them", sp.HintsDropped)
			}
			t.Logf("kill-replay hints: %d pending before the kill, %d restored, %d delivered; target holds %d keys",
				pending, sp.HintsRestored, sp.HintsReplayed, tg.Keys)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after the target returned: spare has %d hints pending, target holds %d keys (want %d)",
				sp.HintsPending, tg.Keys, keysBefore+hinted)
		}
		time.Sleep(100 * time.Millisecond)
	}
	for key, seq := range acked {
		kv, err := krGet(target.internal, key)
		if err != nil {
			t.Fatal(err)
		}
		if err := krCheckAck(key, krAck{seq: seq}, kv); err != nil {
			t.Error(err)
		}
	}
}
