package smoke

// Multi-process partition smoke: three pbs-serve OS processes where one
// member is partitioned (via its own scripted fault schedule) through a
// committed membership change — a leave whose decide broadcast and
// membership push it can never hear, from a process that is gone by the
// time the partition heals. The healed member must re-learn the committed
// ring through gossip alone, across real process boundaries.

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os/exec"
	"path/filepath"
	"syscall"
	"testing"
	"time"
)

// configView is the subset of GET /config the smoke asserts on.
type configView struct {
	RingEpoch uint64            `json:"ring_epoch"`
	Members   []json.RawMessage `json:"members"`
}

// statsView is the subset of GET /stats the smoke asserts on.
type statsView struct {
	GossipInstalls int64 `json:"gossip_installs"`
}

func fetchJSON(base, path string, out any) error {
	resp, err := http.Get(base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return json.Unmarshal(body, out)
}

// TestMultiProcessPartitionHealSmoke: seed + two joiners as separate
// processes. Joiner 2 partitions itself on a schedule; while it is cut
// off, joiner 1 leaves the ring (SIGTERM with -leave) — the config-log
// majority {seed, j1} commits the shrunk membership — and exits. After
// the scheduled heal, j2 must converge onto the committed ring via gossip
// and serve under it.
func TestMultiProcessPartitionHealSmoke(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain not available")
	}
	root := moduleRoot(t)
	bin := filepath.Join(t.TempDir(), "pbs-serve")
	build := exec.Command("go", "build", "-o", bin, "pbs/cmd/pbs-serve")
	build.Dir = root
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build pbs-serve: %v\n%s", err, out)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 4*time.Minute)
	defer cancel()

	common := []string{"-n", "3", "-r", "2", "-w", "2", "-gossip-interval", "100ms"}
	seed := startServeNode(t, ctx, bin, common...)
	j1 := startServeNode(t, ctx, bin, append([]string{"-join", seed.internal, "-leave"}, common...)...)

	// Sanity: the three-member ring serves cross-process before any fault.
	if _, err := procPut(seed, "part-smoke", "v1"); err != nil {
		t.Fatal(err)
	}
	if kv, err := procGet(j1, "part-smoke"); err != nil || kv.Value != "v1" {
		t.Fatalf("cross-process read: %v %+v", err, kv)
	}

	// j2 cuts itself off 500ms after it is ready and heals at 8s. Its own
	// fault controller refuses inbound RPCs while partitioned, so the
	// partition is bidirectional across processes.
	j2 := startServeNode(t, ctx, bin, append([]string{
		"-join", seed.internal,
		"-fail", "500ms partition self; 8s heal self",
	}, common...)...)

	var before configView
	if err := fetchJSON(j2.httpAddr, "/config", &before); err != nil {
		t.Fatal(err)
	}
	if len(before.Members) != 3 {
		t.Fatalf("joined ring has %d members, want 3", len(before.Members))
	}
	time.Sleep(1 * time.Second) // the scheduled partition is now active

	// j1 drains and leaves: the departure commits through the {seed, j1}
	// config-log majority while j2 hears nothing, and the one process that
	// pushed the new membership is gone immediately after.
	if err := j1.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	j1.cmd.Wait()
	deadline := time.Now().Add(20 * time.Second)
	for {
		var cv configView
		err := fetchJSON(seed.httpAddr, "/config", &cv)
		if err == nil && cv.RingEpoch > before.RingEpoch && len(cv.Members) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("seed never committed the leave: %+v (%v)", cv, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	var during configView
	if err := fetchJSON(j2.httpAddr, "/config", &during); err != nil {
		t.Fatal(err)
	}
	if during.RingEpoch != before.RingEpoch {
		t.Fatalf("partitioned process advanced to epoch %d — the partition leaked", during.RingEpoch)
	}

	// After the scheduled heal, gossip is the only remaining channel; j2
	// initiates a round every interval, so convergence is bounded.
	deadline = time.Now().Add(30 * time.Second)
	for {
		var cv configView
		err := fetchJSON(j2.httpAddr, "/config", &cv)
		if err == nil && cv.RingEpoch > before.RingEpoch && len(cv.Members) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("healed process never converged onto the committed ring: %+v (%v)", cv, err)
		}
		time.Sleep(100 * time.Millisecond)
	}
	var sv statsView
	if err := fetchJSON(j2.httpAddr, "/stats", &sv); err != nil {
		t.Fatal(err)
	}
	if sv.GossipInstalls < 1 {
		t.Fatalf("gossip_installs = %d — the committed ring arrived some other way", sv.GossipInstalls)
	}

	// The healed member serves correctly under the shrunk ring.
	pw, err := procPut(j2, "part-smoke-2", "v2")
	if err != nil {
		t.Fatal(err)
	}
	if kv, err := procGet(seed, "part-smoke-2"); err != nil || kv.Seq < pw.Seq {
		t.Fatalf("read after heal: %v %+v, want seq >= %d", err, kv, pw.Seq)
	}
}
