package smoke

// Loopback throughput bench for the durable storage engine's fsync
// policies — the acceptance bar for group commit. Raw engine benchmarks
// (internal/storage) can't hold a stable always/never ratio: fsync-never
// runs at memory speed there, so the ratio collapses to disk latency
// noise. Against a real loopback node the client serving path floors both
// policies, and group commit has to amortize the fsync across concurrent
// writers to keep up — exactly the claim under test: -fsync always must
// sustain at least half of -fsync never's write throughput.
//
// The bench runs one node, not a replicated cluster: the group-commit
// claim is per WAL, and an N-replica write multiplies the per-op fsync
// work by N across N logs — on a small (single-core) CI host that drowns
// the signal in scheduler noise without saying anything new about the
// engine.

import (
	"testing"
	"time"

	"pbs/internal/client"
	"pbs/internal/server"
	"pbs/internal/storage"
	"pbs/internal/workload"
)

// measureWriteThroughput boots a single durable node under the given
// fsync policy and drives an all-write closed-loop load, returning ops/s.
func measureWriteThroughput(t *testing.T, policy string) float64 {
	t.Helper()
	c, err := server.StartLocal(1, server.Params{
		N: 1, R: 1, W: 1, Seed: 7,
		DataDir: t.TempDir(), Fsync: policy,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	cl, err := client.DialBinary(c.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	res, err := client.RunLoad(cl, client.NewMonitor(), client.LoadOptions{
		Clients:  32,
		Duration: 2 * time.Second,
		Keys:     workload.NewUniformKeys(256, "sb"),
		Mix:      workload.NewMix(0), // all writes
		Seed:     9,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors > 0 {
		t.Fatalf("%d write errors under fsync=%s", res.Errors, policy)
	}
	return res.Throughput
}

// TestFsyncGroupCommitThroughput is the group-commit acceptance bar:
// against a loopback cluster, -fsync always must sustain at least 0.5x
// the write throughput of -fsync never. Two attempts absorb scheduler
// noise; the bar halves under the race detector, where instrumentation
// rather than the WAL dominates.
func TestFsyncGroupCommitThroughput(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback durability bench skipped in -short mode")
	}
	floor := 0.5
	if raceEnabled {
		floor = 0.25
	}
	var best float64
	for attempt := 0; attempt < 2; attempt++ {
		never := measureWriteThroughput(t, storage.FsyncNever)
		always := measureWriteThroughput(t, storage.FsyncAlways)
		ratio := always / never
		t.Logf("attempt %d: fsync=always %.0f ops/s, fsync=never %.0f ops/s, ratio %.2f",
			attempt, always, never, ratio)
		if ratio > best {
			best = ratio
		}
		if best >= floor {
			break
		}
	}
	if best < floor {
		t.Fatalf("group commit sustained only %.2fx of fsync=never write throughput, need %.2fx", best, floor)
	}
}
