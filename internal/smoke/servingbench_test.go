package smoke

// Loopback serving benchmark for the serving hot path. One process hosts
// a 3-node in-memory cluster (N=3, R=2, W=2, no WARS model) and a
// closed-loop client speaking the pipelined binary client protocol; each
// cell measures PUT or GET throughput, client-observed p50/p99.9, and
// whole-process allocations per op at a given in-flight concurrency.
// Batched MPUT/MGET cells ride the same protocol, and batch-64 MGET is
// gated at ≥2× single-key GET throughput on multi-core non-race runners.
//
// Alongside the end-to-end cells, the harness measures the data-plane
// transport alone: raw internal-RPC throughput (replica applies and
// version reads) at 64 concurrent callers against a live node. These rows
// are the trajectory record for the mux layer; they carry no gate.
//
// With SERVING_BENCH_OUT set (the CI bench job) the rows are written as
// BENCH_serving.json. The gates are asserted wherever the harness has
// room to mean anything: at least two schedulable CPUs and no race
// instrumentation. On a single core the callers and all three replicas
// serialize onto one hardware thread; under -race the instrumentation
// dominates every cell.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"pbs/internal/client"
	"pbs/internal/server"
	"pbs/internal/workload"
)

// servingRow is one (proto, op, concurrency) cell in BENCH_serving.json.
type servingRow struct {
	Proto       string  `json:"proto"` // client protocol: always "binary"
	Op          string  `json:"op"`    // "put", "get", "mput" or "mget"
	Clients     int     `json:"clients"`
	Pipeline    int     `json:"pipeline"`
	InFlight    int     `json:"in_flight"`       // Clients × Pipeline
	Batch       int     `json:"batch,omitempty"` // keys per batched op (mput/mget rows)
	Ops         int64   `json:"ops"`             // keys, for batched rows
	OpsPerSec   float64 `json:"ops_per_sec"`     // keys/s, for batched rows
	P50Ms       float64 `json:"p50_ms"`
	P999Ms      float64 `json:"p999_ms"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// servingCluster boots the 3-node loopback cluster and pre-populates the
// keyspace so GET cells read real versions.
func servingCluster(t *testing.T) *client.Client {
	t.Helper()
	c, err := server.StartLocal(3, server.Params{N: 3, R: 2, W: 2, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(c.Close)
	cl, err := client.DialBinary(c.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	for i := 0; i < servingKeys; i++ {
		if _, err := cl.Put(fmt.Sprintf("sv%d", i), "serving-bench-value-0123456789abcdef"); err != nil {
			t.Fatal(err)
		}
	}
	return cl
}

const servingKeys = 256

// measureServing drives one closed-loop cell and reports its row.
// AllocsPerOp counts whole-process mallocs (client and all three replicas
// share the process), so it is a harness-level number: comparable across
// cells within one run, not an absolute per-RPC figure.
func measureServing(t *testing.T, cl *client.Client, op string, clients, pipeline, batch int) servingRow {
	t.Helper()
	readFrac := 0.0
	if op == "get" || op == "mget" {
		readFrac = 1.0
	}
	mon := client.NewMonitor()
	var memBefore, memAfter runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&memBefore)
	res, err := client.RunLoad(cl, mon, client.LoadOptions{
		Clients:   clients * pipeline,
		Duration:  1200 * time.Millisecond,
		Keys:      workload.NewUniformKeys(servingKeys, "sv"),
		Mix:       workload.NewMix(readFrac),
		Seed:      23,
		BatchSize: batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&memAfter)
	if res.Errors > 0 {
		t.Fatalf("%s at %d×%d: %d errors", op, clients, pipeline, res.Errors)
	}
	snap := mon.Snapshot([]float64{0.50, 0.999})
	lat := snap.WriteClientMs
	if op == "get" || op == "mget" {
		lat = snap.ReadClientMs
	}
	row := servingRow{
		Proto: "binary", Op: op,
		Clients: clients, Pipeline: pipeline, InFlight: clients * pipeline,
		Ops:       res.Ops,
		OpsPerSec: res.Throughput,
	}
	if batch > 1 {
		row.Batch = batch
	}
	if len(lat) == 2 {
		row.P50Ms, row.P999Ms = lat[0], lat[1]
	}
	if res.Ops > 0 {
		row.AllocsPerOp = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(res.Ops)
	}
	return row
}

// TestServingBenchJSON emits BENCH_serving.json when SERVING_BENCH_OUT is
// set (the CI serving-bench job) and, when the host can express it, checks
// the batching and allocation bars.
func TestServingBenchJSON(t *testing.T) {
	out := os.Getenv("SERVING_BENCH_OUT")
	if out == "" && testing.Short() {
		t.Skip("short mode and no SERVING_BENCH_OUT")
	}
	// In-flight levels: a light closed loop, the 64-stream level the
	// gates are defined at, and 64 sessions pipelining 4 deep (256 in
	// flight) to exercise the client-side write-pipelining path.
	levels := []struct{ clients, pipeline int }{{8, 1}, {64, 1}, {64, 4}}

	rows := make([]servingRow, 0, 10)
	at64 := make(map[string]float64)      // op → ops/s at 64 in flight
	batchAt64 := make(map[string]float64) // "op/batch" → batched keys/s at 64 in flight
	getAllocs := 0.0                      // single-key GET allocs/op at 64 in flight
	cl := servingCluster(t)
	for _, op := range []string{"put", "get"} {
		for _, lv := range levels {
			// Best of two rounds: scheduler noise on a shared host only
			// ever slows a cell down, and the speedup gate divides one
			// cell by another.
			row := measureServing(t, cl, op, lv.clients, lv.pipeline, 1)
			if again := measureServing(t, cl, op, lv.clients, lv.pipeline, 1); again.OpsPerSec > row.OpsPerSec {
				row = again
			}
			rows = append(rows, row)
			if row.InFlight == 64 {
				at64[op] = row.OpsPerSec
				if op == "get" {
					getAllocs = row.AllocsPerOp
				}
			}
			t.Logf("%-3s %3d×%d  %9.0f ops/s  p50 %6.2fms  p99.9 %7.2fms  %6.1f allocs/op",
				row.Op, row.Clients, row.Pipeline,
				row.OpsPerSec, row.P50Ms, row.P999Ms, row.AllocsPerOp)
		}
	}
	// Batched multi-key cells. Throughput is keys per second: a batch of
	// 64 keys that completes in one round trip counts 64 ops.
	for _, op := range []string{"mput", "mget"} {
		for _, batch := range []int{8, 64} {
			row := measureServing(t, cl, op, 64, 1, batch)
			if again := measureServing(t, cl, op, 64, 1, batch); again.OpsPerSec > row.OpsPerSec {
				row = again
			}
			rows = append(rows, row)
			batchAt64[op+"/"+fmt.Sprint(batch)] = row.OpsPerSec
			t.Logf("%-4s %3d×%d b%-2d %9.0f keys/s  p50 %6.2fms  p99.9 %7.2fms  %6.1f allocs/key",
				row.Op, row.Clients, row.Pipeline, batch,
				row.OpsPerSec, row.P50Ms, row.P999Ms, row.AllocsPerOp)
		}
	}
	mgetSpeedup := batchAt64["mget/64"] / at64["get"]
	mputSpeedup := batchAt64["mput/64"] / at64["put"]
	t.Logf("single-key get at 64 in flight: %.1f allocs/op", getAllocs)
	t.Logf("batched/single speedup at 64 in flight, batch 64: mget %.2fx, mput %.2fx", mgetSpeedup, mputSpeedup)

	if out != "" {
		payload := map[string]any{
			"bench":                       "serving-loopback",
			"cluster":                     map[string]int{"nodes": 3, "n": 3, "r": 2, "w": 2},
			"rows":                        rows,
			"binary_get_allocs_per_op_64": getAllocs,
			"mget_speedup_at_64":          mgetSpeedup,
			"mput_speedup_at_64":          mputSpeedup,
			"gomaxprocs":                  runtime.GOMAXPROCS(0),
			"race_instrumented":           raceEnabled,
			"floor_enforced":              !raceEnabled && runtime.GOMAXPROCS(0) >= 2,
			"mget_speedup_floor_x100":     200,
			"binary_get_allocs_ceiling":   40,
		}
		data, err := json.MarshalIndent(payload, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(out, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	if out == "" || raceEnabled || runtime.GOMAXPROCS(0) < 2 {
		// The hard floors are the CI bench job's gates (where the artifact
		// is produced, on a multi-core runner). Plain tier-1 runs still
		// execute every cell — errors fail above — but don't turn
		// machine-shape noise into test failures.
		t.Logf("skipping floors: bench_out=%v race=%v GOMAXPROCS=%d", out != "", raceEnabled, runtime.GOMAXPROCS(0))
		return
	}
	// The batching bar: one 64-key MGET frame per coordinator per round trip
	// must move ≥2× the keys per second of 64 single-key GET streams — the
	// number the batched frames and pooled fan-out exist to buy.
	const mgetFloor = 2.0
	if mgetSpeedup < mgetFloor {
		t.Fatalf("batched mget (batch 64) speedup at 64 in flight below %.1fx: %.2fx",
			mgetFloor, mgetSpeedup)
	}
	// The allocation bar for the single-key decode tightening + pooled
	// read-state work: a whole-process (client + 3 replicas) malloc budget.
	const allocCeiling = 40.0
	if getAllocs >= allocCeiling {
		t.Fatalf("single-key GET allocs/op at 64 in flight: %.1f, want < %.0f",
			getAllocs, allocCeiling)
	}
}
