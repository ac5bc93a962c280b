// Command benchdiff compares two BENCH_serving.json artifacts — the
// committed baseline and a fresh run — and prints a GitHub-flavored
// markdown delta table per row, keyed by (proto, op, clients, pipeline,
// batch) for the end-to-end cells and op for the raw RPC cells. CI appends the output to the job summary so a perf
// regression (or win) is visible on every run without downloading
// artifacts.
//
// Usage: benchdiff OLD.json NEW.json
//
// Rows present on only one side are listed as added/removed rather than
// failing: the tool reports, the bench job's own floors gate.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
)

// servingRow mirrors the end-to-end cells in BENCH_serving.json.
type servingRow struct {
	Proto       string  `json:"proto"`
	Op          string  `json:"op"`
	Clients     int     `json:"clients"`
	Pipeline    int     `json:"pipeline"`
	Batch       int     `json:"batch"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	P50Ms       float64 `json:"p50_ms"`
	P999Ms      float64 `json:"p999_ms"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

// rpcRow mirrors the raw internal-RPC cells.
type rpcRow struct {
	Op          string  `json:"op"`
	OpsPerSec   float64 `json:"ops_per_sec"`
	AllocsPerOp float64 `json:"allocs_per_op"`
}

type benchFile struct {
	Rows    []servingRow `json:"rows"`
	RPCRows []rpcRow     `json:"rpc_rows"`
}

func load(path string) (benchFile, error) {
	var bf benchFile
	data, err := os.ReadFile(path)
	if err != nil {
		return bf, err
	}
	err = json.Unmarshal(data, &bf)
	return bf, err
}

func servingKey(r servingRow) string {
	batch := r.Batch
	if batch == 0 {
		batch = 1
	}
	return fmt.Sprintf("%s/%s %d×%d b%d", r.Proto, r.Op, r.Clients, r.Pipeline, batch)
}

// delta renders new-vs-old as a signed percentage; moreIsBetter flips the
// direction arrow, not the number.
func delta(oldV, newV float64, moreIsBetter bool) string {
	if oldV == 0 {
		return "n/a"
	}
	pct := (newV - oldV) / oldV * 100
	arrow := ""
	switch {
	case pct > 2 && moreIsBetter, pct < -2 && !moreIsBetter:
		arrow = " ✓"
	case pct > 2 && !moreIsBetter, pct < -2 && moreIsBetter:
		arrow = " ✗"
	}
	return fmt.Sprintf("%+.1f%%%s", pct, arrow)
}

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff OLD.json NEW.json")
		os.Exit(2)
	}
	oldBF, err := load(os.Args[1])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}
	newBF, err := load(os.Args[2])
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: %v\n", err)
		os.Exit(1)
	}

	oldRows := make(map[string]servingRow, len(oldBF.Rows))
	for _, r := range oldBF.Rows {
		oldRows[servingKey(r)] = r
	}
	fmt.Println("### Serving bench vs committed baseline")
	fmt.Println()
	fmt.Println("| cell | ops/s old | ops/s new | Δ ops/s | p50 old | p50 new | allocs old | allocs new | Δ allocs |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	seen := make(map[string]bool, len(newBF.Rows))
	for _, nr := range newBF.Rows {
		k := servingKey(nr)
		seen[k] = true
		or, ok := oldRows[k]
		if !ok {
			fmt.Printf("| %s *(new)* | — | %.0f | — | — | %.2fms | — | %.1f | — |\n",
				k, nr.OpsPerSec, nr.P50Ms, nr.AllocsPerOp)
			continue
		}
		fmt.Printf("| %s | %.0f | %.0f | %s | %.2fms | %.2fms | %.1f | %.1f | %s |\n",
			k, or.OpsPerSec, nr.OpsPerSec, delta(or.OpsPerSec, nr.OpsPerSec, true),
			or.P50Ms, nr.P50Ms, or.AllocsPerOp, nr.AllocsPerOp,
			delta(or.AllocsPerOp, nr.AllocsPerOp, false))
	}
	var removed []string
	for k := range oldRows {
		if !seen[k] {
			removed = append(removed, k)
		}
	}
	sort.Strings(removed)
	for _, k := range removed {
		fmt.Printf("| %s *(removed)* | %.0f | — | — | — | — | — | — | — |\n", k, oldRows[k].OpsPerSec)
	}

	oldRPC := make(map[string]rpcRow, len(oldBF.RPCRows))
	for _, r := range oldBF.RPCRows {
		oldRPC[r.Op] = r
	}
	fmt.Println()
	fmt.Println("| raw rpc | ops/s old | ops/s new | Δ ops/s | allocs old | allocs new |")
	fmt.Println("|---|---|---|---|---|---|")
	for _, nr := range newBF.RPCRows {
		k := nr.Op
		or, ok := oldRPC[k]
		if !ok {
			fmt.Printf("| %s *(new)* | — | %.0f | — | — | %.1f |\n", k, nr.OpsPerSec, nr.AllocsPerOp)
			continue
		}
		fmt.Printf("| %s | %.0f | %.0f | %s | %.1f | %.1f |\n",
			k, or.OpsPerSec, nr.OpsPerSec, delta(or.OpsPerSec, nr.OpsPerSec, true),
			or.AllocsPerOp, nr.AllocsPerOp)
	}
}
