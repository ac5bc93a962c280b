package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"strings"
	"testing"
)

// declared reads the metric names and units the benchmark promises.
func declared(t *testing.T) (endToEnd, perLayer map[string]string) {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	for _, w := range b.Workloads {
		if _, err := findSpec(w.Name); err != nil {
			t.Errorf("BENCHMARK.json workload: %v", err)
		}
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return endToEnd, perLayer
}

// tiny shrinks a workload so a run takes seconds.
func tiny(sp spec) spec {
	sp.keys = min(sp.keys, 600)
	sp.setups = 1
	return sp
}

func TestTinyRunsEmitEveryMetric(t *testing.T) {
	endToEnd, perLayer := declared(t)
	for _, sp := range specs {
		for _, trace := range []bool{false, true} {
			want := endToEnd
			if trace {
				want = perLayer
			}
			cfg := config{sp: tiny(sp), seed: 7, seconds: 1, trace: trace, dir: t.TempDir(), sessions: 2, log: io.Discard}
			res, err := measure(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", sp.name, trace, err)
			}
			if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", sp.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json declares %d", sp.name, trace, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", sp.name, trace, name)
				case m.Unit != unit:
					t.Errorf("%s trace=%v: %s unit %q, declared %q", sp.name, trace, name, m.Unit, unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", sp.name, trace, name, m.Value)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end %s is 0", sp.name, name)
				}
			}
		}
	}
}

func TestCheckerRejectsStaleRead(t *testing.T) {
	sp, _ := findSpec("yammer-mem")
	ks := newKeyspace(tiny(sp), 1)
	recs := [][]rec{{
		{key: 3, write: true, seq: 5},
		{key: 3, seq: 5, base: 5},
		{key: 3, seq: 4, base: 5}, // older than the acknowledged write
		{key: 3, seq: 0, base: 5}, // found nothing
	}}
	v := check(sp.shape(), ks, recs)
	if v.stale != 2 || len(v.problems) == 0 || !strings.Contains(strings.Join(v.problems, ";"), "stale") {
		t.Errorf("strict quorums: stale=%d problems=%v, want both stale reads rejected", v.stale, v.problems)
	}
	if math.Abs(v.consistentFrac-1.0/3) > 1e-9 {
		t.Errorf("consistent fraction %v, want 1/3", v.consistentFrac)
	}
	partial, _ := findSpec("lnkd-disk-partial")
	if v := check(partial.shape(), ks, recs); len(v.problems) != 0 {
		t.Errorf("partial quorums: a stale read is a measurement, not a failure: %v", v.problems)
	}
}

func TestCheckerRejectsValueOfAnotherKey(t *testing.T) {
	sp, _ := findSpec("linkedin-durable")
	ks := newKeyspace(tiny(sp), 1)
	if !belongs(ks.names[2], ks.values[2]) {
		t.Fatalf("value of %s does not belong to it", ks.names[2])
	}
	for _, v := range []string{ks.values[3], "", ks.names[2], ks.names[2] + "x"} {
		if belongs(ks.names[2], v) {
			t.Errorf("%q accepted as a value of %s", v, ks.names[2])
		}
	}
	recs := [][]rec{{{key: 2, seq: 1, base: 1, wrong: !belongs(ks.names[2], ks.values[3])}}}
	if v := check(sp.shape(), ks, recs); v.wrong != 1 || len(v.problems) == 0 {
		t.Errorf("wrong=%d problems=%v, want the foreign value rejected", v.wrong, v.problems)
	}
}

func TestKeyspaceIsSeeded(t *testing.T) {
	sp, _ := findSpec("yammer-mem")
	sp = tiny(sp)
	a, b, c := newKeyspace(sp, 1), newKeyspace(sp, 1), newKeyspace(sp, 2)
	for i := range a.values {
		if a.values[i] != b.values[i] || len(a.values[i]) != valueBytes || !belongs(a.names[i], a.values[i]) {
			t.Fatalf("key %d: values %q / %q", i, a.values[i], b.values[i])
		}
	}
	if a.values[0] == c.values[0] && a.perm[0] == c.perm[0] {
		t.Error("seed 2 generated the same inputs as seed 1")
	}
}
