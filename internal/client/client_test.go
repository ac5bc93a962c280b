package client

import (
	"math"
	"runtime"
	"testing"
	"time"

	"pbs/internal/dist"
	"pbs/internal/server"
	"pbs/internal/workload"
)

// startCluster boots a loopback cluster and a dialed client against it.
func startCluster(t *testing.T, nodes int, p server.Params) (*server.Cluster, *Client) {
	t.Helper()
	cl, err := server.StartLocal(nodes, p)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	c, err := DialBinary(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	return cl, c
}

func TestDialPutGet(t *testing.T) {
	_, c := startCluster(t, 3, server.Params{N: 3, R: 2, W: 2, Seed: 1})
	if c.Nodes() != 3 {
		t.Fatalf("client sees %d nodes", c.Nodes())
	}
	pr, err := c.Put("k", "hello")
	if err != nil {
		t.Fatal(err)
	}
	if pr.Seq != 1 || pr.CommittedAt.IsZero() || pr.ClientMs < pr.CoordMs {
		t.Fatalf("put result %+v", pr)
	}
	gr, err := c.Get("k")
	if err != nil {
		t.Fatal(err)
	}
	if !gr.Found || gr.Value != "hello" || gr.Seq != 1 {
		t.Fatalf("get result %+v", gr)
	}
	gr, err = c.Get("absent")
	if err != nil {
		t.Fatal(err)
	}
	if gr.Found || gr.Seq != 0 {
		t.Fatalf("absent key %+v", gr)
	}
	if _, err := c.GetVia(99, "k"); err == nil {
		t.Fatal("out-of-range node accepted")
	}
	// The write routed to the key's primary coordinator, whichever node
	// that is; the cluster-wide totals must reflect it.
	var writes, reads int64
	for node := 0; node < c.Nodes(); node++ {
		st, err := c.Stats(node)
		if err != nil {
			t.Fatal(err)
		}
		writes += st.CoordWrites
		reads += st.CoordReads
	}
	if writes < 1 || reads < 2 {
		t.Fatalf("cluster-wide stats: %d coordinated writes, %d reads", writes, reads)
	}
}

func TestSessionMonotonicReads(t *testing.T) {
	cl, c := startCluster(t, 3, server.Params{N: 3, R: 1, W: 1, Seed: 2, Model: &dist.LatencyModel{
		Name: "tie-breaker",
		W:    dist.NewUniform(0.05, 0.3),
		A:    dist.NewUniform(0.05, 0.3),
		R:    dist.NewUniform(0.05, 1.5),
		S:    dist.NewUniform(0.05, 1.5),
	}})
	if _, err := c.Put("sess", "v"); err != nil {
		t.Fatal(err)
	}
	// One replica diverges ahead; R=1 reads race between the fresh and the
	// lagging replicas, so a session must eventually observe a regression.
	cl.InjectVersion(2, "sess", 40, "future")

	s := c.NewSession(false)
	sawViolation := false
	for i := 0; i < 300 && !sawViolation; i++ {
		_, violated, err := s.Get("sess")
		if err != nil {
			t.Fatal(err)
		}
		sawViolation = sawViolation || violated
	}
	if !sawViolation {
		t.Fatal("no monotonic-reads violation in 300 R=1 reads against a divergent replica")
	}
	reads, violations := s.Stats()
	if reads == 0 || violations == 0 {
		t.Fatalf("session stats reads=%d violations=%d", reads, violations)
	}

	// Sticky sessions still work end to end (routing through one fixed
	// coordinator).
	st := c.NewSession(true)
	if _, _, err := st.Get("sess"); err != nil {
		t.Fatal(err)
	}
	if r, _ := st.Stats(); r != 1 {
		t.Fatalf("sticky session recorded %d reads", r)
	}
}

func TestRunLoadClosedLoop(t *testing.T) {
	_, c := startCluster(t, 3, server.Params{N: 3, R: 1, W: 1, Seed: 3})
	mon := NewMonitor()
	res, err := RunLoad(c, mon, LoadOptions{
		Clients: 8,
		MaxOps:  400,
		Keys:    workload.NewZipfKeys(64, 1.0, "z"),
		Mix:     workload.NewMix(0.7),
		Seed:    7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 {
		t.Fatalf("%d errors", res.Errors)
	}
	if res.Ops < 400 || res.Reads+res.Writes != res.Ops {
		t.Fatalf("result %+v", res)
	}
	if res.Throughput <= 0 {
		t.Fatalf("throughput %v", res.Throughput)
	}
	snap := mon.Snapshot([]float64{0.5, 0.99})
	if snap.Reads != res.Reads || snap.Writes != res.Writes {
		t.Fatalf("monitor %+v vs result %+v", snap, res)
	}
	if len(snap.ReadClientMs) != 2 || math.IsNaN(snap.ReadClientMs[0]) || snap.ReadClientMs[0] <= 0 {
		t.Fatalf("read quantiles %v", snap.ReadClientMs)
	}
	if snap.MeanWriteMs <= 0 {
		t.Fatalf("mean write %v", snap.MeanWriteMs)
	}
}

func TestRunLoadOpenLoop(t *testing.T) {
	_, c := startCluster(t, 3, server.Params{N: 3, R: 1, W: 1, Seed: 4})
	mon := NewMonitor()
	res, err := RunLoad(c, mon, LoadOptions{
		Clients:  4,
		Rate:     400,
		Duration: 700 * time.Millisecond,
		Keys:     workload.NewUniformKeys(32, "k"),
		Mix:      workload.YammerMix(),
		Seed:     8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Errors != 0 || res.Ops == 0 {
		t.Fatalf("result %+v", res)
	}
	// Open loop paces arrivals: a 400/s Poisson stream for 0.7s should stay
	// well below the closed-loop ceiling (tens of thousands) and above a
	// trickle even on a loaded machine.
	if res.Ops > 600 {
		t.Fatalf("open loop ran unpaced: %d ops", res.Ops)
	}
}

// TestRunLoadClientsOverlap pins that Clients is the in-flight
// concurrency: with a latency model making every op sleep ~15 ms on the
// coordinator, a closed loop is round-trip-bound, so 8 clients must
// complete several times the ops of one client in the same wall-clock
// window. The sleep-bound workload keeps this robust even on a loaded
// single core.
func TestRunLoadClientsOverlap(t *testing.T) {
	leg := dist.NewUniform(15, 16)
	_, c := startCluster(t, 1, server.Params{N: 1, R: 1, W: 1, Seed: 9, Model: &dist.LatencyModel{
		Name: "fixed-15ms", W: leg, A: leg, R: leg, S: leg,
	}})
	run := func(clients int) int64 {
		t.Helper()
		mon := NewMonitor()
		res, err := RunLoad(c, mon, LoadOptions{
			Clients:  clients,
			Duration: 1200 * time.Millisecond,
			Keys:     workload.NewUniformKeys(16, "p"),
			Mix:      workload.NewMix(0.5),
			Seed:     11,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors != 0 {
			t.Fatalf("clients=%d: %d errors", clients, res.Errors)
		}
		return res.Ops
	}
	serial := run(1)
	overlapped := run(8)
	t.Logf("ops in 1.2s: clients(1)=%d clients(8)=%d", serial, overlapped)
	if overlapped < 3*serial {
		t.Fatalf("Clients=8 completed %d ops vs %d for one client: requests are not kept in flight together", overlapped, serial)
	}
}

func TestRunLoadValidation(t *testing.T) {
	_, c := startCluster(t, 1, server.Params{N: 1, R: 1, W: 1})
	mon := NewMonitor()
	bad := []LoadOptions{
		{Clients: 1, Duration: time.Second},                                        // no keys
		{Clients: 1, Keys: workload.NewUniformKeys(1, "k")},                        // no stop condition
		{Clients: 1, Keys: workload.NewUniformKeys(1, "k"), MaxOps: 1, Rate: -0.5}, // negative rate
	}
	for i, opt := range bad {
		if _, err := RunLoad(c, mon, opt); err == nil {
			t.Fatalf("case %d accepted", i)
		}
	}
}

func TestMonitorKStaleness(t *testing.T) {
	m := NewMonitor()
	m.RecordWrite("a", 5, 1, 0.5)
	if m.Committed("a") != 5 {
		t.Fatalf("committed %d", m.Committed("a"))
	}
	m.RecordRead("a", 5, 5, 1, 0.5) // fresh
	m.RecordRead("a", 2, 5, 1, 0.5) // 3 behind
	m.RecordRead("a", 5, 3, 1, 0.5) // newer than baseline: fresh
	s := m.Snapshot([]float64{0.5})
	if s.Reads != 3 || s.StaleReads != 1 {
		t.Fatalf("snapshot %+v", s)
	}
	if s.MaxKBehind != 3 || math.Abs(s.MeanKBehind-1) > 1e-9 {
		t.Fatalf("k-staleness %+v", s)
	}
	if len(s.KDist) != 2 || s.KDist[0].KBehind != 0 || s.KDist[0].Reads != 2 || s.KDist[1].KBehind != 3 {
		t.Fatalf("k distribution %+v", s.KDist)
	}
}

func TestMeasureTVisibilityHealthyCluster(t *testing.T) {
	_, c := startCluster(t, 3, server.Params{N: 3, R: 1, W: 1, Seed: 5})
	m, err := MeasureTVisibility(c, TVisOptions{
		Ts:          []float64{0, 2, 10},
		Epochs:      40,
		Concurrency: 8,
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Ops != int64(40*(1+3)) {
		t.Fatalf("ops %d", m.Ops)
	}
	curve := m.Curve()
	// Without injected latency replicas converge within loopback time, so
	// by 10 ms after commit essentially every probe is consistent.
	if curve[2] < 0.9 {
		t.Fatalf("curve %v: inconsistent 10ms after commit on an idle loopback cluster", curve)
	}
	if len(m.ReadLatencies) == 0 || len(m.WriteLatencies) != 40 {
		t.Fatalf("latencies %d/%d", len(m.ReadLatencies), len(m.WriteLatencies))
	}
}

func TestMeasureTVisibilityValidation(t *testing.T) {
	_, c := startCluster(t, 1, server.Params{N: 1, R: 1, W: 1})
	if _, err := MeasureTVisibility(c, TVisOptions{Epochs: 1}); err == nil {
		t.Fatal("no probe offsets accepted")
	}
	if _, err := MeasureTVisibility(c, TVisOptions{Ts: []float64{0}}); err == nil {
		t.Fatal("zero epochs accepted")
	}
}

// TestThroughputSmoke is the bench smoke of the conformance issue: the
// load generator must sustain at least 10k ops/s against a loopback
// cluster (no injected latency). The full floor assumes ≥4 schedulable
// CPUs (the 3-node cluster plus the client share the host): on 2–3 CPUs
// it scales down proportionally, and on a single core — where client,
// coordinator, and replicas all contend for one hardware thread — the
// test skips rather than fail on machine shape. Under the race detector
// the floor drops to a liveness check — instrumentation dominates the
// hot path there.
func TestThroughputSmoke(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if procs < 2 {
		t.Skipf("throughput floor needs >=2 CPUs, GOMAXPROCS=%d", procs)
	}
	floor := math.Min(10000, 2500*float64(procs))
	if raceEnabled {
		floor = 300.0
	}
	_, c := startCluster(t, 3, server.Params{N: 3, R: 1, W: 1, Seed: 6})

	var best float64
	for attempt := 0; attempt < 2; attempt++ {
		mon := NewMonitor()
		res, err := RunLoad(c, mon, LoadOptions{
			Clients:  8,
			Duration: 2 * time.Second,
			Keys:     workload.NewUniformKeys(128, "k"),
			Mix:      workload.NewMix(0.9),
			Seed:     42,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Errors > 0 {
			t.Fatalf("%d errors during throughput smoke", res.Errors)
		}
		if res.Throughput > best {
			best = res.Throughput
		}
		if best >= floor {
			break
		}
	}
	t.Logf("loopback throughput: %.0f ops/s (floor %.0f)", best, floor)
	if best < floor {
		t.Fatalf("load generator sustained only %.0f ops/s, need %.0f", best, floor)
	}
}

// TestBuildViewRejectsBadConfig pins the checks a /config payload from the
// network must pass before the client builds its ring from it.
func TestBuildViewRejectsBadConfig(t *testing.T) {
	m := func(id int, internal string) server.MemberInfo {
		return server.MemberInfo{ID: id, Addr: "http://h", Internal: internal}
	}
	cases := []struct {
		name string
		cfg  server.ConfigResponse
		ok   bool
	}{
		{"valid", server.ConfigResponse{N: 2, Vnodes: 8, Members: []server.MemberInfo{m(0, "a:1"), m(3, "b:1")}}, true},
		{"no-members", server.ConfigResponse{N: 1, Vnodes: 8}, false},
		{"no-vnodes", server.ConfigResponse{N: 1, Members: []server.MemberInfo{m(0, "a:1")}}, false},
		{"negative-id", server.ConfigResponse{N: 1, Vnodes: 8, Members: []server.MemberInfo{m(-1, "a:1")}}, false},
		{"duplicate-id", server.ConfigResponse{N: 1, Vnodes: 8, Members: []server.MemberInfo{m(2, "a:1"), m(2, "b:1")}}, false},
		{"no-internal", server.ConfigResponse{N: 1, Vnodes: 8, Members: []server.MemberInfo{m(0, "")}}, false},
	}
	for _, tc := range cases {
		v, err := buildView(tc.cfg)
		if tc.ok && (err != nil || len(v.members) != len(tc.cfg.Members)) {
			t.Errorf("%s: rejected: %v", tc.name, err)
		}
		if !tc.ok && err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}
