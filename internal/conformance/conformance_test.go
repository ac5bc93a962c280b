package conformance

import (
	"fmt"
	"math"
	"testing"

	"pbs/internal/client"
	"pbs/internal/dist"
	"pbs/internal/rng"
	"pbs/internal/server"
	"pbs/internal/stats"
	"pbs/internal/wars"
	"pbs/internal/workload"
)

const (
	// curveRMSELimit is the acceptance bound on measured-vs-predicted
	// t-visibility (the paper reports 0.28% average RMSE against modified
	// Cassandra; 5% leaves room for a real scheduler on shared hardware).
	curveRMSELimit = 0.05
	// latNRMSELimit is the acceptance bound on latency quantile agreement.
	latNRMSELimit = 0.10
	// latMAEFloorMs is the alternative absolute bound for production-model
	// latencies: the SSD-family fits (LNKD A/R/S and W alike) are nearly
	// deterministic — sub-millisecond quantile spread per unit scale — so a
	// range-normalized bound degenerates on them (see package comment).
	latMAEFloorMs = 2.0

	predictionTrials = 120000
	latencyPhaseOps  = 2000
	loadClients      = 4
	probeConcurrency = 8
)

// scenario is one cell of the conformance matrix.
type scenario struct {
	name    string
	nodes   int // cluster size (= N here; every node holds every key's replica set)
	n, r, w int
	model   dist.LatencyModel
	scale   float64
	mix     float64 // read fraction of the load phase
	epochs  int
	// strictLatency requires read and write N-RMSE <= latNRMSELimit with
	// no absolute fallback (validation-grade scenarios, whose exponential
	// models have wide quantile ranges by construction).
	strictLatency bool
	// strictQuorum additionally asserts R+W > N semantics: zero measured
	// staleness, flat measured curve at 1.
	strictQuorum bool
	// batch > 1 drives the load phase through batched MGet/MPut client ops
	// (grouped per coordinator, one frame per node) instead of single-key
	// ops. Staleness and latency are still recorded per key, and on
	// WARS-injected clusters every leg of a batched key carries its own
	// injected delays as a single-key leg, so the same conformance bounds
	// apply.
	batch int
}

// expModel builds the paper's Section 5.2 validation models: exponential
// W with mean wMean ms, exponential A=R=S with mean arsMean ms.
func expModel(wMean, arsMean float64) dist.LatencyModel {
	w := dist.NewExponential(1 / wMean)
	ars := dist.NewExponential(1 / arsMean)
	return dist.LatencyModel{
		Name: fmt.Sprintf("exp(W=%g,ARS=%g)", wMean, arsMean),
		W:    w, A: ars, R: ars, S: ars,
	}
}

func scenarios() []scenario {
	return []scenario{
		// Validation tier: the paper's exponential injection models, strict
		// bounds on both staleness and latency.
		{name: "val-exp20-10-N3-R1W1-readheavy", nodes: 3, n: 3, r: 1, w: 1,
			model: expModel(20, 10), scale: 1, mix: 0.8, epochs: 600, strictLatency: true},
		{name: "val-exp20-10-N3-R2W1-writeheavy", nodes: 3, n: 3, r: 2, w: 1,
			model: expModel(20, 10), scale: 1, mix: 0.3, epochs: 420, strictLatency: true},
		{name: "val-exp10-5-N3-R1W2-readheavy", nodes: 3, n: 3, r: 1, w: 2,
			model: expModel(10, 5), scale: 1, mix: 0.75, epochs: 420, strictLatency: true},
		{name: "val-exp20-10-N5-R2W2-balanced", nodes: 5, n: 5, r: 2, w: 2,
			model: expModel(20, 10), scale: 1, mix: 0.5, epochs: 420, strictLatency: true},

		// Production tier: Table 3 fits, time-scaled so injected delays
		// dominate loopback noise.
		{name: "prod-lnkd-disk-N3-R1W2-readheavy", nodes: 3, n: 3, r: 1, w: 2,
			model: dist.LNKDDISK(), scale: 16, mix: 0.75, epochs: 280},
		{name: "prod-lnkd-disk-N3-R2W1-writeheavy", nodes: 3, n: 3, r: 2, w: 1,
			model: dist.LNKDDISK(), scale: 16, mix: 0.3, epochs: 280},
		{name: "prod-lnkd-ssd-N3-R1W1-readheavy", nodes: 3, n: 3, r: 1, w: 1,
			model: dist.LNKDSSD(), scale: 50, mix: 0.8, epochs: 280},
		{name: "prod-ymmr-N3-R1W1-readheavy", nodes: 3, n: 3, r: 1, w: 1,
			model: dist.YMMR(), scale: 6, mix: 0.75, epochs: 280},
		{name: "prod-ymmr-N5-R3W3-writeheavy-strict", nodes: 5, n: 5, r: 3, w: 3,
			model: dist.YMMR(), scale: 6, mix: 0.35, epochs: 280, strictQuorum: true},
	}
}

// calibrate measures the harness's per-operation overhead distribution: a
// single-replica cluster with known point-mass delays (d ms on every leg,
// so every operation costs exactly 2d plus overhead) is driven at the same
// client concurrency as the scenarios; whatever latency exceeds 2d is
// harness overhead (RPC, HTTP, goroutine scheduling, timer granularity).
// The dial parameter selects the client protocol under test (client.Dial
// for HTTP+JSON, client.DialBinary for the pipelined binary protocol), so
// the overhead it measures is the overhead the scenarios actually pay.
func calibrate(t *testing.T, dial func(string) (*client.Client, error)) (readOv, writeOv []float64) {
	t.Helper()
	const d = 5.0
	pt := dist.LatencyModel{
		Name: "point",
		W:    dist.Point{V: d}, A: dist.Point{V: d},
		R: dist.Point{V: d}, S: dist.Point{V: d},
	}
	cl, err := server.StartLocal(1, server.Params{N: 1, R: 1, W: 1, Model: &pt, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := dial(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mon := client.NewMonitor()
	if _, err := client.RunLoad(c, mon, client.LoadOptions{
		Clients: loadClients, MaxOps: 800,
		Keys: workload.NewUniformKeys(64, "cal"), Mix: workload.NewMix(0.5), Seed: 2,
	}); err != nil {
		t.Fatal(err)
	}
	read, write := mon.CoordLatencies()
	toOverhead := func(xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = math.Max(0, x-2*d)
		}
		return out
	}
	readOv, writeOv = toOverhead(read), toOverhead(write)
	t.Logf("calibration: median per-op overhead read %.3f ms, write %.3f ms",
		stats.Quantiles(readOv, []float64{0.5})[0], stats.Quantiles(writeOv, []float64{0.5})[0])
	return readOv, writeOv
}

// convolveQuantiles composes predicted latency samples with the measured
// harness overhead distribution and returns quantiles of the sum — the
// latency the live system should exhibit if it conforms to WARS.
func convolveQuantiles(predSorted, overhead []float64, qs []float64, seed uint64) []float64 {
	r := rng.New(seed)
	const samples = 60000
	sum := make([]float64, samples)
	for i := range sum {
		sum[i] = predSorted[r.Intn(len(predSorted))] + overhead[r.Intn(len(overhead))]
	}
	return stats.Quantiles(sum, qs)
}

// adaptiveQs picks latency quantiles supported by the sample count, so
// tail quantiles are only asserted when they are statistically meaningful.
func adaptiveQs(n int) []float64 {
	qs := []float64{0.1, 0.25, 0.5, 0.75, 0.9}
	if n >= 300 {
		qs = append(qs, 0.95)
	}
	if n >= 2000 {
		qs = append(qs, 0.99)
	}
	return qs
}

func meanAbsError(pred, obs []float64) float64 {
	var sum float64
	for i := range pred {
		sum += math.Abs(pred[i] - obs[i])
	}
	return sum / float64(len(pred))
}

func fmt3(xs []float64) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[i] = fmt.Sprintf("%.3f", x)
	}
	return out
}

// TestLiveConformance is the headline end-to-end suite: for every scenario
// it boots a real multi-replica loopback cluster, drives a mixed workload
// plus a probe campaign through the networked client, and asserts the
// measured t-visibility curve and latency quantiles agree with the WARS
// Monte Carlo prediction. Scenarios run sequentially so the shared
// machine's scheduler noise stays bounded.
func TestLiveConformance(t *testing.T) {
	readOv, writeOv := calibrate(t, client.Dial)
	var totalOps int64
	for _, sc := range scenarios() {
		sc := sc
		t.Run(sc.name, func(t *testing.T) {
			totalOps += runScenario(t, sc, client.Dial, readOv, writeOv)
		})
	}
	// The acceptance bar is >= 10k operations across >= 4 scenarios; the
	// suite drives far more, and this guards against silent shrinkage.
	if totalOps < 20000 {
		t.Errorf("conformance suite drove only %d operations, want >= 20000", totalOps)
	}
	t.Logf("conformance suite drove %d live operations", totalOps)
}

// TestBinaryClientConformance re-runs a cross-section of the matrix with
// the pipelined binary client protocol in place of HTTP+JSON: one
// validation-tier scenario (strict staleness and latency bounds), one
// production fit, and the strict-quorum cell. The predictions are
// identical — WARS prices the quorum legs, not the front end — so the
// same RMSE bands passing here pins that retiring HTTP from the serving
// path did not perturb the distributions the model prices (it removes
// per-op overhead, which the calibration phase absorbs by measuring it
// over the same protocol).
func TestBinaryClientConformance(t *testing.T) {
	readOv, writeOv := calibrate(t, client.DialBinary)
	picked := map[string]bool{
		"val-exp20-10-N3-R1W1-readheavy":      true,
		"prod-lnkd-disk-N3-R1W2-readheavy":    true,
		"prod-ymmr-N5-R3W3-writeheavy-strict": true,
	}
	ran := 0
	for _, sc := range scenarios() {
		if !picked[sc.name] {
			continue
		}
		sc := sc
		ran++
		t.Run(sc.name, func(t *testing.T) {
			runScenario(t, sc, client.DialBinary, readOv, writeOv)
		})
	}
	if ran != len(picked) {
		t.Errorf("binary conformance ran %d of %d picked scenarios (matrix renamed?)", ran, len(picked))
	}
}

// TestBatchedClientConformance re-runs a cross-section of the matrix with
// the load phase issuing batched multi-key MGet/MPut frames (batch 8)
// over the binary protocol: one validation-tier scenario and the
// strict-quorum cell. On these WARS-injected clusters the coordinator's
// batch entry point sends each key's legs as single-key legs with their
// own injected delays — the same legs, the same per-key latency semantics
// as a single-key operation — so measured t-visibility must stay inside
// the same RMSE band, and the strict-quorum cell must still read zero
// staleness through the batch path.
func TestBatchedClientConformance(t *testing.T) {
	readOv, writeOv := calibrate(t, client.DialBinary)
	picked := map[string]bool{
		"val-exp20-10-N3-R1W1-readheavy":      true,
		"prod-ymmr-N5-R3W3-writeheavy-strict": true,
	}
	ran := 0
	for _, sc := range scenarios() {
		if !picked[sc.name] {
			continue
		}
		sc := sc
		sc.batch = 8
		ran++
		t.Run(sc.name+"-batch8", func(t *testing.T) {
			runScenario(t, sc, client.DialBinary, readOv, writeOv)
		})
	}
	if ran != len(picked) {
		t.Errorf("batched conformance ran %d of %d picked scenarios (matrix renamed?)", ran, len(picked))
	}
}

func runScenario(t *testing.T, sc scenario, dial func(string) (*client.Client, error), readOv, writeOv []float64) (ops int64) {
	model := dist.ScaleModel(sc.model, sc.scale)
	pred, err := wars.Simulate(wars.NewIID(sc.n, model), wars.Config{R: sc.r, W: sc.w},
		predictionTrials, rng.New(101))
	if err != nil {
		t.Fatal(err)
	}
	tmax := pred.TVisibility(0.95)
	tmax = math.Min(math.Max(tmax, 2), 300)
	ts := stats.Linspace(0, tmax, 12)

	cl, err := server.StartLocal(sc.nodes, server.Params{
		N: sc.n, R: sc.r, W: sc.w, Model: &sc.model, Scale: sc.scale, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	c, err := dial(cl.HTTPAddrs[0])
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Phase 1 — mixed workload at the scenario's read/write mix, low client
	// concurrency so measured quantiles reflect the injected delays rather
	// than client-side queueing.
	mon := client.NewMonitor()
	lr, err := client.RunLoad(c, mon, client.LoadOptions{
		Clients: loadClients, MaxOps: latencyPhaseOps,
		Keys: workload.NewZipfKeys(256, 0.99, "lg"),
		Mix:  workload.NewMix(sc.mix), Seed: 3,
		BatchSize: sc.batch,
	})
	if err != nil {
		t.Fatal(err)
	}
	if lr.Errors > lr.Ops/100 {
		t.Fatalf("load phase: %d of %d operations failed", lr.Errors, lr.Ops)
	}

	// Phase 2 — write-then-probe epochs for the t-visibility curve.
	meas, err := client.MeasureTVisibility(c, client.TVisOptions{
		Ts: ts, Epochs: sc.epochs, Concurrency: probeConcurrency,
	})
	if err != nil {
		t.Fatal(err)
	}
	ops = lr.Ops + meas.Ops

	// Staleness conformance: compare the measured curve against the
	// prediction evaluated at the offsets the probes actually achieved.
	predCurve := pred.Curve(meas.MeanOffsets())
	measCurve := meas.Curve()
	rmse, err := stats.RMSE(predCurve, measCurve)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("t-visibility RMSE %.2f%% over %d probe points (tmax %.1f ms)", rmse*100, len(ts), tmax)
	t.Logf("  predicted: %v", fmt3(predCurve))
	t.Logf("  measured:  %v", fmt3(measCurve))
	if rmse > curveRMSELimit {
		t.Errorf("t-visibility RMSE %.2f%% exceeds %.0f%%", rmse*100, curveRMSELimit*100)
	}

	// Latency conformance: measured coordinator quantiles vs predictions
	// composed with the calibrated harness overhead.
	obsRead, obsWrite := mon.CoordLatencies()
	rqs := adaptiveQs(len(obsRead))
	wqs := adaptiveQs(len(obsWrite))
	or := stats.Quantiles(obsRead, rqs)
	ow := stats.Quantiles(obsWrite, wqs)
	pr := convolveQuantiles(pred.ReadLatencies(), readOv, rqs, 11)
	pw := convolveQuantiles(pred.WriteLatencies(), writeOv, wqs, 12)
	readN, err := stats.NRMSE(pr, or)
	if err != nil {
		t.Fatal(err)
	}
	writeN, err := stats.NRMSE(pw, ow)
	if err != nil {
		t.Fatal(err)
	}
	readMAE := meanAbsError(pr, or)
	writeMAE := meanAbsError(pw, ow)
	t.Logf("latency: read N-RMSE %.2f%% (MAE %.2f ms, %d samples), write N-RMSE %.2f%% (MAE %.2f ms, %d samples)",
		readN*100, readMAE, len(obsRead), writeN*100, writeMAE, len(obsWrite))
	t.Logf("  read  pred %v vs meas %v at q=%v", fmt3(pr), fmt3(or), rqs)
	t.Logf("  write pred %v vs meas %v at q=%v", fmt3(pw), fmt3(ow), wqs)
	checkLatency := func(kind string, nrmse, mae float64) {
		if nrmse <= latNRMSELimit {
			return
		}
		if sc.strictLatency {
			t.Errorf("%s latency N-RMSE %.2f%% exceeds %.0f%%", kind, nrmse*100, latNRMSELimit*100)
		} else if mae > latMAEFloorMs {
			t.Errorf("%s latency N-RMSE %.2f%% exceeds %.0f%% and MAE %.2f ms exceeds %.1f ms",
				kind, nrmse*100, latNRMSELimit*100, mae, latMAEFloorMs)
		}
	}
	checkLatency("read", readN, readMAE)
	checkLatency("write", writeN, writeMAE)

	// Quorum-semantics conformance.
	snap := mon.Snapshot([]float64{0.5})
	if sc.strictQuorum {
		if snap.StaleReads != 0 {
			t.Errorf("strict quorum (R+W>N) measured %d stale reads", snap.StaleReads)
		}
		for i, p := range measCurve {
			if p != 1 {
				t.Errorf("strict quorum measured P(consistent at t=%.1f) = %.4f, want 1", ts[i], p)
			}
		}
	}
	if snap.Reads == 0 || snap.Writes == 0 {
		t.Errorf("load phase recorded no operations: %+v", snap)
	}
	return ops
}
