package pbs_test

// One benchmark per table and figure in the paper's evaluation (plus the
// ablations DESIGN.md calls out). Each benchmark regenerates the artifact
// through the experiment harness and prints the same rows/series the paper
// reports; timing covers a full regeneration. Run:
//
//	go test -bench=. -benchmem
//
// Micro-benchmarks for the core library primitives follow at the bottom.

import (
	"fmt"
	"testing"

	"pbs"
	"pbs/internal/dist"
	"pbs/internal/experiments"
)

// benchConfig sizes experiments so the full suite completes on a
// single-core machine while keeping tail estimates meaningful.
func benchConfig() experiments.Config {
	return experiments.Config{Seed: 42, Trials: 40000, Epochs: 800}
}

// runExperiment executes the artifact b.N times, printing the regenerated
// rows once (outside the timed region).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	printed := false
	for i := 0; i < b.N; i++ {
		res, err := experiments.Run(id, benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if !printed {
			printed = true
			b.StopTimer()
			fmt.Println(res.String())
			b.StartTimer()
		}
	}
}

// Section 3.1 in-text table: closed-form k-staleness.
func BenchmarkSection31KStaleness(b *testing.B) { runExperiment(b, "sec3.1-kstaleness") }

// Section 3.2: monotonic reads (Eq. 3) vs sampled sessions.
func BenchmarkSection32MonotonicReads(b *testing.B) { runExperiment(b, "sec3.2-monotonic") }

// Section 3.3: load bounds under staleness tolerance.
func BenchmarkSection33Load(b *testing.B) { runExperiment(b, "sec3.3-load") }

// Section 3.4: Equation 4 (empirical Pw) against the WARS simulator.
func BenchmarkSection34Equation4(b *testing.B) { runExperiment(b, "sec3.4-eq4") }

// Figure 4: t-visibility under exponential latency distributions.
func BenchmarkFigure4(b *testing.B) { runExperiment(b, "fig4") }

// Section 5.2: WARS predictions vs the Dynamo-style store (validation).
func BenchmarkSection52Validation(b *testing.B) { runExperiment(b, "sec5.2-validation") }

// Table 3: mixture fits of the production latency summaries.
func BenchmarkTable3Fits(b *testing.B) { runExperiment(b, "table3") }

// Figure 5: operation latency CDFs for the production fits.
func BenchmarkFigure5(b *testing.B) { runExperiment(b, "fig5") }

// Figure 6: t-visibility for the production fits.
func BenchmarkFigure6(b *testing.B) { runExperiment(b, "fig6") }

// Figure 7: t-visibility across replication factors.
func BenchmarkFigure7(b *testing.B) { runExperiment(b, "fig7") }

// Table 4: 99.9% t-visibility vs 99.9th-percentile latencies.
func BenchmarkTable4(b *testing.B) { runExperiment(b, "table4") }

// Ablations and extensions (DESIGN.md index).
func BenchmarkAblationReadRepair(b *testing.B)  { runExperiment(b, "ablation-readrepair") }
func BenchmarkAblationAntiEntropy(b *testing.B) { runExperiment(b, "ablation-antientropy") }
func BenchmarkAblationStickyReads(b *testing.B) { runExperiment(b, "ablation-sticky") }
func BenchmarkAblationFailures(b *testing.B)    { runExperiment(b, "ablation-failures") }
func BenchmarkExtensionSLA(b *testing.B)        { runExperiment(b, "ext-sla") }
func BenchmarkExtensionDetector(b *testing.B)   { runExperiment(b, "ext-detector") }
func BenchmarkExtensionFrontier(b *testing.B)   { runExperiment(b, "ext-frontier") }
func BenchmarkExtensionReadYourWrites(b *testing.B) {
	runExperiment(b, "ext-ryw")
}

// --- core-library micro-benchmarks ---

// BenchmarkClosedFormKStaleness measures the Equation 2 evaluation cost.
func BenchmarkClosedFormKStaleness(b *testing.B) {
	cfg := pbs.Config{N: 5, R: 2, W: 2}
	for i := 0; i < b.N; i++ {
		_ = cfg.KStalenessConsistency(3)
	}
}

// BenchmarkPredictorBuild measures a full 10k-trial WARS simulation with
// the default (all-cores) parallelism.
func BenchmarkPredictorBuild(b *testing.B) {
	sc := pbs.IIDScenario(3, pbs.LNKDDISK())
	for i := 0; i < b.N; i++ {
		if _, err := pbs.NewPredictor(sc, pbs.Quorum{R: 1, W: 1},
			pbs.WithSeed(uint64(i+1)), pbs.WithTrials(10000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorBuild1M builds the predictor perfbench's
// lnkd-disk-partial workload prices in its set-up: LNKD-DISK stretched ×4,
// N=3 R=W=1, 1M trials, default parallelism.
func BenchmarkPredictorBuild1M(b *testing.B) {
	sc := pbs.IIDScenario(3, dist.ScaleModel(pbs.LNKDDISK(), 4))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := pbs.NewPredictor(sc, pbs.Quorum{R: 1, W: 1},
			pbs.WithSeed(uint64(i+1)), pbs.WithTrials(1_000_000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorBuildSerial is BenchmarkPredictorBuild pinned to one
// worker — the baseline for the parallel speedup (results are identical).
func BenchmarkPredictorBuildSerial(b *testing.B) {
	sc := pbs.IIDScenario(3, pbs.LNKDDISK())
	for i := 0; i < b.N; i++ {
		if _, err := pbs.NewPredictor(sc, pbs.Quorum{R: 1, W: 1},
			pbs.WithSeed(uint64(i+1)), pbs.WithTrials(10000),
			pbs.WithParallelism(1)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictorsBatch25 evaluates all 25 (R, W) configurations at N=5
// against one shared-trial simulation — the sweep shape the SLA optimizer
// and Figure 6/7 regenerations use.
func BenchmarkPredictorsBatch25(b *testing.B) {
	sc := pbs.IIDScenario(5, pbs.LNKDDISK())
	var qs []pbs.Quorum
	for r := 1; r <= 5; r++ {
		for w := 1; w <= 5; w++ {
			qs = append(qs, pbs.Quorum{R: r, W: w})
		}
	}
	for i := 0; i < b.N; i++ {
		if _, err := pbs.NewPredictors(sc, qs,
			pbs.WithSeed(uint64(i+1)), pbs.WithTrials(10000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPredictors25Independent is the same sweep as
// BenchmarkPredictorsBatch25 run as 25 independent simulations — the
// pre-batching cost model, kept as the amortization baseline.
func BenchmarkPredictors25Independent(b *testing.B) {
	sc := pbs.IIDScenario(5, pbs.LNKDDISK())
	for i := 0; i < b.N; i++ {
		for r := 1; r <= 5; r++ {
			for w := 1; w <= 5; w++ {
				if _, err := pbs.NewPredictor(sc, pbs.Quorum{R: r, W: w},
					pbs.WithSeed(uint64(i+1)), pbs.WithTrials(10000)); err != nil {
					b.Fatal(err)
				}
			}
		}
	}
}

// BenchmarkPredictorQuery measures post-simulation query cost.
func BenchmarkPredictorQuery(b *testing.B) {
	pred, err := pbs.NewPredictor(pbs.IIDScenario(3, pbs.LNKDSSD()),
		pbs.Quorum{R: 1, W: 1}, pbs.WithTrials(50000))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = pred.PConsistent(float64(i % 100))
	}
}
