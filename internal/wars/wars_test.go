package wars

import (
	"math"
	"testing"

	"pbs/internal/dist"
	"pbs/internal/quorum"
	"pbs/internal/rng"
)

func mustSimulate(t *testing.T, sc Scenario, cfg Config, trials int, seed uint64) *Run {
	t.Helper()
	run, err := Simulate(sc, cfg, trials, rng.New(seed))
	if err != nil {
		t.Fatal(err)
	}
	return run
}

func expModel(wMean, arsMean float64) dist.LatencyModel {
	return dist.LatencyModel{
		Name: "exp",
		W:    dist.NewExponential(1 / wMean),
		A:    dist.NewExponential(1 / arsMean),
		R:    dist.NewExponential(1 / arsMean),
		S:    dist.NewExponential(1 / arsMean),
	}
}

func TestSimulateValidation(t *testing.T) {
	sc := NewIID(3, expModel(1, 1))
	if _, err := Simulate(sc, Config{R: 0, W: 1}, 10, rng.New(1)); err == nil {
		t.Fatal("R=0 accepted")
	}
	if _, err := Simulate(sc, Config{R: 1, W: 4}, 10, rng.New(1)); err == nil {
		t.Fatal("W>N accepted")
	}
	if _, err := Simulate(sc, Config{R: 1, W: 1}, 0, rng.New(1)); err == nil {
		t.Fatal("0 trials accepted")
	}
}

func TestStrictQuorumAlwaysConsistent(t *testing.T) {
	// R+W > N: the first R responses must include a replica from the write
	// quorum... note this is NOT generally true in WARS (the write quorum is
	// the first W acks, the read quorum the first R responses; with R+W>N
	// they overlap in at least one replica i, and for that replica the read
	// arrives at wt + t + R[i] >= W[i] because W[i] <= wt... only when
	// A[i] >= 0 and i acked within the first W). Verify empirically at t=0.
	for _, cfg := range []Config{{R: 2, W: 2}, {R: 1, W: 3}, {R: 3, W: 1}} {
		run := mustSimulate(t, NewIID(3, expModel(5, 2)), cfg, 20000, 42)
		if p := run.PConsistent(0); p < 1 {
			t.Errorf("strict R=%d W=%d: P(consistent at 0) = %v, want 1", cfg.R, cfg.W, p)
		}
	}
}

func TestPConsistentMonotoneInT(t *testing.T) {
	run := mustSimulate(t, NewIID(3, expModel(10, 2)), Config{R: 1, W: 1}, 50000, 7)
	prev := -1.0
	for _, tms := range []float64{0, 1, 2, 5, 10, 20, 50, 100, 200} {
		p := run.PConsistent(tms)
		if p < prev {
			t.Fatalf("P(consistent) decreased at t=%v: %v < %v", tms, p, prev)
		}
		prev = p
	}
	if run.PConsistent(1e9) != 1 {
		t.Fatal("consistency should reach 1 for huge t")
	}
}

func TestPStaleComplement(t *testing.T) {
	run := mustSimulate(t, NewIID(3, expModel(10, 2)), Config{R: 1, W: 1}, 10000, 9)
	for _, tms := range []float64{0, 5, 50} {
		if math.Abs(run.PStale(tms)+run.PConsistent(tms)-1) > 1e-12 {
			t.Fatal("PStale + PConsistent != 1")
		}
	}
}

func TestFigure4Shape(t *testing.T) {
	// Section 5.3 / Figure 4: with exponential W and A=R=S (λ=1), a faster
	// W (λ=4, mean 0.25) gives ~94% consistency immediately after commit and
	// ~99.9% after 1ms; a slow W (λ=0.1, mean 10) gives ~41% immediately
	// and needs ~65ms for 99.9%.
	ars := 1.0 // λ of A=R=S

	fast := NewIID(3, dist.LatencyModel{
		Name: "λW=4",
		W:    dist.NewExponential(4),
		A:    dist.NewExponential(ars), R: dist.NewExponential(ars), S: dist.NewExponential(ars),
	})
	runFast := mustSimulate(t, fast, Config{R: 1, W: 1}, 300000, 11)
	if p := runFast.PConsistent(0); math.Abs(p-0.94) > 0.02 {
		t.Errorf("fast W: P(0) = %v, paper reports ≈0.94", p)
	}
	if tv := runFast.TVisibility(0.999); tv > 2.5 {
		t.Errorf("fast W: 99.9%% t-visibility = %v ms, paper reports ≈1ms", tv)
	}

	slow := NewIID(3, dist.LatencyModel{
		Name: "λW=0.1",
		W:    dist.NewExponential(0.1),
		A:    dist.NewExponential(ars), R: dist.NewExponential(ars), S: dist.NewExponential(ars),
	})
	runSlow := mustSimulate(t, slow, Config{R: 1, W: 1}, 300000, 11)
	if p := runSlow.PConsistent(0); math.Abs(p-0.41) > 0.03 {
		t.Errorf("slow W: P(0) = %v, paper reports ≈0.41", p)
	}
	tv := runSlow.TVisibility(0.999)
	if tv < 40 || tv > 90 {
		t.Errorf("slow W: 99.9%% t-visibility = %v ms, paper reports ≈65ms", tv)
	}
}

func TestWriteLatencyIsOrderStatistic(t *testing.T) {
	// With point-mass delays every order statistic is deterministic.
	m := dist.LatencyModel{
		Name: "pt",
		W:    dist.Point{V: 3}, A: dist.Point{V: 2},
		R: dist.Point{V: 1}, S: dist.Point{V: 4},
	}
	run := mustSimulate(t, NewIID(3, m), Config{R: 2, W: 2}, 100, 1)
	if got := run.WriteLatency(0.5); got != 5 {
		t.Fatalf("write latency = %v, want 5 (W+A)", got)
	}
	if got := run.ReadLatency(0.5); got != 5 {
		t.Fatalf("read latency = %v, want 5 (R+S)", got)
	}
	// Deterministic consistency: threshold = W - R - wt = 3-1-5 = -3 < 0.
	if p := run.PConsistent(0); p != 1 {
		t.Fatalf("deterministic run should be consistent: %v", p)
	}
}

func TestLatencyMonotoneInQuorumSize(t *testing.T) {
	sc := NewIID(3, expModel(5, 2))
	r1 := mustSimulate(t, sc, Config{R: 1, W: 1}, 40000, 3)
	r2 := mustSimulate(t, sc, Config{R: 2, W: 2}, 40000, 3)
	r3 := mustSimulate(t, sc, Config{R: 3, W: 3}, 40000, 3)
	if !(r1.ReadLatency(0.99) < r2.ReadLatency(0.99) && r2.ReadLatency(0.99) < r3.ReadLatency(0.99)) {
		t.Fatal("read latency should grow with R")
	}
	if !(r1.WriteLatency(0.99) < r2.WriteLatency(0.99) && r2.WriteLatency(0.99) < r3.WriteLatency(0.99)) {
		t.Fatal("write latency should grow with W")
	}
}

func TestConsistencyImprovesWithRW(t *testing.T) {
	sc := NewIID(3, expModel(10, 2))
	base := mustSimulate(t, sc, Config{R: 1, W: 1}, 60000, 5)
	moreW := mustSimulate(t, sc, Config{R: 1, W: 2}, 60000, 5)
	moreR := mustSimulate(t, sc, Config{R: 2, W: 1}, 60000, 5)
	for _, tms := range []float64{0, 5, 10} {
		if moreW.PConsistent(tms) < base.PConsistent(tms)-0.01 {
			t.Fatalf("W=2 should not be less consistent at t=%v", tms)
		}
		if moreR.PConsistent(tms) < base.PConsistent(tms)-0.01 {
			t.Fatalf("R=2 should not be less consistent at t=%v", tms)
		}
	}
}

func TestAgreesWithEquationFourAtInstantReads(t *testing.T) {
	// When A = R = S = 0 and reads start at t = 0, WARS reduces to the
	// fixed-quorum model: the read sees exactly the replicas with
	// W[i] <= wt, i.e. the first W responders. For R=1, pst from Eq. 4 with
	// the fixed propagation CDF equals the probability that the single
	// fastest-responding replica (uniformly random under IID delays... the
	// read picks the replica with smallest R+S = 0 tie, broken by sort
	// stability — exercise instead with R sampled tiny jitter).
	jitter := dist.NewUniform(0, 1e-9)
	m := dist.LatencyModel{
		Name: "instant",
		W:    dist.NewExponential(1),
		A:    dist.Point{V: 0},
		R:    jitter, S: jitter,
	}
	cfg := quorum.Config{N: 3, R: 1, W: 1}
	run := mustSimulate(t, NewIID(3, m), Config{R: 1, W: 1}, 400000, 13)
	got := run.PStale(0)
	want := quorum.NonIntersectionProb(cfg)
	if math.Abs(got-want) > 0.005 {
		t.Fatalf("WARS t=0 staleness %v, Eq.1 %v", got, want)
	}
}

func TestWANScenario(t *testing.T) {
	sc := NewWAN(3, dist.LNKDDISK(), dist.WANDelayMs)
	run := mustSimulate(t, sc, Config{R: 1, W: 1}, 60000, 17)
	// Section 5.6: WAN has a 33% chance of consistency immediately after
	// commit (the read wins only when it originates at the writer's DC).
	p0 := run.PConsistent(0)
	if math.Abs(p0-0.33) > 0.05 {
		t.Errorf("WAN P(0) = %v, paper reports ≈0.33", p0)
	}
	// Consistency should jump once t exceeds the one-way WAN delay.
	pAfter := run.PConsistent(80)
	if pAfter < 0.9 {
		t.Errorf("WAN P(80ms) = %v, want > 0.9", pAfter)
	}
	// R=1 read latency is small (local replica), R=2 requires a WAN hop.
	r2 := mustSimulate(t, sc, Config{R: 2, W: 1}, 60000, 17)
	if r2.ReadLatency(0.5) < 150 {
		t.Errorf("WAN R=2 median read latency = %v, want >= 150 (two one-way hops)", r2.ReadLatency(0.5))
	}
	if run.ReadLatency(0.5) > 20 {
		t.Errorf("WAN R=1 median read latency = %v, want local", run.ReadLatency(0.5))
	}
}

func TestProxiedScenario(t *testing.T) {
	base := NewIID(3, expModel(10, 5))
	prox := Proxied{Base: base, LocalDelay: 0}
	run := mustSimulate(t, prox, Config{R: 1, W: 1}, 30000, 19)
	// The local replica acks instantly, so W=1 writes commit at ~0 and the
	// local read response returns at ~0; threshold = W_local - R_local - wt
	// = 0 for the local replica → consistent at t=0 whenever the same
	// replica is local for both ops... with one shared Fill the local
	// replica is the same for the write and read halves of the trial, so
	// P(consistent at 0) should be 1 (local replica has version at once).
	if p := run.PConsistent(0); p < 0.999 {
		t.Errorf("proxied local replica should make t=0 reads consistent, got %v", p)
	}
	if run.WriteLatency(0.99) > 1e-9 {
		t.Errorf("proxied W=1 write latency should be ~0, got %v", run.WriteLatency(0.99))
	}
}

func TestTVisibilityEdges(t *testing.T) {
	run := mustSimulate(t, NewIID(3, expModel(10, 2)), Config{R: 1, W: 1}, 10000, 23)
	if run.TVisibility(0) != 0 {
		t.Fatal("p=0 should be 0")
	}
	if v := run.TVisibility(1); v < 0 {
		t.Fatal("p=1 should be the max threshold clamped at 0")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("p>1 should panic")
		}
	}()
	run.TVisibility(1.5)
}

// TestTVisibilityQuantileConsistency pins TVisibility as the smallest
// threshold whose PConsistent reaches p: on a simulated run, and on runs
// with thresholds 1..n, where p·n is rarely an integer (n=3, p=0.5 must
// give 2/3, not 1/3; n=7, p=0.9 must give 7/7, not 6/7).
func TestTVisibilityQuantileConsistency(t *testing.T) {
	ps := []float64{0.5, 0.9, 0.99, 0.999, 0.9995}
	run := mustSimulate(t, NewIID(3, expModel(10, 2)), Config{R: 1, W: 1}, 100000, 29)
	for _, p := range ps {
		if got := run.PConsistent(run.TVisibility(p)); got < p {
			t.Fatalf("simulated: PConsistent(TVisibility(%v)) = %v", p, got)
		}
	}
	for _, n := range []int{1, 2, 3, 7, 1000, 100000} {
		th := make([]float64, n)
		for i := range th {
			th[i] = float64(i + 1)
		}
		run := &Run{thresholds: th}
		for _, p := range ps {
			tv := run.TVisibility(p)
			if got := run.PConsistent(tv); got < p {
				t.Errorf("n=%d: PConsistent(TVisibility(%v)) = %v < p", n, p, got)
			}
			if tv > 1 {
				if prev := run.PConsistent(tv - 1); prev >= p {
					t.Errorf("n=%d p=%v: TVisibility = %v, but the previous threshold already reaches %v", n, p, tv, prev)
				}
			}
		}
	}
}

func TestCurve(t *testing.T) {
	run := mustSimulate(t, NewIID(3, expModel(10, 2)), Config{R: 1, W: 1}, 20000, 31)
	ts := []float64{0, 1, 2, 4, 8}
	curve := run.Curve(ts)
	if len(curve) != len(ts) {
		t.Fatal("curve length")
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] < curve[i-1] {
			t.Fatal("curve not monotone")
		}
	}
}

func TestDeterministicRuns(t *testing.T) {
	a := mustSimulate(t, NewIID(3, expModel(10, 2)), Config{R: 1, W: 1}, 5000, 99)
	b := mustSimulate(t, NewIID(3, expModel(10, 2)), Config{R: 1, W: 1}, 5000, 99)
	for i, v := range a.Thresholds() {
		if b.Thresholds()[i] != v {
			t.Fatal("same seed should reproduce identical runs")
		}
	}
}

func TestScenarioPanics(t *testing.T) {
	cases := []func(){
		func() { NewIID(0, expModel(1, 1)) },
		func() { NewIID(3, dist.LatencyModel{}) },
		func() { NewWAN(0, dist.LNKDDISK(), 75) },
		func() { NewWAN(3, dist.LNKDDISK(), -1) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}
