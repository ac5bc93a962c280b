package dist

import (
	"math"
	"testing"

	"pbs/internal/rng"
)

// sampleMean draws n samples and averages them.
func sampleMean(d Dist, n int, seed uint64) float64 {
	r := rng.New(seed)
	var sum float64
	for i := 0; i < n; i++ {
		sum += d.Sample(r)
	}
	return sum / float64(n)
}

func TestAnalyticMeans(t *testing.T) {
	cases := []struct {
		d    Dist
		want float64
	}{
		{Point{V: 3}, 3},
		{NewExponential(2), 0.5},
		{NewPareto(1, 2), 2},
		{NewUniform(0, 4), 2},
		{NewNormal(1.5, 2), 1.5},
		{NewMixture(Component{Weight: 1, D: Point{V: 0}}, Component{Weight: 1, D: Point{V: 10}}), 5},
	}
	for _, c := range cases {
		if got := c.d.Mean(); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Mean = %v, want %v", got, c.want)
		}
	}
	if !math.IsInf(NewPareto(1, 0.9).Mean(), 1) {
		t.Error("heavy Pareto mean should be +Inf")
	}
}

func TestSampleMeansMatchAnalytic(t *testing.T) {
	cases := []Dist{
		NewExponential(0.2),
		NewPareto(2, 4),
		NewUniform(1, 9),
		NewNormal(5, 2),
		NewMixture(Component{Weight: 0.9, D: NewPareto(0.235, 10)}, Component{Weight: 0.1, D: NewExponential(1.66)}),
	}
	for i, d := range cases {
		got := sampleMean(d, 200000, uint64(i+1))
		want := d.Mean()
		if math.Abs(got-want)/want > 0.02 {
			t.Errorf("case %d: sample mean %v vs analytic %v", i, got, want)
		}
	}
}

// TestParetoSampleIsInverseCDF pins Pareto.Sample to the inverse-CDF draw
// from the same uniform: for a cloned generator, Sample equals
// Quantile(1-u) to within rounding at the Table 3 shapes, and a shape far
// below 1, whose draws overflow float64, clamps to math.MaxFloat64.
func TestParetoSampleIsInverseCDF(t *testing.T) {
	for _, alpha := range []float64{0.5, 1.51, 3.35, 10} {
		p := NewPareto(1.05, alpha)
		r := rng.New(7)
		for i := 0; i < 20000; i++ {
			clone := *r
			u := clone.Float64Open()
			want := p.Quantile(1 - u)
			if got := p.Sample(r); math.Abs(got-want) > 1e-12*want {
				t.Fatalf("alpha=%v u=%v: Sample = %v, Quantile(1-u) = %v", alpha, u, got, want)
			}
		}
	}
	p := NewPareto(1, 1e-3)
	r := rng.New(11)
	clamped := 0
	for i := 0; i < 1000; i++ {
		v := p.Sample(r)
		if math.IsInf(v, 0) || math.IsNaN(v) {
			t.Fatalf("alpha=1e-3: sample %d is %v", i, v)
		}
		if v == math.MaxFloat64 {
			clamped++
		}
	}
	if clamped == 0 {
		t.Fatal("alpha=1e-3: no draw overflowed to the math.MaxFloat64 clamp")
	}
}

func TestQuantileInvertsCDF(t *testing.T) {
	cases := []Dist{
		NewExponential(1.66),
		NewPareto(3, 3.35),
		NewUniform(2, 5),
		NewNormal(0, 1),
		NewMixture(Component{Weight: 0.939, D: NewPareto(3, 3.35)}, Component{Weight: 0.061, D: NewExponential(0.0028)}),
	}
	for i, d := range cases {
		for _, q := range []float64{0.01, 0.25, 0.5, 0.9, 0.99, 0.999} {
			x := d.Quantile(q)
			if got := d.CDF(x); math.Abs(got-q) > 1e-6 {
				t.Errorf("case %d: CDF(Quantile(%v)) = %v", i, q, got)
			}
		}
	}
}

func TestQuantileMonotone(t *testing.T) {
	d := LNKDDISK().W
	prev := math.Inf(-1)
	for q := 0.0; q <= 0.999; q += 0.037 {
		v := d.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone at %v: %v < %v", q, v, prev)
		}
		prev = v
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	for _, q := range []float64{-0.1, 1.1, math.NaN()} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Quantile(%v) did not panic", q)
				}
			}()
			NewExponential(1).Quantile(q)
		}()
	}
}

func TestMixturePanics(t *testing.T) {
	cases := []func(){
		func() { NewMixture() },
		func() { NewMixture(Component{Weight: -1, D: Point{}}) },
		func() { NewMixture(Component{Weight: 1, D: nil}) },
		func() { NewMixture(Component{Weight: 0, D: Point{}}) },
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			f()
		}()
	}
}

func TestProductionModelsComplete(t *testing.T) {
	for _, m := range []LatencyModel{LNKDSSD(), LNKDDISK(), YMMR(), WANLocal()} {
		for _, d := range []Dist{m.W, m.A, m.R, m.S} {
			if d == nil {
				t.Fatalf("%s: nil distribution", m.Name)
			}
			if v := d.Quantile(0.5); v <= 0 || math.IsInf(v, 0) {
				t.Fatalf("%s: degenerate median %v", m.Name, v)
			}
		}
	}
	// LNKD-DISK differs from LNKD-SSD only in W (Table 3).
	ssd, disk := LNKDSSD(), LNKDDISK()
	if disk.W.Mean() <= ssd.W.Mean() {
		t.Fatal("disk writes should be slower than SSD writes")
	}
	if disk.A.Quantile(0.9) != ssd.A.Quantile(0.9) {
		t.Fatal("disk A/R/S should reuse the SSD fit")
	}
}

func TestPercentileTablesWellFormed(t *testing.T) {
	for _, tbl := range []PercentileTable{Table1SSD(), Table1Disk(), Table2Reads(), Table2Writes()} {
		if tbl.Name == "" || len(tbl.Points) < 2 {
			t.Fatalf("table %q malformed", tbl.Name)
		}
		for i := 1; i < len(tbl.Points); i++ {
			a, b := tbl.Points[i-1], tbl.Points[i]
			if b.Percentile <= a.Percentile || b.LatencyMs < a.LatencyMs {
				t.Fatalf("%s: non-monotone at %v", tbl.Name, b.Percentile)
			}
		}
	}
	// The two values the paper's evaluation quotes directly.
	w := Table2Writes()
	if w.Points[0].LatencyMs != 5.73 || w.Points[5].LatencyMs != 435.83 {
		t.Fatal("Yammer write anchors changed")
	}
}
