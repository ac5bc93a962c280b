package wars

import (
	"math"
	"runtime"
	"sort"
	"testing"

	"pbs/internal/rng"
)

// radixInput draws n values from a pool built to stress the key mapping and
// every branch of the sort: duplicates, both signs, both zeros, subnormals,
// infinities, the finite clamp's math.MaxFloat64, and values so close that
// only the lowest digits tell them apart.
func radixInput(r *rng.RNG, n int) []float64 {
	special := []float64{
		0, math.Copysign(0, -1), math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		0x1p-1030, -0x1p-1030, math.MaxFloat64, -math.MaxFloat64,
		math.Inf(1), math.Inf(-1), 1, -1, 1.5, 1.5,
		math.Nextafter(1, 2), math.Nextafter(1, 0),
	}
	xs := make([]float64, n)
	for i := range xs {
		switch r.Intn(4) {
		case 0:
			xs[i] = special[r.Intn(len(special))]
		case 1:
			xs[i] = float64(r.Intn(16) - 8) // heavy duplication
		case 2:
			xs[i] = (r.Float64() - 0.3) * 1e4
		default:
			xs[i] = math.Float64frombits(math.Float64bits(1) + r.Uint64n(512))
		}
	}
	return xs
}

// sameSorted fails unless got equals want element for element. Equal
// values compare equal, so -0 and +0 may sit in either order.
func sameSorted(t *testing.T, label string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] && !(math.IsNaN(got[i]) && math.IsNaN(want[i])) {
			t.Fatalf("%s: [%d] = %v, sort.Float64s gives %v", label, i, got[i], want[i])
		}
	}
}

// TestSortFloat64sMatchesSortPackage checks the radix sort against
// sort.Float64s on lengths around the cutoff and beyond one top-level
// bucket, including NaNs, which both place first.
func TestSortFloat64sMatchesSortPackage(t *testing.T) {
	r := rng.New(17)
	for _, n := range []int{0, 1, 2, radixCutoff - 1, radixCutoff, radixCutoff + 1, 1000, 1 << 16, 1<<17 + 3} {
		for rep := 0; rep < 3; rep++ {
			xs := radixInput(r, n)
			if rep == 2 && n > 0 {
				xs[r.Intn(n)] = math.NaN()
				xs[r.Intn(n)] = math.Copysign(math.NaN(), -1)
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			sortFloat64s(xs)
			sameSorted(t, "mixed", xs, want)
		}
	}
	// Keys that agree on every digit but the last, and all-equal input.
	xs := make([]float64, 1<<16)
	for i := range xs {
		xs[i] = math.Float64frombits(math.Float64bits(3) + uint64(len(xs)-i)%251)
	}
	want := append([]float64(nil), xs...)
	sort.Float64s(want)
	sortFloat64s(xs)
	sameSorted(t, "low-digit", xs, want)
	for i := range xs {
		xs[i] = math.MaxFloat64
	}
	sortFloat64s(xs)
	for i, x := range xs {
		if x != math.MaxFloat64 {
			t.Fatalf("all-equal: [%d] = %v", i, x)
		}
	}
}

// TestSortFloat64sScratchIsFixed pins that the sort's scratch does not
// grow with its input: an n-length key buffer per worker would add
// megabytes to the peak of every 1M-trial build.
func TestSortFloat64sScratchIsFixed(t *testing.T) {
	r := rng.New(5)
	allocated := func(n int) uint64 {
		xs := radixInput(r, n)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		sortFloat64s(xs)
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	small, large := allocated(1<<10), allocated(1<<20)
	if large > small+1<<16 {
		t.Fatalf("sorting 2^20 values allocated %d bytes, 2^10 values %d", large, small)
	}
}

// TestSortParallelMatchesSerial checks that splitting long arrays by their
// leading digit across workers changes nothing: at every worker count each
// array comes out bit for bit as the serial sort leaves it, NaN payloads
// included, for arrays short of the split length, far beyond it, and of
// equal keys.
func TestSortParallelMatchesSerial(t *testing.T) {
	r := rng.New(23)
	lens := []int{0, 1, radixCutoff + 1, splitLen, splitLen + 1, 1<<17 + 3, 1 << 18}
	for _, workers := range []int{1, 2, 3, 8} {
		var xss, want [][]float64
		for _, n := range lens {
			xs := radixInput(r, n)
			if n > 2 {
				xs[r.Intn(n)] = math.NaN()
				xs[r.Intn(n)] = math.Copysign(math.NaN(), -1)
			}
			w := append([]float64(nil), xs...)
			sortFloat64s(w)
			xss, want = append(xss, xs), append(want, w)
		}
		same := make([]float64, splitLen*4)
		for i := range same {
			same[i] = 2.5
		}
		xss, want = append(xss, same), append(want, append([]float64(nil), same...))
		sortParallel(xss, workers)
		for i := range xss {
			for j := range xss[i] {
				if math.Float64bits(xss[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("workers %d, array %d (len %d): [%d] = %v, serial sort gives %v",
						workers, i, len(xss[i]), j, xss[i][j], want[i][j])
				}
			}
		}
	}
}
