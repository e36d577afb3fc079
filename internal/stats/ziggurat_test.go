package stats

// Statistical equivalence proof for the ziggurat fast paths: the fast
// samplers draw a different sequence than the reference ones, so the
// contract is distributional, not bitwise. A Kolmogorov–Smirnov test
// against the *analytic* CDF pins each fast sampler to its target
// distribution across 35 seeds (the same seed count as the trace
// suite), at a significance level chosen so the whole sweep has a
// negligible false-failure rate.

import (
	"math"
	"sort"
	"testing"
)

// ksDistance returns the one-sample KS statistic of samples against the
// analytic CDF. samples is sorted in place.
func ksDistance(samples []float64, cdf func(float64) float64) float64 {
	sort.Float64s(samples)
	n := float64(len(samples))
	var d float64
	for i, x := range samples {
		f := cdf(x)
		if up := float64(i+1)/n - f; up > d {
			d = up
		}
		if down := f - float64(i)/n; down > d {
			d = down
		}
	}
	return d
}

// ksThreshold is the critical KS distance at alpha ~= 1e-6 for sample
// size n (c(alpha) = sqrt(-ln(alpha/2)/2) ~= 2.7). With 35 seeds x 4
// distributions the sweep-wide false-failure probability stays far
// below 1e-3, while a broken sampler (wrong tail, wrong wedge test)
// sits orders of magnitude above the line.
func ksThreshold(n int) float64 { return 2.7 / math.Sqrt(float64(n)) }

func expCDF(mean float64) func(float64) float64 {
	return func(x float64) float64 {
		if x < 0 {
			return 0
		}
		return 1 - math.Exp(-x/mean)
	}
}

func normCDF(mean, sd float64) func(float64) float64 {
	return func(x float64) float64 {
		return 0.5 * (1 + math.Erf((x-mean)/(sd*math.Sqrt2)))
	}
}

func TestFastExpKSAcrossSeeds(t *testing.T) {
	const n = 20000
	buf := make([]float64, n)
	for seed := uint64(1); seed <= 35; seed++ {
		r := NewRNG(seed)
		r.FillExp(buf, 1)
		if d := ksDistance(buf, expCDF(1)); d > ksThreshold(n) {
			t.Errorf("seed %d: FastExp KS distance %.4f above %.4f", seed, d, ksThreshold(n))
		}
	}
}

func TestFastNormalKSAcrossSeeds(t *testing.T) {
	const n = 20000
	buf := make([]float64, n)
	for seed := uint64(1); seed <= 35; seed++ {
		r := NewRNG(seed)
		r.FillNormal(buf, 0, 1)
		if d := ksDistance(buf, normCDF(0, 1)); d > ksThreshold(n) {
			t.Errorf("seed %d: FastNormal KS distance %.4f above %.4f", seed, d, ksThreshold(n))
		}
	}
}

func TestFastExpScalesByMean(t *testing.T) {
	const n = 20000
	buf := make([]float64, n)
	r := NewRNG(7)
	for i := range buf {
		buf[i] = r.FastExp(0.004)
	}
	if d := ksDistance(buf, expCDF(0.004)); d > ksThreshold(n) {
		t.Errorf("FastExp(0.004) KS distance %.4f above %.4f", d, ksThreshold(n))
	}
}

func TestFastLogNormalKS(t *testing.T) {
	const n = 20000
	mu, sigma := -0.5, 0.8
	buf := make([]float64, n)
	r := NewRNG(11)
	for i := range buf {
		buf[i] = r.FastLogNormal(mu, sigma)
	}
	phi := normCDF(mu, sigma)
	cdf := func(x float64) float64 {
		if x <= 0 {
			return 0
		}
		return phi(math.Log(x))
	}
	if d := ksDistance(buf, cdf); d > ksThreshold(n) {
		t.Errorf("FastLogNormal KS distance %.4f above %.4f", d, ksThreshold(n))
	}
}

// The normal ziggurat must reproduce the tail, not just the body: count
// exceedances past the base strip cutoff and compare to the analytic
// tail mass (the tail path is the part a table bug would silently
// starve).
func TestFastNormalTailMass(t *testing.T) {
	const n = 2_000_000
	r := NewRNG(3)
	count := 0
	for i := 0; i < n; i++ {
		if math.Abs(r.fastNormUnit()) > zigNormR {
			count++
		}
	}
	want := 2 * (1 - normCDF(0, 1)(zigNormR)) // ~5.7e-4
	got := float64(count) / n
	if got < want/2 || got > want*2 {
		t.Errorf("tail mass beyond %.3f: got %.2e, want ~%.2e", zigNormR, got, want)
	}
}

func TestFillMatchesScalarSequence(t *testing.T) {
	const n = 1000
	a, b := NewRNG(42), NewRNG(42)
	got := make([]float64, n)
	a.FillExp(got, 2.5)
	for i := 0; i < n; i++ {
		if want := b.FastExp(2.5); got[i] != want {
			t.Fatalf("FillExp[%d] = %v, scalar FastExp = %v", i, got[i], want)
		}
	}
	a, b = NewRNG(43), NewRNG(43)
	a.FillNormal(got, 1, 3)
	for i := 0; i < n; i++ {
		if want := b.FastNormal(1, 3); got[i] != want {
			t.Fatalf("FillNormal[%d] = %v, scalar FastNormal = %v", i, got[i], want)
		}
	}
}

func BenchmarkExpReference(b *testing.B) {
	r := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Exp(1)
	}
	_ = sink
}

func BenchmarkExpZiggurat(b *testing.B) {
	r := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.FastExp(1)
	}
	_ = sink
}

func BenchmarkNormalReference(b *testing.B) {
	r := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.Normal(0, 1)
	}
	_ = sink
}

func BenchmarkNormalZiggurat(b *testing.B) {
	r := NewRNG(1)
	var sink float64
	for i := 0; i < b.N; i++ {
		sink += r.FastNormal(0, 1)
	}
	_ = sink
}

// TestSharedNormalsMatchFillExpLogNormal pins the path a knee search
// takes through draws shared across searches: FillExpNormal's unit
// gaps and normals, exponentiated by LogNormalAt, equal both
// FillExpLogNormal filled batch by batch, as the event loop fills it,
// and the scalar FastExp / FastLogNormal sequence, bit for bit. It
// covers 35 seeds, the service CVs the paper's apps span, and lengths
// on both sides of the event loop's 4096-event batch.
func TestSharedNormalsMatchFillExpLogNormal(t *testing.T) {
	const batch = 4096
	for seed := uint64(1); seed <= 35; seed++ {
		for _, n := range []int{batch - 1, batch, batch + 1, 3*batch + 17} {
			unit, norm := make([]float64, n), make([]float64, n)
			NewRNG(seed).FillExpNormal(unit, norm)
			gaps, svc := make([]float64, n), make([]float64, n)
			for _, cv := range []float64{0.6, 0.8, 1, 1.2, 1.5} {
				sigma2 := math.Log(1 + cv*cv)
				mu, sigma := math.Log(0.004)-sigma2/2, math.Sqrt(sigma2)
				r := NewRNG(seed)
				for base := 0; base < n; base += batch {
					end := min(base+batch, n)
					r.FillExpLogNormal(gaps[base:end], 1, svc[base:end], mu, sigma)
				}
				s := NewRNG(seed)
				for i := 0; i < n; i++ {
					wantGap, wantSvc := s.FastExp(1), s.FastLogNormal(mu, sigma)
					got := LogNormalAt(mu, sigma, norm[i])
					if unit[i] != gaps[i] || unit[i] != wantGap || got != svc[i] || got != wantSvc {
						t.Fatalf("seed %d n %d cv %v request %d: shared (%v, %v), FillExpLogNormal (%v, %v), scalar (%v, %v)",
							seed, n, cv, i, unit[i], got, gaps[i], svc[i], wantGap, wantSvc)
					}
				}
			}
		}
	}
}
