package stats

import (
	"math"
	"testing"
)

// TestSummarizeSelectMatchesSummarize is the load-bearing proof for the
// batched queueing kernel: quickselect-derived percentiles must equal
// the sort-derived ones bit for bit, across sizes that exercise every
// interpolation branch (exact ranks, fractional ranks, duplicates).
func TestSummarizeSelectMatchesSummarize(t *testing.T) {
	sizes := []int{1, 2, 3, 7, 19, 20, 21, 99, 100, 101, 1000, 30000}
	for seed := uint64(1); seed <= 35; seed++ {
		r := NewRNG(seed)
		for _, n := range sizes {
			a := make([]float64, n)
			for i := range a {
				a[i] = r.FastLogNormal(-5, 1.5)
			}
			// Duplicates stress the three-way partition.
			if n >= 10 {
				for i := 0; i < n/4; i++ {
					a[i*3%n] = a[0]
				}
			}
			b := append([]float64(nil), a...)
			want := Summarize(a)
			got := SummarizeSelect(b)
			if got != want {
				t.Fatalf("seed %d n %d: SummarizeSelect = %+v, Summarize = %+v", seed, n, got, want)
			}
		}
	}
}

func TestSummarizeSelectAllEqual(t *testing.T) {
	a := []float64{3.5, 3.5, 3.5, 3.5, 3.5}
	b := append([]float64(nil), a...)
	if got, want := SummarizeSelect(a), Summarize(b); got != want {
		t.Fatalf("all-equal: SummarizeSelect = %+v, Summarize = %+v", got, want)
	}
}

func TestSummarizeSelectNaNFallsBackToSummarize(t *testing.T) {
	a := []float64{1, math.NaN(), 3}
	got := SummarizeSelect(a)
	if !math.IsNaN(got.Mean) {
		t.Fatalf("NaN input: mean = %v, want NaN", got.Mean)
	}
}

// selectPs are the percentiles the select tests probe: both clamped
// ends, exact and fractional ranks, and the three Summary fields.
var selectPs = []float64{0, 25, 50, 95, 99, 100}

// checkSelect compares both quickselect entry points against the
// sort-based ones on a copy of a.
func checkSelect(t *testing.T, a []float64) {
	t.Helper()
	if got, want := SummarizeSelect(append([]float64(nil), a...)), Summarize(append([]float64(nil), a...)); got != want {
		t.Fatalf("%v: SummarizeSelect = %+v, Summarize = %+v", a, got, want)
	}
	for _, p := range selectPs {
		if got, want := SelectPercentile(append([]float64(nil), a...), p), Percentile(a, p); got != want {
			t.Fatalf("%v: SelectPercentile(p=%v) = %v, Percentile = %v", a, p, got, want)
		}
	}
}

// TestSummarizeSelectSmallInputs runs every input of length 1, 2 and 3
// over a three-value alphabet, so each percentile's low rank lands on,
// and past, the rank the previous select left in place, with and
// without ties.
func TestSummarizeSelectSmallInputs(t *testing.T) {
	alphabet := []float64{1.5, 2.25, 4}
	for n := 1; n <= 3; n++ {
		a := make([]float64, n)
		combos := 1
		for i := 0; i < n; i++ {
			combos *= len(alphabet)
		}
		for c := 0; c < combos; c++ {
			for i, x := 0, c; i < n; i, x = i+1, x/len(alphabet) {
				a[i] = alphabet[x%len(alphabet)]
			}
			checkSelect(t, a)
		}
	}
}

// TestSummarizeSelectAllTied covers inputs whose values are all equal,
// and inputs that are one tie block below another, at sizes where the
// narrowed selects start on an empty or one-element suffix.
func TestSummarizeSelectAllTied(t *testing.T) {
	for _, n := range []int{1, 2, 3, 4, 20, 21, 100, 101, 1000} {
		a := make([]float64, n)
		for i := range a {
			a[i] = 0.75
		}
		checkSelect(t, a)
		for i := range a {
			if i%2 == 1 {
				a[i] = 3
			}
		}
		checkSelect(t, a)
	}
}

// TestSelectPercentileMatchesPercentile pins the single-percentile
// select against the sort across seeds and sizes.
func TestSelectPercentileMatchesPercentile(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		r := NewRNG(seed)
		for _, n := range []int{5, 99, 100, 101, 30000} {
			a := make([]float64, n)
			for i := range a {
				a[i] = r.FastLogNormal(-5, 1.5)
			}
			for _, p := range selectPs {
				if got, want := SelectPercentile(append([]float64(nil), a...), p), Percentile(a, p); got != want {
					t.Fatalf("seed %d n %d p %v: SelectPercentile = %v, Percentile = %v", seed, n, p, got, want)
				}
			}
		}
	}
	if got := SelectPercentile(nil, 95); !math.IsNaN(got) {
		t.Fatalf("empty input: got %v, want NaN", got)
	}
	withNaN := []float64{1, math.NaN(), 3}
	if got, want := SelectPercentile(append([]float64(nil), withNaN...), 95), Percentile(withNaN, 95); got != want {
		t.Fatalf("NaN input: got %v, want the sort-based %v", got, want)
	}
}

func TestSelectRankIsOrderStatistic(t *testing.T) {
	r := NewRNG(7)
	const n = 257
	for trial := 0; trial < 20; trial++ {
		a := make([]float64, n)
		for i := range a {
			a[i] = r.Float64()
		}
		k := int(r.Uint64() % n)
		v := selectRank(a, k)
		if a[k] != v {
			t.Fatalf("selectRank left a[%d] = %v, returned %v", k, a[k], v)
		}
		for i := 0; i < k; i++ {
			if a[i] > v {
				t.Fatalf("a[%d] = %v > a[%d] = %v after selectRank", i, a[i], k, v)
			}
		}
		for i := k + 1; i < n; i++ {
			if a[i] < v {
				t.Fatalf("a[%d] = %v < a[%d] = %v after selectRank", i, a[i], k, v)
			}
		}
	}
}

// Satellite coverage: Summary/SortedPercentile edge cases pinned before
// the batched loop reuses them on whole vectors.

func TestSummarizeEmpty(t *testing.T) {
	for _, got := range []Summary{Summarize(nil), SummarizeSelect(nil)} {
		if !math.IsNaN(got.P50) || !math.IsNaN(got.P95) || !math.IsNaN(got.P99) || !math.IsNaN(got.Mean) {
			t.Fatalf("empty input: got %+v, want all NaN", got)
		}
	}
	if !math.IsNaN(SortedPercentile(nil, 50)) {
		t.Fatal("SortedPercentile(nil) should be NaN")
	}
}

func TestSummarizeSingleSample(t *testing.T) {
	want := Summary{P50: 7.25, P95: 7.25, P99: 7.25, Mean: 7.25}
	if got := Summarize([]float64{7.25}); got != want {
		t.Fatalf("Summarize single: got %+v, want %+v", got, want)
	}
	if got := SummarizeSelect([]float64{7.25}); got != want {
		t.Fatalf("SummarizeSelect single: got %+v, want %+v", got, want)
	}
}

func TestSortedPercentileEndpoints(t *testing.T) {
	sorted := []float64{1, 2, 3, 4, 5}
	cases := []struct {
		p    float64
		want float64
	}{
		{-10, 1}, {0, 1}, {100, 5}, {150, 5},
		{50, 3}, {25, 2}, {100 * 0.125, 1.5},
	}
	for _, c := range cases {
		if got := SortedPercentile(sorted, c.p); got != c.want {
			t.Errorf("SortedPercentile(p=%v) = %v, want %v", c.p, got, c.want)
		}
	}
	one := []float64{9}
	for _, p := range []float64{0, 37.2, 100} {
		if got := SortedPercentile(one, p); got != 9 {
			t.Errorf("single sample p=%v: got %v, want 9", p, got)
		}
	}
}

func TestPairFillsMatchScalarSequence(t *testing.T) {
	const n = 4096
	gaps := make([]float64, n)
	svc := make([]float64, n)
	a, b := NewRNG(42), NewRNG(42)
	a.FillExpLogNormal(gaps, 2.5, svc, -5, 1.5)
	for i := 0; i < n; i++ {
		wg := b.FastExp(2.5)
		ws := b.FastLogNormal(-5, 1.5)
		if gaps[i] != wg || svc[i] != ws {
			t.Fatalf("FillExpLogNormal[%d] = (%v, %v), scalar = (%v, %v)", i, gaps[i], svc[i], wg, ws)
		}
	}
	a, b = NewRNG(43), NewRNG(43)
	a.FillExpExp(gaps, 2.5, svc, 0.004)
	for i := 0; i < n; i++ {
		wg := b.FastExp(2.5)
		ws := b.FastExp(0.004)
		if gaps[i] != wg || svc[i] != ws {
			t.Fatalf("FillExpExp[%d] = (%v, %v), scalar = (%v, %v)", i, gaps[i], svc[i], wg, ws)
		}
	}
}

func BenchmarkSummarize30k(b *testing.B) {
	r := NewRNG(1)
	base := make([]float64, 30000)
	for i := range base {
		base[i] = r.FastLogNormal(-5, 1.5)
	}
	buf := make([]float64, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		Summarize(buf)
	}
}

func BenchmarkSummarizeSelect30k(b *testing.B) {
	r := NewRNG(1)
	base := make([]float64, 30000)
	for i := range base {
		base[i] = r.FastLogNormal(-5, 1.5)
	}
	buf := make([]float64, len(base))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(buf, base)
		SummarizeSelect(buf)
	}
}
