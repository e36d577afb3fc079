package stats

import (
	"math"
	"sort"
)

// SummarizeSelect computes the same Summary as Summarize — bit-identical
// values — without fully sorting the buffer. Each percentile is an
// interpolation between two exact order statistics, and a quickselect
// produces exactly the same order statistics as a full sort, so the
// interpolated results match Summarize bit for bit (proven by the
// differential test in this package). The mean is accumulated in the
// buffer's original order first, exactly as Summarize does.
//
// Like Summarize, the buffer is reordered in place (partially
// partitioned rather than sorted); callers that need the original
// order must read it before calling. Empty input yields all-NaN.
// Inputs containing NaN fall back to the sort-based Summarize so the
// two functions agree on every input.
func SummarizeSelect(values []float64) Summary {
	if len(values) == 0 {
		n := math.NaN()
		return Summary{P50: n, P95: n, P99: n, Mean: n}
	}
	m := Mean(values)
	if math.IsNaN(m) {
		// A NaN anywhere poisons the mean; partitioning comparisons
		// would be unreliable, so defer to the sorting path.
		sort.Float64s(values)
		return Summary{
			P50:  SortedPercentile(values, 50),
			P95:  SortedPercentile(values, 95),
			P99:  SortedPercentile(values, 99),
			Mean: m,
		}
	}
	// Each select runs on the suffix past the previous percentile's
	// low rank: selectRank left everything before that rank <= it and
	// everything after >= it, so the suffix holds exactly the higher
	// order statistics.
	p50, done := selectPercentile(values, -1, 50)
	p95, done := selectPercentile(values, done, 95)
	p99, _ := selectPercentile(values, done, 99)
	return Summary{P50: p50, P95: p95, P99: p99, Mean: m}
}

// SelectPercentile returns the p-th percentile of values, bit-identical
// to Percentile and to the matching SummarizeSelect field, by one
// quickselect instead of a sort. The buffer is partially reordered in
// place. Callers that need a single percentile of a large buffer (the
// queueing knee search's P95) use it to skip the other two selects.
func SelectPercentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	if math.IsNaN(Mean(values)) {
		// The same NaN guard as SummarizeSelect, so the two agree.
		sort.Float64s(values)
		return SortedPercentile(values, p)
	}
	v, _ := selectPercentile(values, -1, p)
	return v
}

// selectPercentile returns the p-th percentile of values using the same
// closest-rank interpolation as SortedPercentile, obtaining the two
// bracketing order statistics by quickselect instead of a sort. The
// slice is partially reordered in place. done is a rank an earlier call
// already selected (values[done] is that order statistic, with
// everything before it <= and everything after it >=), or -1; p's low
// rank must not be below it. The returned rank is p's low rank, now
// selected in the same sense, for the next call's done.
func selectPercentile(values []float64, done int, p float64) (float64, int) {
	n := len(values)
	rank := p / 100 * float64(n-1)
	if p <= 0 {
		rank = 0
	} else if p >= 100 {
		rank = float64(n - 1)
	}
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	vlo := values[lo]
	if lo != done {
		vlo = selectRank(values[done+1:], lo-done-1)
	}
	if lo == hi {
		return vlo, lo
	}
	// selectRank leaves values[lo+1:] all >= vlo, so the hi-rank order
	// statistic is that suffix's minimum.
	vhi := values[lo+1]
	for _, v := range values[lo+2:] {
		if v < vhi {
			vhi = v
		}
	}
	frac := rank - float64(lo)
	return vlo*(1-frac) + vhi*frac, lo
}

// selectRank partitions a in place so that a[k] holds its k-th order
// statistic, everything before it is <= a[k], and everything after is
// >= a[k], then returns a[k]. Deterministic median-of-three pivoting;
// expected O(n). Inputs must be NaN-free.
func selectRank(a []float64, k int) float64 {
	lo, hi := 0, len(a)-1
	for lo < hi {
		mid := lo + (hi-lo)/2
		if a[mid] < a[lo] {
			a[mid], a[lo] = a[lo], a[mid]
		}
		if a[hi] < a[lo] {
			a[hi], a[lo] = a[lo], a[hi]
		}
		if a[hi] < a[mid] {
			a[hi], a[mid] = a[mid], a[hi]
		}
		p := a[mid]
		i, j := lo, hi
		for i <= j {
			for a[i] < p {
				i++
			}
			for a[j] > p {
				j--
			}
			if i <= j {
				a[i], a[j] = a[j], a[i]
				i++
				j--
			}
		}
		if k <= j {
			hi = j
		} else if k >= i {
			lo = i
		} else {
			return a[k]
		}
	}
	return a[k]
}
