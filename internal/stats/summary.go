package stats

import (
	"math"
	"sort"
)

// Percentile returns the p-th percentile (0 <= p <= 100) of values using
// linear interpolation between closest ranks. It returns NaN for an
// empty input. The input is copied and sorted per call; callers reading
// several percentiles from one buffer should sort once and use
// SortedPercentile (or Summarize).
func Percentile(values []float64, p float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	return SortedPercentile(s, p)
}

// SortedPercentile returns the p-th percentile of an already-sorted
// slice, with the same closest-rank interpolation as Percentile. It
// returns NaN for an empty input.
func SortedPercentile(sorted []float64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	rank := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(rank))
	hi := int(math.Ceil(rank))
	if lo == hi {
		return sorted[lo]
	}
	frac := rank - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// Summary holds the order statistics the queueing simulator reports,
// derived from one sort (Summarize) or from quickselects
// (SummarizeSelect) of the sample buffer, bit-identical either way.
type Summary struct {
	P50  float64
	P95  float64
	P99  float64
	Mean float64
}

// Summarize computes a Summary from one sort of values, in place: the
// mean is accumulated in the buffer's original order first (so it is
// bit-identical to a pre-sort Mean call), then values is sorted and the
// percentiles are read from the one sorted buffer. The zero-copy,
// single-sort contract is what lets the simulator pool its latency
// buffer across runs. Callers that need the original order must read it
// before calling. Empty input yields all-NaN.
func Summarize(values []float64) Summary {
	if len(values) == 0 {
		n := math.NaN()
		return Summary{P50: n, P95: n, P99: n, Mean: n}
	}
	m := Mean(values)
	sort.Float64s(values)
	return Summary{
		P50:  SortedPercentile(values, 50),
		P95:  SortedPercentile(values, 95),
		P99:  SortedPercentile(values, 99),
		Mean: m,
	}
}

// Mean returns the arithmetic mean, or NaN for empty input.
func Mean(values []float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	var sum float64
	for _, v := range values {
		sum += v
	}
	return sum / float64(len(values))
}

// Median returns the 50th percentile.
func Median(values []float64) float64 { return Percentile(values, 50) }

// StdDev returns the sample standard deviation (n-1 denominator), or 0
// for fewer than two values.
func StdDev(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	m := Mean(values)
	var ss float64
	for _, v := range values {
		d := v - m
		ss += d * d
	}
	return math.Sqrt(ss / float64(len(values)-1))
}

// ConfidenceInterval99 returns the half-width of a 99% confidence
// interval on the mean, using the normal approximation (z = 2.576),
// matching the paper's "three trials, 99% confidence intervals" report.
func ConfidenceInterval99(values []float64) float64 {
	if len(values) < 2 {
		return 0
	}
	return 2.576 * StdDev(values) / math.Sqrt(float64(len(values)))
}

// CDFPoint is one point of an empirical CDF.
type CDFPoint struct {
	Value    float64
	Fraction float64 // fraction of samples <= Value, in (0, 1]
}

// CDF returns the empirical CDF of values, sorted ascending.
func CDF(values []float64) []CDFPoint {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	pts := make([]CDFPoint, len(s))
	for i, v := range s {
		pts[i] = CDFPoint{Value: v, Fraction: float64(i+1) / float64(len(s))}
	}
	return pts
}

// CDFAt evaluates an empirical CDF at x: the fraction of samples <= x.
func CDFAt(values []float64, x float64) float64 {
	if len(values) == 0 {
		return math.NaN()
	}
	n := 0
	for _, v := range values {
		if v <= x {
			n++
		}
	}
	return float64(n) / float64(len(values))
}

// MovingAverage returns the centred moving average of values with the
// given window size; edges use the available partial window. This is the
// smoothing used for the Fig. 2 failure-rate curve.
func MovingAverage(values []float64, window int) []float64 {
	if window < 1 {
		window = 1
	}
	out := make([]float64, len(values))
	half := window / 2
	for i := range values {
		lo := i - half
		if lo < 0 {
			lo = 0
		}
		hi := i + half
		if hi >= len(values) {
			hi = len(values) - 1
		}
		out[i] = Mean(values[lo : hi+1])
	}
	return out
}
