// Package gridci models time-varying grid carbon intensity and
// carbon-aware temporal scheduling on top of it.
//
// The paper evaluates GreenSKU designs at fixed carbon-intensity
// points; real grids swing diurnally (solar ramps) and seasonally
// (heating/hydro). This package supplies the missing axis:
//
//   - Signal: a piecewise-linear carbon-intensity timeseries with
//     interpolation, optional periodicity (24h diurnal, 8760h
//     seasonal), exact trapezoidal integration, and time-windowed
//     statistics (mean, peak, trough, fraction-below, percentiles).
//   - Synthetic diurnal/seasonal generators anchored to the paper's
//     per-region annotations (carbondata.RegionCI).
//   - A carbon-aware scheduler over trace/alloc: delay-tolerant VMs
//     shift their start inside a slack deadline toward low-CI windows,
//     and may suspend under CI peaks; SLO pressure from the re-timed
//     demand is accounted through the queueing kernel's knee.
//
// Everything here is deterministic, and every transformation collapses
// exactly to the scalar-CI world when the signal is constant: MeanCI of
// a constant signal returns the constant bit-for-bit, and the scheduler
// leaves a trace untouched (proven by the differential suite).
package gridci

import (
	"fmt"
	"math"
	"sort"

	"github.com/greensku/gsf/internal/units"
)

// Sample is one carbon-intensity observation at a point in time.
type Sample struct {
	T  units.Hours           // hours since the signal's epoch
	CI units.CarbonIntensity // kgCO2e/kWh at T
}

// Signal is a piecewise-linear carbon-intensity timeseries.
//
// A zero Period makes the signal aperiodic: it clamps to the first and
// last sample values outside the sampled range. A positive Period wraps
// it: samples must lie in [0, Period), and the last segment
// interpolates across the seam back to the first sample.
type Signal struct {
	Name    string
	Samples []Sample
	Period  units.Hours
}

// Validate checks signal invariants: at least one sample, finite
// non-negative intensities, strictly increasing timestamps, and — for
// periodic signals — all samples inside [0, Period).
func (s *Signal) Validate() error {
	if s == nil || len(s.Samples) == 0 {
		return fmt.Errorf("gridci: signal %q has no samples", s.name())
	}
	if math.IsNaN(float64(s.Period)) || math.IsInf(float64(s.Period), 0) || s.Period < 0 {
		return fmt.Errorf("gridci: signal %q has invalid period %v", s.Name, float64(s.Period))
	}
	prev := math.Inf(-1)
	for i, smp := range s.Samples {
		t, ci := float64(smp.T), float64(smp.CI)
		if math.IsNaN(t) || math.IsInf(t, 0) || math.IsNaN(ci) || math.IsInf(ci, 0) {
			return fmt.Errorf("gridci: signal %q sample %d is non-finite", s.Name, i)
		}
		if ci < 0 {
			return fmt.Errorf("gridci: signal %q sample %d has negative intensity %v", s.Name, i, ci)
		}
		if t <= prev {
			return fmt.Errorf("gridci: signal %q timestamps not strictly increasing at sample %d", s.Name, i)
		}
		if s.Period > 0 && (t < 0 || t >= float64(s.Period)) {
			return fmt.Errorf("gridci: signal %q sample %d at t=%v outside period [0,%v)",
				s.Name, i, t, float64(s.Period))
		}
		prev = t
	}
	return nil
}

func (s *Signal) name() string {
	if s == nil {
		return "<nil>"
	}
	return s.Name
}

// IsConstant reports whether every sample carries the same intensity.
// Constant signals take exact fast paths through MeanCI and Integral,
// which is what makes the constant-signal differential bit-identical.
func (s *Signal) IsConstant() bool {
	for _, smp := range s.Samples[1:] {
		if smp.CI != s.Samples[0].CI {
			return false
		}
	}
	return true
}

// At returns the interpolated carbon intensity at time t.
func (s *Signal) At(t units.Hours) units.CarbonIntensity {
	n := len(s.Samples)
	if n == 1 || s.IsConstant() {
		return s.Samples[0].CI
	}
	x := float64(t)
	if s.Period > 0 {
		p := float64(s.Period)
		x = math.Mod(x, p)
		if x < 0 {
			x += p
		}
		first, last := s.Samples[0], s.Samples[n-1]
		if x < float64(first.T) {
			// Seam segment approached from the left of the first sample.
			return lerp(x, float64(last.T)-p, float64(last.CI), float64(first.T), float64(first.CI))
		}
		if x >= float64(last.T) {
			return lerp(x, float64(last.T), float64(last.CI), float64(first.T)+p, float64(first.CI))
		}
	} else {
		if x <= float64(s.Samples[0].T) {
			return s.Samples[0].CI
		}
		if x >= float64(s.Samples[n-1].T) {
			return s.Samples[n-1].CI
		}
	}
	// Invariant here: Samples[i].T <= x < Samples[i+1].T for some i.
	i := sort.Search(n, func(i int) bool { return float64(s.Samples[i].T) > x }) - 1
	a, b := s.Samples[i], s.Samples[i+1]
	return lerp(x, float64(a.T), float64(a.CI), float64(b.T), float64(b.CI))
}

func lerp(x, x0, y0, x1, y1 float64) units.CarbonIntensity {
	if x1 == x0 {
		return units.CarbonIntensity(y0)
	}
	return units.CarbonIntensity(y0 + (y1-y0)*(x-x0)/(x1-x0))
}

// knots returns the ordered breakpoint times of the signal inside
// (t0, t1), endpoints excluded: the points where the piecewise-linear
// interpolant changes slope. The window must satisfy t0 <= t1; periodic
// callers bound it to at most one period plus slack before calling.
func (s *Signal) knots(t0, t1 float64) []float64 {
	var ks []float64
	if s.Period > 0 {
		p := float64(s.Period)
		// Sample i repeats at T[i] + k*P; collect repeats inside the window.
		for _, smp := range s.Samples {
			base := float64(smp.T)
			k := math.Floor((t0 - base) / p)
			for t := base + k*p; t < t1; t += p {
				if t > t0 {
					ks = append(ks, t)
				}
			}
		}
	} else {
		for _, smp := range s.Samples {
			if t := float64(smp.T); t > t0 && t < t1 {
				ks = append(ks, t)
			}
		}
	}
	sort.Float64s(ks)
	return ks
}

// eachSegment invokes fn for every linear piece of the signal covering
// [t0, t1], in order, with the piece's duration and endpoint
// intensities. The interpolant is exactly linear inside each piece, so
// trapezoid sums over the pieces are exact.
func (s *Signal) eachSegment(t0, t1 float64, fn func(dt, c0, c1 float64)) {
	if t1 <= t0 {
		return
	}
	prevT := t0
	prevC := float64(s.At(units.Hours(t0)))
	for _, t := range s.knots(t0, t1) {
		c := float64(s.At(units.Hours(t)))
		fn(t-prevT, prevC, c)
		prevT, prevC = t, c
	}
	fn(t1-prevT, prevC, float64(s.At(units.Hours(t1))))
}

// periodSpans splits a window into whole signal periods plus a
// remainder, so O(window/period) statistics reduce to O(1) periods.
// For aperiodic signals it returns zero whole periods.
func (s *Signal) periodSpans(t0, t1 float64) (whole float64, remT0, remT1 float64) {
	if s.Period <= 0 {
		return 0, t0, t1
	}
	p := float64(s.Period)
	if t1-t0 < p {
		return 0, t0, t1
	}
	whole = math.Floor((t1 - t0) / p)
	return whole, t0, t1 - whole*p
}

// Integral returns the exact time integral of carbon intensity over
// [t0, t1], in (kgCO2e/kWh)·h: multiply by a constant power draw in kW
// to get emitted kgCO2e. Constant signals use the closed form, so a
// constant c integrates to exactly c*(t1-t0).
func (s *Signal) Integral(t0, t1 units.Hours) float64 {
	a, b := float64(t0), float64(t1)
	if b <= a {
		return 0
	}
	if s.IsConstant() {
		return float64(s.Samples[0].CI) * (b - a)
	}
	whole, ra, rb := s.periodSpans(a, b)
	sum := 0.0
	if whole > 0 {
		perPeriod := 0.0
		s.eachSegment(0, float64(s.Period), func(dt, c0, c1 float64) {
			perPeriod += dt * (c0 + c1) / 2
		})
		sum += whole * perPeriod
	}
	s.eachSegment(ra, rb, func(dt, c0, c1 float64) {
		sum += dt * (c0 + c1) / 2
	})
	return sum
}

// MeanCI returns the time-averaged carbon intensity over [t0, t1]. A
// constant signal returns its constant bit-for-bit — the property the
// constant-signal differential suite relies on. An empty window returns
// the instantaneous value at t0.
func (s *Signal) MeanCI(t0, t1 units.Hours) units.CarbonIntensity {
	if s.IsConstant() {
		return s.Samples[0].CI
	}
	if t1 <= t0 {
		return s.At(t0)
	}
	return units.CarbonIntensity(s.Integral(t0, t1) / float64(t1-t0))
}

// WindowStats are time-windowed signal statistics.
type WindowStats struct {
	Mean   units.CarbonIntensity
	Peak   units.CarbonIntensity
	Trough units.CarbonIntensity
}

// Stats computes mean, peak, and trough intensity over [t0, t1]. The
// interpolant is linear between knots, so extremes occur at segment
// endpoints. A time average lies inside that range, so the mean is
// clamped to it: on a window only a few subnormals wide the integral
// underflows, and the quotient would otherwise fall below the trough.
func (s *Signal) Stats(t0, t1 units.Hours) WindowStats {
	ws := WindowStats{Mean: s.MeanCI(t0, t1)}
	a, b := float64(t0), float64(t1)
	if b <= a {
		ci := s.At(t0)
		return WindowStats{Mean: ci, Peak: ci, Trough: ci}
	}
	// A window covering a whole period sees the full range; cap the
	// scan at one period.
	if s.Period > 0 && b-a > float64(s.Period) {
		b = a + float64(s.Period)
	}
	ws.Peak = units.CarbonIntensity(math.Inf(-1))
	ws.Trough = units.CarbonIntensity(math.Inf(1))
	s.eachSegment(a, b, func(_, c0, c1 float64) {
		ws.Peak = units.CarbonIntensity(math.Max(float64(ws.Peak), math.Max(c0, c1)))
		ws.Trough = units.CarbonIntensity(math.Min(float64(ws.Trough), math.Min(c0, c1)))
	})
	ws.Mean = min(max(ws.Mean, ws.Trough), ws.Peak)
	return ws
}

// FracBelow returns the fraction of the window [t0, t1] whose carbon
// intensity is at or below x — the "percentile-below" statistic. The
// crossing points inside each linear segment are solved exactly.
func (s *Signal) FracBelow(x units.CarbonIntensity, t0, t1 units.Hours) float64 {
	a, b := float64(t0), float64(t1)
	if b <= a {
		if s.At(t0) <= x {
			return 1
		}
		return 0
	}
	below := func(wa, wb float64) float64 {
		t := 0.0
		s.eachSegment(wa, wb, func(dt, c0, c1 float64) {
			t += timeBelow(float64(x), dt, c0, c1)
		})
		return t
	}
	whole, ra, rb := s.periodSpans(a, b)
	total := below(ra, rb)
	if whole > 0 {
		total += whole * below(0, float64(s.Period))
	}
	return total / (b - a)
}

// timeBelow returns how long a linear segment of duration dt running
// from c0 to c1 spends at or below x.
func timeBelow(x, dt, c0, c1 float64) float64 {
	if c0 <= x && c1 <= x {
		return dt
	}
	if c0 > x && c1 > x {
		return 0
	}
	// Exactly one endpoint is below: the segment crosses x once.
	cross := dt * (x - c0) / (c1 - c0)
	if c0 <= x {
		return cross
	}
	return dt - cross
}

// Percentile inverts FracBelow: it returns the intensity x such that
// the window spends fraction p of its time at or below x. p is clamped
// to [0, 1]; the answer is bracketed by the window's trough and peak
// and located by bisection to ~1e-12 of the range.
func (s *Signal) Percentile(p float64, t0, t1 units.Hours) units.CarbonIntensity {
	st := s.Stats(t0, t1)
	lo, hi := float64(st.Trough), float64(st.Peak)
	if p <= 0 || lo == hi {
		return st.Trough
	}
	if p >= 1 {
		return st.Peak
	}
	for i := 0; i < 60 && hi-lo > 1e-12*(1+math.Abs(hi)); i++ {
		mid := lo + (hi-lo)/2
		if s.FracBelow(units.CarbonIntensity(mid), t0, t1) >= p {
			hi = mid
		} else {
			lo = mid
		}
	}
	return units.CarbonIntensity(hi)
}

// Scale returns a copy of the signal with every intensity multiplied by
// alpha (alpha >= 0). Integration is linear in this scaling — the
// metamorphic property the carbon suite checks.
func (s *Signal) Scale(alpha float64) *Signal {
	out := &Signal{Name: s.Name, Period: s.Period, Samples: make([]Sample, len(s.Samples))}
	for i, smp := range s.Samples {
		out.Samples[i] = Sample{T: smp.T, CI: units.CarbonIntensity(float64(smp.CI) * alpha)}
	}
	return out
}

// Constant returns a single-sample signal pinned at ci, the bridge
// between the scalar-CI world and this package.
func Constant(name string, ci units.CarbonIntensity) *Signal {
	return &Signal{Name: name, Samples: []Sample{{T: 0, CI: ci}}}
}
