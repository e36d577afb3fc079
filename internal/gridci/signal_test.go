package gridci

import (
	"math"
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/units"
)

func mustValid(t *testing.T, s *Signal) {
	t.Helper()
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

// sawtooth is an aperiodic two-segment test signal: 0.1 at t=0, 0.3 at
// t=10, 0.1 at t=20; clamped outside.
func sawtooth() *Signal {
	return &Signal{Name: "saw", Samples: []Sample{
		{T: 0, CI: 0.1}, {T: 10, CI: 0.3}, {T: 20, CI: 0.1},
	}}
}

func TestValidateRejections(t *testing.T) {
	cases := map[string]*Signal{
		"nil":        nil,
		"empty":      {Name: "e"},
		"nan-ci":     {Samples: []Sample{{T: 0, CI: units.CarbonIntensity(math.NaN())}}},
		"inf-t":      {Samples: []Sample{{T: units.Hours(math.Inf(1)), CI: 0.1}}},
		"negative":   {Samples: []Sample{{T: 0, CI: -0.1}}},
		"unsorted":   {Samples: []Sample{{T: 5, CI: 0.1}, {T: 2, CI: 0.2}}},
		"duplicate":  {Samples: []Sample{{T: 5, CI: 0.1}, {T: 5, CI: 0.2}}},
		"past-per":   {Period: 24, Samples: []Sample{{T: 25, CI: 0.1}}},
		"neg-t-per":  {Period: 24, Samples: []Sample{{T: -1, CI: 0.1}}},
		"nan-period": {Period: units.Hours(math.NaN()), Samples: []Sample{{T: 0, CI: 0.1}}},
	}
	for name, s := range cases {
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted an invalid signal", name)
		}
	}
}

func TestAtInterpolatesAndClamps(t *testing.T) {
	s := sawtooth()
	mustValid(t, s)
	for _, c := range []struct{ t, want float64 }{
		{-5, 0.1}, {0, 0.1}, {5, 0.2}, {10, 0.3}, {15, 0.2}, {20, 0.1}, {100, 0.1},
	} {
		if got := float64(s.At(units.Hours(c.t))); !audit.Close(got, c.want, 1e-12) {
			t.Errorf("At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestAtPeriodicWrapsAcrossSeam(t *testing.T) {
	// Periodic over 24h with samples at 6 and 18: the seam segment
	// interpolates 18h..30h (= 6h next day).
	s := &Signal{Name: "per", Period: 24, Samples: []Sample{
		{T: 6, CI: 0.1}, {T: 18, CI: 0.3},
	}}
	mustValid(t, s)
	for _, c := range []struct{ t, want float64 }{
		{6, 0.1}, {12, 0.2}, {18, 0.3}, {24 + 6, 0.1}, {0, 0.2}, {24, 0.2}, {-6, 0.3},
	} {
		if got := float64(s.At(units.Hours(c.t))); !audit.Close(got, c.want, 1e-12) {
			t.Errorf("At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
}

func TestIntegralExactOnTrapezoids(t *testing.T) {
	s := sawtooth()
	// Whole span: two trapezoids, 10*(0.1+0.3)/2 each.
	if got := s.Integral(0, 20); !audit.Close(got, 4.0, 1e-12) {
		t.Errorf("Integral(0,20) = %g, want 4", got)
	}
	// Clamped tails are flat.
	if got := s.Integral(-10, 0); !audit.Close(got, 1.0, 1e-12) {
		t.Errorf("Integral(-10,0) = %g, want 1", got)
	}
	// Sub-segment window.
	if got := s.Integral(0, 5); !audit.Close(got, 5*(0.1+0.2)/2, 1e-12) {
		t.Errorf("Integral(0,5) = %g", got)
	}
	if got := s.Integral(5, 5); got != 0 {
		t.Errorf("empty window integral = %g", got)
	}
}

func TestIntegralPeriodicMatchesBruteForce(t *testing.T) {
	s := Diurnal(DiurnalOptions{Name: "d", Mean: 0.1, Swing: 0.6})
	mustValid(t, s)
	// Riemann-sum cross-check over an awkward, multi-period window.
	t0, t1 := 3.7, 3.7+24*7+5.3
	steps := 2_000_000
	dt := (t1 - t0) / float64(steps)
	sum := 0.0
	for i := 0; i < steps; i++ {
		sum += float64(s.At(units.Hours(t0+(float64(i)+0.5)*dt))) * dt
	}
	got := s.Integral(units.Hours(t0), units.Hours(t1))
	if !audit.Close(got, sum, 1e-6) {
		t.Errorf("periodic integral %g vs brute force %g", got, sum)
	}
	// Many whole periods must integrate to periods * one-period integral.
	one := s.Integral(0, 24)
	if got := s.Integral(0, 24*365); !audit.Close(got, 365*one, 1e-9) {
		t.Errorf("year integral %g, want %g", got, 365*one)
	}
}

func TestConstantFastPathsAreBitExact(t *testing.T) {
	const ci = units.CarbonIntensity(0.123456789)
	s := Constant("c", ci)
	mustValid(t, s)
	if !s.IsConstant() {
		t.Fatal("Constant signal not IsConstant")
	}
	// Bit-exactness (==, not Close) is the contract the differential
	// suite builds on.
	if got := s.MeanCI(17.3, 9000.1); got != ci {
		t.Errorf("MeanCI = %v, want exactly %v", got, ci)
	}
	if got := s.At(12345.6); got != ci {
		t.Errorf("At = %v, want exactly %v", got, ci)
	}
	if got := s.Integral(0, 10); !audit.Close(got, float64(ci)*10, 1e-15) {
		t.Errorf("Integral = %g", got)
	}
	// Multi-sample constant signals take the same fast path.
	multi := &Signal{Name: "c3", Samples: []Sample{{T: 0, CI: ci}, {T: 5, CI: ci}, {T: 9, CI: ci}}}
	mustValid(t, multi)
	if got := multi.MeanCI(2, 7); got != ci {
		t.Errorf("multi-sample constant MeanCI = %v, want exactly %v", got, ci)
	}
}

func TestStatsAndFracBelow(t *testing.T) {
	s := sawtooth()
	st := s.Stats(0, 20)
	if !audit.Close(float64(st.Peak), 0.3, 1e-12) || !audit.Close(float64(st.Trough), 0.1, 1e-12) {
		t.Errorf("stats = %+v", st)
	}
	if !audit.Close(float64(st.Mean), 0.2, 1e-12) {
		t.Errorf("mean = %v, want 0.2", st.Mean)
	}
	// The sawtooth spends half its time at or below 0.2.
	if got := s.FracBelow(0.2, 0, 20); !audit.Close(got, 0.5, 1e-12) {
		t.Errorf("FracBelow(0.2) = %g, want 0.5", got)
	}
	if got := s.FracBelow(0.05, 0, 20); got != 0 {
		t.Errorf("FracBelow(0.05) = %g, want 0", got)
	}
	if got := s.FracBelow(0.3, 0, 20); !audit.Close(got, 1, 1e-12) {
		t.Errorf("FracBelow(0.3) = %g, want 1", got)
	}
	// Percentile inverts FracBelow.
	if got := float64(s.Percentile(0.5, 0, 20)); !audit.Close(got, 0.2, 1e-6) {
		t.Errorf("Percentile(0.5) = %g, want 0.2", got)
	}
	if got := float64(s.Percentile(0, 0, 20)); !audit.Close(got, 0.1, 1e-9) {
		t.Errorf("Percentile(0) = %g, want trough", got)
	}
	if got := float64(s.Percentile(1, 0, 20)); !audit.Close(got, 0.3, 1e-9) {
		t.Errorf("Percentile(1) = %g, want peak", got)
	}
}

// TestStatsMeanInsideRangeOnSubnormalWindow covers a window one
// subnormal wide: its integral underflows to zero, and the mean must
// still lie between the trough and the peak.
func TestStatsMeanInsideRangeOnSubnormalWindow(t *testing.T) {
	s := &Signal{Name: "tiny", Samples: []Sample{{T: 0, CI: 0.1}, {T: 5e-324, CI: 0.2}}}
	mustValid(t, s)
	st := s.Stats(0, 5e-324)
	if st.Trough != 0.1 || st.Peak != 0.2 {
		t.Fatalf("stats = %+v, want trough 0.1 and peak 0.2", st)
	}
	if st.Mean < st.Trough || st.Mean > st.Peak {
		t.Fatalf("mean %v outside [%v, %v]", st.Mean, st.Trough, st.Peak)
	}
}

func TestDiurnalMeanAndPeriod(t *testing.T) {
	s := Diurnal(DiurnalOptions{Name: "d", Mean: 0.1, Swing: 0.6})
	mustValid(t, s)
	if s.Period != units.HoursPerDay {
		t.Fatalf("period = %v", s.Period)
	}
	// The sampled sinusoid's time average over one period equals the
	// configured mean (even sample count symmetry).
	if got := float64(s.MeanCI(0, 24)); !audit.Close(got, 0.1, 1e-9) {
		t.Errorf("diurnal mean = %g, want 0.1", got)
	}
	st := s.Stats(0, 24)
	if float64(st.Trough) >= 0.1 || float64(st.Peak) <= 0.1 {
		t.Errorf("diurnal range [%v, %v] does not straddle the mean", st.Trough, st.Peak)
	}
	if float64(st.Trough) < 0 {
		t.Errorf("diurnal trough negative: %v", st.Trough)
	}
}

func TestSeasonalEnvelope(t *testing.T) {
	s := Seasonal(SeasonalOptions{
		Diurnal:       DiurnalOptions{Name: "s", Mean: 0.1, Swing: 0.3},
		SeasonalSwing: 0.4,
	})
	mustValid(t, s)
	if s.Period != units.HoursPerYear {
		t.Fatalf("period = %v", s.Period)
	}
	// Winter (t=0) runs dirtier than summer (t=4380).
	winter := s.MeanCI(0, 24)
	summer := s.MeanCI(4380, 4380+24)
	if winter <= summer {
		t.Errorf("winter mean %v <= summer mean %v", winter, summer)
	}
}

func TestScaleLinearity(t *testing.T) {
	s := Diurnal(DiurnalOptions{Name: "d", Mean: 0.2, Swing: 0.5})
	s2 := s.Scale(3)
	mustValid(t, s2)
	for _, w := range [][2]float64{{0, 24}, {5.5, 100.25}, {-3, 7}} {
		a := s.Integral(units.Hours(w[0]), units.Hours(w[1]))
		b := s2.Integral(units.Hours(w[0]), units.Hours(w[1]))
		if !audit.Close(b, 3*a, 1e-12) {
			t.Errorf("Scale(3) integral over %v: %g, want %g", w, b, 3*a)
		}
	}
}

func TestRegionSignalsMatchAnnotatedMeans(t *testing.T) {
	sigs := RegionSignals()
	if len(sigs) != 3 {
		t.Fatalf("got %d region signals", len(sigs))
	}
	for _, s := range sigs {
		mustValid(t, s)
	}
	if got := float64(sigs[0].MeanCI(0, 24)); !audit.Close(got, 0.035, 1e-9) {
		t.Errorf("us-south mean = %g", got)
	}
	if got := float64(sigs[2].MeanCI(0, 24)); !audit.Close(got, 0.35, 1e-9) {
		t.Errorf("europe-north mean = %g", got)
	}
}
