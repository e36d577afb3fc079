package queueing

// Regression tests for the pooled latency buffer, the sweep APIs and
// the knee search. Every run here executes under the package
// TestMain's audit.Recorder (sample-domain, clock-monotonicity,
// heap-order, percentile-order).

import (
	"context"
	"math"
	"testing"

	"github.com/greensku/gsf/internal/audit"
)

// TestRunSteadyStateAllocs pins the per-run allocation count once the
// latency pool is warm. The residual allocations are the RNG, the
// free-server heap, and the boxed sampler — not the Requests-sized
// latency buffer or a percentile copy, which the pool and single-sort
// Summarize eliminated.
func TestRunSteadyStateAllocs(t *testing.T) {
	cfg := Config{Servers: 8, ArrivalRate: 1500, Service: LogNormal{0.004, 1}, Requests: 8000, Seed: 21}
	if _, err := Run(cfg); err != nil { // warm the pool
		t.Fatal(err)
	}
	avg := testing.AllocsPerRun(10, func() {
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
	})
	// RNG + heap + sampler box + Result plumbing: single digits. The
	// pre-pool kernel allocated the 8000-element latency buffer plus a
	// same-sized percentile copy per percentile call.
	if avg > 8 {
		t.Errorf("steady-state Run allocates %.1f times, want <= 8", avg)
	}
}

func TestTrialsSeedDerivation(t *testing.T) {
	cfg := Config{Servers: 8, ArrivalRate: 1000, Service: LogNormal{0.004, 1}, Requests: 20000, Seed: 100}
	vals, err := Trials(cfg, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i, got := range vals {
		c := cfg
		c.Seed = cfg.Seed + uint64(i)
		want := run(t, c)
		if got != want.P95 {
			t.Errorf("trial %d P95 = %v, standalone run with seed %d = %v", i, got, c.Seed, want.P95)
		}
	}
}

func TestCurveContextMatchesCurve(t *testing.T) {
	pts1, err := Curve(8, LogNormal{0.004, 1}, 0.1, 1.0, 8, 7)
	if err != nil {
		t.Fatal(err)
	}
	pts2, err := CurveContext(context.Background(), Config{Servers: 8, Service: LogNormal{0.004, 1}, Seed: 7}, 0.1, 1.0, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts1) != len(pts2) {
		t.Fatalf("length mismatch: %d vs %d", len(pts1), len(pts2))
	}
	for i := range pts1 {
		if pts1[i] != pts2[i] {
			t.Errorf("point %d: Curve %+v vs CurveContext %+v", i, pts1[i], pts2[i])
		}
	}
}

func TestSweepCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := Config{Servers: 8, ArrivalRate: 1000, Service: LogNormal{0.004, 1}, Requests: 20000, Seed: 1}
	if _, err := TrialsContext(ctx, cfg, 3); err == nil {
		t.Error("TrialsContext ignored a cancelled context")
	}
	if _, err := CurveContext(ctx, cfg, 0.1, 1.0, 4); err == nil {
		t.Error("CurveContext ignored a cancelled context")
	}
	if _, err := KneeSearch(ctx, cfg, 0.5, 1.2, 0.05); err == nil {
		t.Error("KneeSearch ignored a cancelled context")
	}
}

func TestKneeSearchFindsKnee(t *testing.T) {
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1}, Requests: 30000, Seed: 5}
	k, err := KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Found {
		t.Fatal("knee not found in [0.5, 1.3] although the bracket spans capacity")
	}
	if k.KneeFrac <= k.StableFrac {
		t.Fatalf("knee %.3f not above last stable point %.3f", k.KneeFrac, k.StableFrac)
	}
	if k.KneeFrac-k.StableFrac > 0.02+1e-9 {
		t.Fatalf("bracket width %.4f above tolerance 0.02", k.KneeFrac-k.StableFrac)
	}
	if k.KneeFrac < 0.8 || k.KneeFrac > 1.3 {
		t.Fatalf("knee at %.3f of capacity, expected near 1.0", k.KneeFrac)
	}
	// The adaptive search's point: a fixed-step sweep at the same
	// resolution needs (1.3-0.5)/0.02 = 40 evaluations.
	if fixed := int((1.3 - 0.5) / 0.02); k.Evals >= fixed {
		t.Errorf("knee search used %d evals, fixed-step needs %d", k.Evals, fixed)
	}
	if k.StableP95 <= 0 {
		t.Errorf("stable P95 = %v, want positive", k.StableP95)
	}
}

// TestKneeSearchStableBracket pins the top-first exit: a bracket stable
// at its top returns it after one probe, and an audited search spends
// a second on the floor to check monotonicity.
func TestKneeSearchStableBracket(t *testing.T) {
	withoutAudit(t)
	for _, audited := range []bool{false, true} {
		cfg := Config{Servers: 8, Service: LogNormal{0.004, 1}, Requests: 30000, Seed: 5}
		rec := audit.NewRecorder()
		if audited {
			cfg.Audit = rec
		}
		k, err := KneeSearch(context.Background(), cfg, 0.2, 0.6, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if k.Found {
			t.Fatalf("audited=%v: knee reported at %.3f inside an all-stable bracket", audited, k.KneeFrac)
		}
		if k.StableFrac != 0.6 {
			t.Fatalf("audited=%v: stable frac = %v, want the bracket top 0.6", audited, k.StableFrac)
		}
		want := 1
		if audited {
			want = 2
		}
		if k.Evals != want {
			t.Errorf("audited=%v: all-stable bracket took %d evals, want exactly %d", audited, k.Evals, want)
		}
		if rec.Count() != 0 {
			t.Errorf("audited=%v: %d audit violations: %v", audited, rec.Count(), rec.Violations())
		}
	}
}

func TestKneeSearchValidation(t *testing.T) {
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1}, Seed: 1}
	ctx := context.Background()
	if _, err := KneeSearch(ctx, cfg, 0, 1, 0.05); err == nil {
		t.Error("accepted loFrac = 0")
	}
	if _, err := KneeSearch(ctx, cfg, 0.9, 0.5, 0.05); err == nil {
		t.Error("accepted hiFrac < loFrac")
	}
	if _, err := KneeSearch(ctx, cfg, 0.5, 1.2, 0); err == nil {
		t.Error("accepted zero tolerance")
	}
	if _, err := KneeSearch(ctx, Config{Service: LogNormal{0.004, 1}}, 0.5, 1.2, 0.05); err == nil {
		t.Error("accepted zero servers")
	}
}

// TestKneeSearchTerminates pins the two inputs that used to spin
// forever: a tolerance below the bracket's float resolution, where the
// midpoint rounds onto an endpoint, and an infinite bracket top. Both
// run without a deadline, so a regression hangs the test binary
// rather than passing slowly.
func TestKneeSearchTerminates(t *testing.T) {
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1}, Requests: 2000, Seed: 5}
	k, err := KneeSearch(context.Background(), cfg, 0.5, 1.3, 1e-20)
	if err != nil {
		t.Fatal(err)
	}
	if !k.Found || k.KneeFrac <= k.StableFrac || math.Nextafter(k.StableFrac, 2) != k.KneeFrac {
		t.Fatalf("sub-resolution tolerance: knee %+v, want a bracket of adjacent floats", k)
	}
	if _, err := KneeSearch(context.Background(), cfg, 0.5, math.Inf(1), 0.02); err == nil {
		t.Fatal("accepted an infinite bracket top")
	}
}

func BenchmarkKneeSearch(b *testing.B) {
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1}, Requests: 20000, Seed: 5}
	for i := 0; i < b.N; i++ {
		if _, err := KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02); err != nil {
			b.Fatal(err)
		}
	}
}
