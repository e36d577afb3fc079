package queueing

// The knee-search differential wall. KneeSearch draws one set of
// random columns per search, rescales the arrival gaps per probe, and
// selects P95 once for the final stable point; the oracle below is the
// search it replaced, in which every probe is a full RunContext call.
// The two must return identical Knee structs for every seed, service
// shape, server index (heap and calendar), fluid setting and audit
// setting.

import (
	"context"
	"fmt"
	"testing"

	"github.com/greensku/gsf/internal/audit"
)

// raceEnabled is set under the race detector, which slows simulation
// enough that the wall runs on a prefix of its seeds.
var raceEnabled bool

// withoutAudit clears the process-default checker that TestMain
// installs, so probes take the unaudited path, and restores it when the
// test ends.
func withoutAudit(t *testing.T) {
	prev := audit.Default()
	audit.SetDefault(nil)
	t.Cleanup(func() { audit.SetDefault(prev) })
}

// kneeWallShapes are the service shapes the wall sweeps: log-normal at
// a low and a high CV, exponential, and constant service (CV = 0).
var kneeWallShapes = []ServiceDist{
	LogNormal{0.004, 0.5},
	LogNormal{0.004, 1.5},
	Exponential{0.004},
	LogNormal{0.004, 0},
}

// kneeWallBrackets rotate with the seed so every exit of the search
// runs: a knee inside the bracket, a queue still stable at its top,
// one already saturated at its floor, and a fluid threshold so high
// that the fluid screen calls a saturated floor stable, so the fluid
// search re-simulates it and restarts discrete.
var kneeWallBrackets = []struct{ lo, hi, tol, fluidThreshold float64 }{
	{0.5, 1.3, 0.02, 0},
	{0.2, 0.6, 0.05, 0},
	{1.1, 1.5, 0.05, 0},
	{0.99, 1.3, 0.05, 0.995},
}

// TestKneeSearchMatchesPerProbeOracle35Seeds is the wall: 35 seeds ×
// 4 service shapes × 8 and 96 servers × fluid screen off and on ×
// audit on and off. Audited runs must also record no violations.
func TestKneeSearchMatchesPerProbeOracle35Seeds(t *testing.T) {
	seeds := uint64(35)
	if testing.Short() || raceEnabled {
		seeds = 5
	}
	withoutAudit(t)
	ctx := context.Background()
	for _, audited := range []bool{false, true} {
		for _, fluid := range []bool{false, true} {
			for _, servers := range []int{8, 96} {
				for si, svc := range kneeWallShapes {
					for seed := uint64(1); seed <= seeds; seed++ {
						b := kneeWallBrackets[seed%uint64(len(kneeWallBrackets))]
						cfg := Config{Servers: servers, Service: svc, Requests: 5000, Seed: seed,
							FluidApprox: fluid, FluidThreshold: b.fluidThreshold}
						var rec *audit.Recorder
						if audited {
							rec = audit.NewRecorder()
							cfg.Audit = rec
						}
						name := fmt.Sprintf("audited=%v fluid=%v servers=%d shape=%d seed=%d", audited, fluid, servers, si, seed)
						got, err := KneeSearch(ctx, cfg, b.lo, b.hi, b.tol)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						want, err := oracleKneeSearch(ctx, cfg, b.lo, b.hi, b.tol)
						if err != nil {
							t.Fatalf("%s: oracle: %v", name, err)
						}
						if got != want {
							t.Fatalf("%s:\n got %+v\nwant %+v", name, got, want)
						}
						if rec != nil && rec.Count() != 0 {
							t.Fatalf("%s: %d audit violations: %v", name, rec.Count(), rec.Violations())
						}
					}
				}
			}
		}
	}
}

// TestKneeSearchNonPositiveCapacityErrors covers the configs the
// shared columns cannot serve: a service distribution with a negative
// mean gives a negative arrival rate, which each probe's RunContext
// must reject as it did before.
func TestKneeSearchNonPositiveCapacityErrors(t *testing.T) {
	cfg := Config{Servers: 8, Service: Exponential{-0.004}, Requests: 500, Seed: 1}
	_, err := KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02)
	_, want := oracleKneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("KneeSearch error %v, oracle error %v", err, want)
	}
}

// oracleKneeSearch is KneeSearch as it was before probes shared their
// random columns: every probe is a full RunContext call that redraws
// the stream and computes P50, P95 and P99.
func oracleKneeSearch(ctx context.Context, cfg Config, loFrac, hiFrac, tolFrac float64) (Knee, error) {
	if cfg.Servers <= 0 || cfg.Service == nil {
		return Knee{}, fmt.Errorf("queueing: knee search needs positive servers and a service distribution")
	}
	if !(loFrac > 0) || !(hiFrac > loFrac) {
		return Knee{}, fmt.Errorf("queueing: knee search needs 0 < loFrac < hiFrac, got [%v, %v]", loFrac, hiFrac)
	}
	if !(tolFrac > 0) {
		return Knee{}, fmt.Errorf("queueing: knee search needs a positive tolerance, got %v", tolFrac)
	}
	if cfg.FluidApprox && !cfg.ReferenceEventLoop && !cfg.ReferenceSampling {
		if k, ok, err := oracleKneeFluid(ctx, cfg, loFrac, hiFrac, tolFrac); ok || err != nil {
			return k, err
		}
	}
	return oracleKneeDiscrete(ctx, cfg, loFrac, hiFrac, tolFrac)
}

// oracleKneeDiscrete is the oracle's purely discrete-event search.
func oracleKneeDiscrete(ctx context.Context, cfg Config, loFrac, hiFrac, tolFrac float64) (Knee, error) {
	peak := Capacity(cfg.Servers, cfg.Service)
	var k Knee
	eval := func(frac float64) (Result, error) {
		c := cfg
		c.FluidApprox = false
		c.ArrivalRate = frac * peak
		k.Evals++
		return RunContext(ctx, c)
	}

	lo, err := eval(loFrac)
	if err != nil {
		return Knee{}, err
	}
	if lo.Saturated {
		// The whole bracket is past the knee; report its lower edge.
		k.Found = true
		k.KneeFrac, k.KneeQPS = loFrac, lo.Offered
		return k, nil
	}
	k.StableFrac, k.StableQPS, k.StableP95 = loFrac, lo.Offered, lo.P95
	hi, err := eval(hiFrac)
	if err != nil {
		return Knee{}, err
	}
	if !hi.Saturated {
		// Still stable at the top of the bracket: no knee inside.
		k.StableFrac, k.StableQPS, k.StableP95 = hiFrac, hi.Offered, hi.P95
		return k, nil
	}
	k.Found = true
	k.KneeFrac, k.KneeQPS = hiFrac, hi.Offered

	loF, hiF := loFrac, hiFrac
	for hiF-loF > tolFrac {
		mid := loF + (hiF-loF)/2
		res, err := eval(mid)
		if err != nil {
			return Knee{}, err
		}
		if res.Saturated {
			hiF = mid
			k.KneeFrac, k.KneeQPS = mid, res.Offered
		} else {
			loF = mid
			k.StableFrac, k.StableQPS, k.StableP95 = mid, res.Offered, res.P95
		}
	}
	return k, nil
}

// oracleKneeFluid is the oracle's fluid-guided search. ok is false when
// the service distribution hides its moments.
func oracleKneeFluid(ctx context.Context, cfg Config, loFrac, hiFrac, tolFrac float64) (Knee, bool, error) {
	est, okEst := fluidKneeFrac(cfg)
	if !okEst {
		return Knee{}, false, nil
	}
	peak := Capacity(cfg.Servers, cfg.Service)
	var k Knee
	evalD := func(frac float64) (Result, error) {
		c := cfg
		c.FluidApprox = false
		c.ArrivalRate = frac * peak
		k.Evals++
		return RunContext(ctx, c)
	}
	stableFluid := false
	setStable := func(frac float64, r Result) {
		k.StableFrac, k.StableQPS, k.StableP95 = frac, r.Offered, r.P95
		stableFluid = r.Fluid
	}
	setKnee := func(frac float64, r Result) {
		k.Found = true
		k.KneeFrac, k.KneeQPS = frac, r.Offered
	}

	// Screening probe at the bracket floor: the fluid model answers it
	// when the load is inside the fluid threshold; otherwise this is an
	// ordinary discrete evaluation.
	lo, err := func() (Result, error) {
		c := cfg
		c.ArrivalRate = loFrac * peak
		r, err := RunContext(ctx, c)
		if err == nil && r.Fluid {
			k.FluidEvals++
		} else if err == nil {
			k.Evals++
		}
		return r, err
	}()
	if err != nil {
		return Knee{}, true, err
	}
	if lo.Saturated {
		// The fluid model never reports saturation, so this verdict is
		// discrete: the whole bracket is past the knee.
		setKnee(loFrac, lo)
		return k, true, nil
	}
	setStable(loFrac, lo)

	// Narrow the bracket around the analytic estimate before paying for
	// endpoint simulations far from the knee.
	margin := 4 * tolFrac
	if margin < 0.05 {
		margin = 0.05
	}
	loF, hiF := loFrac, hiFrac
	haveHi := false
	if ghi := est + margin; ghi > loF && ghi < hiF {
		res, err := evalD(ghi)
		if err != nil {
			return Knee{}, true, err
		}
		if res.Saturated {
			hiF = ghi
			setKnee(ghi, res)
			haveHi = true
		} else {
			loF = ghi
			setStable(ghi, res)
		}
	}
	if haveHi {
		if glo := est - margin; glo > loF {
			res, err := evalD(glo)
			if err != nil {
				return Knee{}, true, err
			}
			if res.Saturated {
				hiF = glo
				setKnee(glo, res)
			} else {
				loF = glo
				setStable(glo, res)
			}
		}
	} else {
		res, err := evalD(hiF)
		if err != nil {
			return Knee{}, true, err
		}
		if !res.Saturated {
			// Still stable at the top of the bracket: no knee inside.
			setStable(hiF, res)
			return k, true, nil
		}
		setKnee(hiF, res)
	}

	for hiF-loF > tolFrac {
		mid := loF + (hiF-loF)/2
		res, err := evalD(mid)
		if err != nil {
			return Knee{}, true, err
		}
		if res.Saturated {
			hiF = mid
			setKnee(mid, res)
		} else {
			loF = mid
			setStable(mid, res)
		}
	}

	if stableFluid {
		// The returned stable point must be simulation-sourced: re-run
		// the fluid-screened endpoint discretely, and if the screen's
		// stability verdict does not survive simulation, discard the
		// guided search entirely.
		res, err := evalD(k.StableFrac)
		if err != nil {
			return Knee{}, true, err
		}
		if res.Saturated {
			kd, err := oracleKneeDiscrete(ctx, cfg, loFrac, hiFrac, tolFrac)
			kd.Evals += k.Evals
			kd.FluidEvals = k.FluidEvals
			return kd, true, err
		}
		setStable(k.StableFrac, res)
	}
	if chk := audit.Resolve(cfg.Audit); chk != nil && k.Found && k.FluidEvals > 0 {
		// Canary for the fluid containment contract: the only fluid
		// answer is the loFrac screen, which must sit at or below the
		// returned stable endpoint, never inside the bracket.
		if loFrac > k.StableFrac && loFrac < k.KneeFrac {
			audit.Failf(chk, "queueing", "fluid-in-bracket",
				"fluid screening eval at %g landed inside the knee bracket (%g, %g)",
				loFrac, k.StableFrac, k.KneeFrac)
		}
	}
	return k, true, nil
}
