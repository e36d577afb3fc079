package queueing

// The adaptive saturation-knee search. Every probe of one search
// simulates the same seed, request count and service distribution
// (common random numbers); only the arrival rate changes. So the
// search draws the random columns once and each probe only rescales
// the arrival gaps (see columns). The search reads a probe's
// saturation verdict and, for the final stable point only, its P95: a
// stable probe keeps its latency buffer and the P95 is selected once,
// when the search returns. Saturated probes do no percentile work.
//
// Both shortcuts are exact: KneeSearch returns the Knee a search
// calling RunContext for every probe would, which the differential
// wall in knee_test.go checks. Audited probes still compute the full
// summary, so the percentile-order check runs on every one; the
// reference modes still call RunContext for every probe.

import (
	"context"
	"fmt"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/stats"
)

// Knee is the result of a KneeSearch: the saturation boundary of a
// queue, bracketed to the requested resolution.
type Knee struct {
	// KneeFrac and KneeQPS are the lowest load observed saturated
	// (as a fraction of theoretical capacity, and absolute).
	KneeFrac float64
	KneeQPS  float64
	// StableFrac/StableQPS/StableP95 describe the highest load observed
	// stable — the operating point just below the knee.
	StableFrac float64
	StableQPS  float64
	StableP95  float64
	// Found reports that the knee lies inside [loFrac, hiFrac]; false
	// means the queue was still stable at hiFrac (KneeFrac is then
	// meaningless and StableFrac == hiFrac).
	Found bool
	// Evals counts discrete-event simulation runs performed; the
	// adaptive search needs O(log((hi-lo)/tol)) of them where a
	// fixed-step sweep at the same resolution needs (hi-lo)/tol.
	Evals int
	// FluidEvals counts load points answered by the closed-form fluid
	// model instead of simulation (Config.FluidApprox only). Fluid
	// answers are restricted to bracket screening: every bisection
	// probe and the returned stable/knee points are discrete.
	FluidEvals int
}

// KneeSearch locates a queue's saturation knee by bracketing and
// bisection instead of a fixed-step load sweep: it evaluates the two
// endpoints, then halves the bracket until it is narrower than tolFrac
// (of theoretical capacity). All evaluations reuse cfg.Seed, so the
// runs differ only in offered load (common random numbers), and the
// search is fully deterministic. Use it where only the knee is needed;
// CurveContext still serves full-curve measurements.
//
// With Config.FluidApprox set, the search first narrows the bracket
// around the analytic knee estimate and lets the fluid model answer the
// far-from-saturation screening probe; every bisection probe and the
// returned stable/knee points remain discrete-event simulations (a
// fluid-screened stable endpoint is re-simulated before being
// returned, and the search restarts fully discrete if the fluid screen
// disagrees with simulation).
func KneeSearch(ctx context.Context, cfg Config, loFrac, hiFrac, tolFrac float64) (Knee, error) {
	if cfg.Servers <= 0 || cfg.Service == nil {
		return Knee{}, fmt.Errorf("queueing: knee search needs positive servers and a service distribution")
	}
	if !(loFrac > 0) || !(hiFrac > loFrac) {
		return Knee{}, fmt.Errorf("queueing: knee search needs 0 < loFrac < hiFrac, got [%v, %v]", loFrac, hiFrac)
	}
	if !(tolFrac > 0) {
		return Knee{}, fmt.Errorf("queueing: knee search needs a positive tolerance, got %v", tolFrac)
	}
	p := newProber(cfg)
	defer p.release()
	if cfg.FluidApprox && !cfg.ReferenceEventLoop && !cfg.ReferenceSampling {
		if k, ok, err := kneeSearchFluid(ctx, p, loFrac, hiFrac, tolFrac); ok || err != nil {
			return k, err
		}
	}
	return kneeSearchDiscrete(ctx, p, loFrac, hiFrac, tolFrac)
}

// point is one probe's answer: the offered load and whether the queue
// saturated there. fluid marks an answer from the closed-form model.
type point struct {
	offered   float64
	saturated bool
	fluid     bool
}

// prober runs one knee search's probes. The latest stable probe is
// the search's stable point, and the prober keeps what its P95 needs:
// the probe's latency buffer, or the P95 itself where a probe computed
// one anyway (audited, reference or fluid answers).
type prober struct {
	cfg  Config // Requests and Warmup hold their defaults
	peak float64
	chk  audit.Checker
	// cols is nil in the reference modes, and when the capacity is not
	// positive: those probes call RunContext, which also reports its
	// errors.
	cols *columns
	// kept holds the stable probe's latencies when keptLat is set;
	// spare receives the next probe's.
	kept, spare *[]float64
	keptLat     bool
	p95         float64
}

func newProber(cfg Config) *prober {
	cfg = withDefaults(cfg)
	p := &prober{cfg: cfg, peak: Capacity(cfg.Servers, cfg.Service), chk: audit.Resolve(cfg.Audit)}
	if !cfg.ReferenceSampling && !cfg.ReferenceEventLoop && p.peak > 0 {
		p.cols = drawColumns(cfg)
		p.kept, p.spare = getLatencyBuf(cfg.Requests), getLatencyBuf(cfg.Requests)
	}
	return p
}

// release returns the search's columns and buffers to their pools.
func (p *prober) release() {
	if p.cols != nil {
		columnsPool.Put(p.cols)
		latencyPool.Put(p.kept)
		latencyPool.Put(p.spare)
	}
}

// run simulates the queue at frac of capacity. A stable answer becomes
// the stable point.
func (p *prober) run(ctx context.Context, frac float64) (point, error) {
	c := p.cfg
	c.FluidApprox = false
	c.ArrivalRate = frac * p.peak
	if p.cols == nil {
		r, err := RunContext(ctx, c)
		if err != nil {
			return point{}, err
		}
		if !r.Saturated {
			p.keepP95(r.P95)
		}
		return point{offered: r.Offered, saturated: r.Saturated}, nil
	}
	if err := sweep(ctx, c, p.chk, p.cols, p.spare); err != nil {
		return point{}, err
	}
	pt := point{offered: c.ArrivalRate}
	if p.chk != nil {
		r := summarize(c, p.chk, *p.spare)
		pt.saturated = r.Saturated
		if !pt.saturated {
			p.keepP95(r.P95)
		}
		return pt, nil
	}
	pt.saturated = saturated(c, *p.spare)
	if !pt.saturated {
		p.kept, p.spare = p.spare, p.kept
		p.keptLat = true
	}
	return pt, nil
}

// screen is the fluid search's floor probe: the fluid model answers it
// when the load is fluid-eligible, otherwise it is an ordinary run.
func (p *prober) screen(ctx context.Context, frac float64) (point, error) {
	c := p.cfg
	c.ArrivalRate = frac * p.peak
	if r, ok := fluidResult(c); ok {
		p.keepP95(r.P95)
		return point{offered: r.Offered, fluid: true}, nil
	}
	return p.run(ctx, frac)
}

func (p *prober) keepP95(v float64) { p.p95, p.keptLat = v, false }

// stableP95 returns the stable point's P95, selecting it from the kept
// latencies the first time it is asked for.
func (p *prober) stableP95() float64 {
	if p.keptLat {
		p.p95, p.keptLat = stats.SelectPercentile(*p.kept, 95), false
	}
	return p.p95
}

// kneeSearchDiscrete is the purely discrete-event bracketing search.
func kneeSearchDiscrete(ctx context.Context, p *prober, loFrac, hiFrac, tolFrac float64) (Knee, error) {
	var k Knee
	eval := func(frac float64) (point, error) {
		k.Evals++
		return p.run(ctx, frac)
	}

	lo, err := eval(loFrac)
	if err != nil {
		return Knee{}, err
	}
	if lo.saturated {
		// The whole bracket is past the knee; report its lower edge.
		k.Found = true
		k.KneeFrac, k.KneeQPS = loFrac, lo.offered
		return k, nil
	}
	k.StableFrac, k.StableQPS = loFrac, lo.offered
	hi, err := eval(hiFrac)
	if err != nil {
		return Knee{}, err
	}
	if !hi.saturated {
		// Still stable at the top of the bracket: no knee inside.
		k.StableFrac, k.StableQPS = hiFrac, hi.offered
		k.StableP95 = p.stableP95()
		return k, nil
	}
	k.Found = true
	k.KneeFrac, k.KneeQPS = hiFrac, hi.offered

	loF, hiF := loFrac, hiFrac
	for hiF-loF > tolFrac {
		mid := loF + (hiF-loF)/2
		res, err := eval(mid)
		if err != nil {
			return Knee{}, err
		}
		if res.saturated {
			hiF = mid
			k.KneeFrac, k.KneeQPS = mid, res.offered
		} else {
			loF = mid
			k.StableFrac, k.StableQPS = mid, res.offered
		}
	}
	k.StableP95 = p.stableP95()
	return k, nil
}

// kneeSearchFluid is the fluid-guided search. ok is false when the
// service distribution hides its moments, in which case the caller
// falls back to the purely discrete search.
func kneeSearchFluid(ctx context.Context, p *prober, loFrac, hiFrac, tolFrac float64) (Knee, bool, error) {
	est, okEst := fluidKneeFrac(p.cfg)
	if !okEst {
		return Knee{}, false, nil
	}
	var k Knee
	evalD := func(frac float64) (point, error) {
		k.Evals++
		return p.run(ctx, frac)
	}
	stableFluid := false
	setStable := func(frac float64, r point) {
		k.StableFrac, k.StableQPS = frac, r.offered
		stableFluid = r.fluid
	}
	setKnee := func(frac float64, r point) {
		k.Found = true
		k.KneeFrac, k.KneeQPS = frac, r.offered
	}

	// Screening probe at the bracket floor: the fluid model answers it
	// when the load is inside the fluid threshold; otherwise this is an
	// ordinary discrete evaluation.
	lo, err := p.screen(ctx, loFrac)
	if err != nil {
		return Knee{}, true, err
	}
	if lo.fluid {
		k.FluidEvals++
	} else {
		k.Evals++
	}
	if lo.saturated {
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
		if res.saturated {
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
			if res.saturated {
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
		if !res.saturated {
			// Still stable at the top of the bracket: no knee inside.
			setStable(hiF, res)
			k.StableP95 = p.stableP95()
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
		if res.saturated {
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
		if res.saturated {
			kd, err := kneeSearchDiscrete(ctx, p, loFrac, hiFrac, tolFrac)
			kd.Evals += k.Evals
			kd.FluidEvals = k.FluidEvals
			return kd, true, err
		}
		setStable(k.StableFrac, res)
	}
	k.StableP95 = p.stableP95()
	if p.chk != nil && k.Found && k.FluidEvals > 0 {
		// Canary for the fluid containment contract: the only fluid
		// answer is the loFrac screen, which must sit at or below the
		// returned stable endpoint, never inside the bracket.
		if loFrac > k.StableFrac && loFrac < k.KneeFrac {
			audit.Failf(p.chk, "queueing", "fluid-in-bracket",
				"fluid screening eval at %g landed inside the knee bracket (%g, %g)",
				loFrac, k.StableFrac, k.KneeFrac)
		}
	}
	return k, true, nil
}
