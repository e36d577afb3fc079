package queueing

// The adaptive saturation-knee search. Every probe of one search
// simulates the same seed, request count and service distribution
// (common random numbers); only the arrival rate changes. So the
// search draws the random columns once, on its first simulated probe,
// and each probe only rescales the arrival gaps (see columns). The
// gaps and the normals behind a log-normal service column depend on
// the seed and request count alone, so unaudited searches share them
// across the process and compute only their own service column; an
// audited search draws its own and checks the shared entry against
// them (batch.go). The search reads a probe's saturation verdict and,
// for the final stable point only, its P95: a stable probe keeps its
// latency buffer and the P95 is selected once, when the search
// returns. Every probe reuses one server heap. Saturated probes do
// no percentile work, and an unaudited probe offered at or above
// capacity is not simulated at all: saturated's first clause already
// decides it.
//
// The probe order rests on one property: the saturation verdict is
// monotone in load, so a bracket stable at its top is stable at every
// load inside it. Under common random numbers a probe at rate λ sees
// arrival gaps unit/λ and the same service times, so by the FCFS G/G/k
// workload recursion (Kiefer–Wolfowitz) every request's waiting time,
// and so its latency and the P95, is nondecreasing in λ. The verdict's
// first clause, utilization ≥ 1, is monotone outright. Its second, the
// tail > 3·head latency ratio, is not provably monotone: head and tail
// both grow with λ. So the search probes the bracket top first and
// returns it, after one simulation, when it is stable; an audited
// search still probes the floor and records queueing/knee-monotone if
// the floor saturates under a stable top. When the top saturates, the
// search probes the floor and bisects exactly as a floor-first search
// does.
//
// These shortcuts are exact: wherever the verdict is monotone,
// KneeSearch returns the Knee a floor-first search running a whole
// simulation per probe would, Evals aside. The differential wall
// (walls_test.go) checks it against internal/oracle's per-probe search
// over the scalar loop. Audited probes still compute the full summary,
// so the percentile-order check runs on every one.
//
// The bisection stops once the bracket is no wider than the tolerance
// or once its midpoint rounds onto an endpoint, so it terminates for
// any positive tolerance, however far below the bracket's float
// resolution.

import (
	"context"
	"fmt"
	"math"

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
	// Evals counts the search's probes: the bracket top; then the
	// floor, if the top saturated or the search is audited; then one
	// per bisection step. A probe decided without a simulation (offered
	// at or above capacity) still counts. Against a floor-first search
	// Evals is one fewer for an unaudited search stable at its top, and
	// one more for a search saturated at its floor. The adaptive search
	// needs O(log((hi-lo)/tol)) probes where a fixed-step sweep at the
	// same resolution needs (hi-lo)/tol.
	Evals int
}

// KneeSearch locates a queue's saturation knee by bracketing and
// bisection instead of a fixed-step load sweep: it evaluates the
// bracket top, then (if the top saturated) the floor, then halves the
// bracket until it is narrower than tolFrac (of theoretical capacity).
// All evaluations reuse cfg.Seed, so the runs differ only in offered
// load (common random numbers), and the search is fully deterministic.
// Use it where only the knee is needed; CurveContext still serves
// full-curve measurements.
func KneeSearch(ctx context.Context, cfg Config, loFrac, hiFrac, tolFrac float64) (Knee, error) {
	if cfg.Servers <= 0 || cfg.Service == nil {
		return Knee{}, fmt.Errorf("queueing: knee search needs positive servers and a service distribution")
	}
	if !(loFrac > 0) || !(hiFrac > loFrac) || math.IsInf(hiFrac, 1) {
		return Knee{}, fmt.Errorf("queueing: knee search needs finite 0 < loFrac < hiFrac, got [%v, %v]", loFrac, hiFrac)
	}
	if !(tolFrac > 0) {
		return Knee{}, fmt.Errorf("queueing: knee search needs a positive tolerance, got %v", tolFrac)
	}
	p := newProber(cfg)
	defer p.release()
	// A capacity that is not positive and finite gives every probe an
	// invalid arrival rate. Report the floor's, the probe a floor-first
	// search runs first. A valid floor implies a valid capacity.
	floor := p.cfg
	floor.ArrivalRate = loFrac * p.peak
	if err := floor.Validate(); err != nil {
		return Knee{}, err
	}

	var k Knee
	probe := func(frac float64) (bool, error) {
		k.Evals++
		return p.run(ctx, frac)
	}
	setKnee := func(frac float64) { k.Found, k.KneeFrac, k.KneeQPS = true, frac, frac*p.peak }
	setStable := func(frac float64) { k.StableFrac, k.StableQPS = frac, frac*p.peak }

	sat, err := probe(hiFrac)
	if err != nil {
		return Knee{}, err
	}
	if !sat {
		// Stable at the top of the bracket, so by monotonicity stable
		// throughout: no knee inside.
		setStable(hiFrac)
		k.StableP95 = p.stableP95()
		if p.chk != nil {
			if sat, err = probe(loFrac); err != nil {
				return Knee{}, err
			}
			if sat || testFloorSaturated {
				audit.Failf(p.chk, "queueing", "knee-monotone",
					"floor %v of capacity saturated while the top %v is stable", loFrac, hiFrac)
			}
		}
		return k, nil
	}
	setKnee(hiFrac)
	if sat, err = probe(loFrac); err != nil {
		return Knee{}, err
	}
	if sat {
		// The whole bracket is past the knee; report its lower edge.
		setKnee(loFrac)
		return k, nil
	}
	setStable(loFrac)

	for lo, hi := loFrac, hiFrac; hi-lo > tolFrac; {
		mid := lo + (hi-lo)/2
		if mid == lo || mid == hi {
			break // adjacent floats: the bracket cannot narrow further
		}
		if sat, err = probe(mid); err != nil {
			return Knee{}, err
		}
		if sat {
			hi = mid
			setKnee(mid)
		} else {
			lo = mid
			setStable(mid)
		}
	}
	k.StableP95 = p.stableP95()
	return k, nil
}

// testFloorSaturated, when true, makes an audited search stable at its
// bracket top read its floor probe as saturated, so tests can prove
// the monotonicity check fires. It never changes the returned Knee.
var testFloorSaturated bool

// prober runs one knee search's probes. The latest stable probe is
// the search's stable point, and the prober keeps what its P95 needs:
// the probe's latency buffer, or the P95 itself where an audited probe
// computed one anyway.
type prober struct {
	cfg  Config // Requests and Warmup hold their defaults
	peak float64
	chk  audit.Checker
	// cols is empty until the first simulated probe draws it. Every
	// probe reuses the server heap free.
	cols columns
	free serverHeap
	// kept holds the stable probe's latencies when keptLat is set;
	// spare receives the next probe's.
	kept, spare *[]float64
	keptLat     bool
	p95         float64
}

func newProber(cfg Config) prober {
	cfg = cfg.WithDefaults()
	return prober{cfg: cfg, peak: Capacity(cfg.Servers, cfg.Service), chk: audit.Resolve(cfg.Audit)}
}

// release returns the search's own columns and buffers to their pools.
func (p *prober) release() {
	if p.cols.svc != nil {
		p.cols.release()
		latencyPool.Put(p.kept)
		latencyPool.Put(p.spare)
	}
}

// run simulates the queue at frac of capacity and reports whether it
// saturated. A stable answer becomes the stable point; the offered
// load is frac*p.peak.
func (p *prober) run(ctx context.Context, frac float64) (bool, error) {
	c := p.cfg
	c.ArrivalRate = frac * p.peak
	if p.chk == nil && c.Requests >= 4 && utilization(c) >= 1 {
		// saturated's first clause holds whatever the latencies, given
		// the four requests it needs to judge at all. A cancelled
		// context still fails the probe, as it fails a sweep.
		return true, ctx.Err()
	}
	if p.cols.svc == nil {
		p.cols = drawColumns(p.cfg, p.chk)
		p.kept, p.spare = getFloats(&latencyPool, c.Requests), getFloats(&latencyPool, c.Requests)
		p.free = make(serverHeap, c.Servers)
	}
	if err := sweep(ctx, c, p.chk, &p.cols, p.free, p.spare); err != nil {
		return false, err
	}
	if p.chk != nil {
		r := summarize(c, p.chk, *p.spare)
		if !r.Saturated {
			p.p95, p.keptLat = r.P95, false
		}
		return r.Saturated, nil
	}
	if saturated(c, *p.spare) {
		return true, nil
	}
	p.kept, p.spare = p.spare, p.kept
	p.keptLat = true
	return false, nil
}

// stableP95 returns the stable point's P95, selecting it from the kept
// latencies the first time it is asked for.
func (p *prober) stableP95() float64 {
	if p.keptLat {
		p.p95, p.keptLat = stats.SelectPercentile(*p.kept, 95), false
	}
	return p.p95
}
