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
// running a whole simulation per probe would. The differential wall
// (walls_test.go) checks it against internal/oracle's per-probe
// search over the scalar loop. Audited probes still compute the full
// summary, so the percentile-order check runs on every one.
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
	// Evals counts the probes the search simulated: the bracket floor,
	// then the top if the floor was stable, then one per bisection
	// step. The adaptive search needs O(log((hi-lo)/tol)) of them
	// where a fixed-step sweep at the same resolution needs
	// (hi-lo)/tol.
	Evals int
}

// KneeSearch locates a queue's saturation knee by bracketing and
// bisection instead of a fixed-step load sweep: it evaluates the two
// endpoints, then halves the bracket until it is narrower than tolFrac
// (of theoretical capacity). All evaluations reuse cfg.Seed, so the
// runs differ only in offered load (common random numbers), and the
// search is fully deterministic. Use it where only the knee is needed;
// CurveContext still serves full-curve measurements.
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

	var k Knee
	probe := func(frac float64) (bool, error) {
		k.Evals++
		return p.run(ctx, frac)
	}
	setKnee := func(frac float64) { k.Found, k.KneeFrac, k.KneeQPS = true, frac, frac*p.peak }
	setStable := func(frac float64) { k.StableFrac, k.StableQPS = frac, frac*p.peak }

	sat, err := probe(loFrac)
	if err != nil {
		return Knee{}, err
	}
	if sat {
		// The whole bracket is past the knee; report its lower edge.
		setKnee(loFrac)
		return k, nil
	}
	setStable(loFrac)
	if sat, err = probe(hiFrac); err != nil {
		return Knee{}, err
	}
	if !sat {
		// Still stable at the top of the bracket: no knee inside.
		setStable(hiFrac)
		k.StableP95 = p.stableP95()
		return k, nil
	}
	setKnee(hiFrac)

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

// prober runs one knee search's probes. The latest stable probe is
// the search's stable point, and the prober keeps what its P95 needs:
// the probe's latency buffer, or the P95 itself where an audited probe
// computed one anyway.
type prober struct {
	cfg  Config // Requests and Warmup hold their defaults
	peak float64
	chk  audit.Checker
	// cols is nil when the capacity is not positive and finite: those
	// probes only call RunContext for its error.
	cols *columns
	// kept holds the stable probe's latencies when keptLat is set;
	// spare receives the next probe's.
	kept, spare *[]float64
	keptLat     bool
	p95         float64
}

func newProber(cfg Config) *prober {
	cfg = cfg.WithDefaults()
	p := &prober{cfg: cfg, peak: Capacity(cfg.Servers, cfg.Service), chk: audit.Resolve(cfg.Audit)}
	if p.peak > 0 && finite(p.peak) {
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

// run simulates the queue at frac of capacity and reports whether it
// saturated. A stable answer becomes the stable point; the offered
// load is frac*p.peak.
func (p *prober) run(ctx context.Context, frac float64) (bool, error) {
	c := p.cfg
	c.ArrivalRate = frac * p.peak
	if p.cols == nil {
		// The capacity is not positive and finite, so neither is this
		// arrival rate, and RunContext reports it.
		_, err := RunContext(ctx, c)
		return false, err
	}
	if err := sweep(ctx, c, p.chk, p.cols, p.spare); err != nil {
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
