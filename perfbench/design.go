package main

import (
	"context"
	"fmt"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/design"
	"github.com/greensku/gsf/internal/perf"
)

// designWorkers scores candidates one at a time, so run-to-run spread
// reflects the queueing simulator rather than how many cores of a shared
// machine happen to be free.
const designWorkers = 1

func designOptions(seed uint64) design.Options {
	opt := design.DefaultOptions()
	opt.Workers = designWorkers
	opt.Perf.Base.Seed += seed
	return opt
}

// newDesignEnv runs one search from a cold process-wide SLO memo, as
// the first request to a serving replica does. It leaves the baseline
// SLO points memoised; every later search still runs its own knee
// searches with a fresh evaluator.
func newDesignEnv(seed uint64) (design.Options, error) {
	perf.ResetSLOCache()
	opt := designOptions(seed)
	_, err := design.Search(context.Background(), opt)
	return opt, err
}

// runDesign times design.Search. Counts: cache_hits and cache_hit_pct
// are SLO-memo lookups.
func runDesign(cfg config) (outcome, error) {
	ctx := context.Background()
	opt, setups, err := setUp(func() (design.Options, error) { return newDesignEnv(cfg.seed) }, nil)
	if err != nil {
		return outcome{}, err
	}
	out := outcome{setups: setups, counts: map[string]float64{}}
	hits0, misses0 := perf.SLOCacheStats()
	var first *design.Result
	err = measure(cfg, &out, func() {
		out.latencies, out.failed = loop(cfg, func(int) error {
			res, err := design.Search(ctx, opt)
			if err != nil {
				return err
			}
			if first == nil {
				first = &res
			} else if !sameFrontier(*first, res) {
				out.note(fmt.Errorf("design frontier changed between repetitions"))
			}
			return nil
		})
	})
	if err != nil {
		return outcome{}, err
	}
	out.attempted = len(out.latencies)
	hits, misses := perf.SLOCacheStats()
	out.counts["cache_hits"] = float64(hits - hits0)
	out.counts["cache_hit_pct"] = hitPct(hits-hits0, misses-misses0)

	// Outside the window: an audited search recomputes every frontier
	// point unmemoised and checks no frontier point beats another; its
	// frontier must be the one the timed searches found.
	if first != nil {
		rec := audit.NewRecorder()
		check := opt
		check.Audit = rec
		ref, err := design.Search(ctx, check)
		if err != nil {
			return outcome{}, err
		}
		if n := rec.Count(); n > 0 {
			out.note(fmt.Errorf("design search: %d audit violations", n))
		}
		if len(ref.Frontier) == 0 || !sameFrontier(ref, *first) {
			out.note(fmt.Errorf("design frontier differs from the audited search"))
		}
	}
	return out, nil
}

func sameFrontier(a, b design.Result) bool {
	if a.Candidates != b.Candidates || len(a.Frontier) != len(b.Frontier) {
		return false
	}
	for i := range a.Frontier {
		if a.Frontier[i].SKU.Name != b.Frontier[i].SKU.Name || a.Frontier[i].Obj != b.Frontier[i].Obj {
			return false
		}
	}
	return true
}
