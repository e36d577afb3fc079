package queueing

import (
	"context"
	"sync"
	"testing"

	"github.com/greensku/gsf/internal/audit"
)

// TestKneeSearchSharedColumnsConcurrent runs unaudited knee searches
// from four goroutines over more seeds than the shared column cache
// holds, twice over, so entries are evicted while other searches may
// still read them. Every answer must equal an audited search's, which
// draws its own columns (Evals aside: an audited search stable at its
// top also probes the floor). Under the race detector it also proves
// that searches only read the shared draws.
func TestKneeSearchSharedColumnsConcurrent(t *testing.T) {
	withoutAudit(t)
	ctx := context.Background()
	seeds := 2*sharedColumnEntries + 1
	means := []float64{0.002, 0.004, 0.007}
	config := func(seed int, mean float64) Config {
		return Config{Servers: 8, Service: LogNormal{mean, 1.2}, Requests: 3000, Seed: uint64(0xc0c0 + seed)}
	}
	rec := audit.NewRecorder()
	want := make([][]Knee, seeds)
	for s := range want {
		for _, m := range means {
			cfg := config(s, m)
			cfg.Audit = rec
			k, err := KneeSearch(ctx, cfg, 0.5, 1.3, 0.05)
			if err != nil {
				t.Fatal(err)
			}
			want[s] = append(want[s], k)
		}
	}
	if rec.Count() != 0 {
		t.Fatalf("audited reference searches recorded %d violations: %v", rec.Count(), rec.Violations())
	}

	_, misses0 := ColumnCacheStats()
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 2*seeds; i++ {
				s := (i + g) % seeds
				for j, m := range means {
					got, err := KneeSearch(ctx, config(s, m), 0.5, 1.3, 0.05)
					if err != nil {
						t.Error(err)
						return
					}
					got.Evals = want[s][j].Evals
					if got != want[s][j] {
						t.Errorf("seed %d mean %v:\n got %+v\nwant %+v", s, m, got, want[s][j])
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if _, misses := ColumnCacheStats(); misses-misses0 <= int64(seeds) {
		t.Errorf("%d shared-column misses over %d seeds: nothing was evicted", misses-misses0, seeds)
	}
}
