package queueing_test

// The queueing walls: the production kernel against the test-only
// scalar loop in internal/oracle. The batched event loop must match the
// oracle's fast sampler bit for bit; KneeSearch, with its shared
// columns and single P95 selection, must return the oracle's per-probe
// Knee; and the fast samplers must agree statistically with the
// oracle's reference samplers. Every production run executes under the
// package TestMain's audit recorder, so the walls double as
// zero-violations audit sweeps.

import (
	"context"
	"fmt"
	"math"
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/oracle"
	"github.com/greensku/gsf/internal/queueing"
)

// raceEnabled is set under the race detector, which slows simulation
// enough that the knee wall runs on a prefix of its seeds.
var raceEnabled bool

// withoutAudit clears the process-default checker that TestMain
// installs, so probes take the unaudited path, and restores it when the
// test ends.
func withoutAudit(t *testing.T) {
	prev := audit.Default()
	audit.SetDefault(nil)
	t.Cleanup(func() { audit.SetDefault(prev) })
}

func logNormal(mean, cv float64) queueing.LogNormal {
	return queueing.LogNormal{MeanSeconds: mean, CV: cv}
}

func exponential(mean float64) queueing.Exponential { return queueing.Exponential{MeanSeconds: mean} }

func runProd(t *testing.T, cfg queueing.Config) queueing.Result {
	t.Helper()
	res, err := queueing.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func runOracle(t *testing.T, cfg queueing.Config, s oracle.Sampler) queueing.Result {
	t.Helper()
	res, err := s.Run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// batchDiffConfigs are the kernel shapes the batched wall sweeps: 8, 96
// and 512 servers, stable and saturated load, log-normal, exponential,
// and constant service.
func batchDiffConfigs() []queueing.Config {
	return []queueing.Config{
		{Servers: 8, ArrivalRate: 0.8 * queueing.Capacity(8, logNormal(0.004, 1.5)), Service: logNormal(0.004, 1.5), Requests: 20000},
		{Servers: 8, ArrivalRate: 1.05 * queueing.Capacity(8, logNormal(0.004, 1.5)), Service: logNormal(0.004, 1.5), Requests: 20000},
		{Servers: 8, ArrivalRate: 0.7 * queueing.Capacity(8, exponential(0.004)), Service: exponential(0.004), Requests: 20000},
		{Servers: 8, ArrivalRate: 0.6 * queueing.Capacity(8, logNormal(0.004, 0)), Service: logNormal(0.004, 0), Requests: 20000},
		{Servers: 96, ArrivalRate: 0.85 * queueing.Capacity(96, logNormal(0.005, 1.5)), Service: logNormal(0.005, 1.5), Requests: 20000},
		{Servers: 96, ArrivalRate: 0.75 * queueing.Capacity(96, exponential(0.002)), Service: exponential(0.002), Requests: 20000},
		{Servers: 512, ArrivalRate: 0.8 * queueing.Capacity(512, logNormal(0.004, 1)), Service: logNormal(0.004, 1), Requests: 20000},
		{Servers: 512, ArrivalRate: 1.1 * queueing.Capacity(512, logNormal(0.004, 1)), Service: logNormal(0.004, 1), Requests: 20000},
		{Servers: 512, ArrivalRate: 0.6 * queueing.Capacity(512, logNormal(0.004, 0)), Service: logNormal(0.004, 0), Requests: 20000},
	}
}

// TestBatchedMatchesReferenceEventLoop35Seeds is the acceptance wall:
// the batched loop equals the oracle's scalar loop with the fast
// sampler, bit for bit, across 35 seeds.
func TestBatchedMatchesReferenceEventLoop35Seeds(t *testing.T) {
	for ci, base := range batchDiffConfigs() {
		for seed := uint64(1); seed <= 35; seed++ {
			cfg := base
			cfg.Seed = seed
			batched := runProd(t, cfg)
			scalar := runOracle(t, cfg, oracle.FastSampler)
			if batched != scalar {
				t.Fatalf("config %d (%d servers) seed %d: batched %+v != scalar %+v",
					ci, cfg.Servers, seed, batched, scalar)
			}
		}
	}
}

// TestBatchedKneeSearchMatchesReference pins whole searches, not just
// single runs, at a small and a large server count.
func TestBatchedKneeSearchMatchesReference(t *testing.T) {
	for _, servers := range []int{8, 512} {
		cfg := queueing.Config{Servers: servers, Service: logNormal(0.004, 1), Requests: 20000, Seed: 5}
		kb, err := queueing.KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		kr, err := oracle.KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		if !sameKnee(kb, kr, true) {
			t.Fatalf("servers %d: batched knee %+v != oracle knee %+v", servers, kb, kr)
		}
	}
}

// sameKnee reports that got, a KneeSearch result, equals want, the
// floor-first per-probe oracle's, in every field. Evals differs by the
// probe order alone: an unaudited search stable at its top skips the
// floor, and a search saturated at its floor (the oracle's only
// one-probe exit) probed the top first.
func sameKnee(got, want queueing.Knee, audited bool) bool {
	evals := want.Evals
	switch {
	case want.Evals == 1:
		evals = 2
	case !want.Found && !audited:
		evals = 1
	}
	if got.Evals != evals {
		return false
	}
	got.Evals = want.Evals
	return got == want
}

// kneeWallShapes are the service shapes the knee wall sweeps:
// log-normal at a low and a high CV, exponential, and constant service
// (CV = 0).
var kneeWallShapes = []queueing.ServiceDist{
	logNormal(0.004, 0.5),
	logNormal(0.004, 1.5),
	exponential(0.004),
	logNormal(0.004, 0),
}

// kneeWallBrackets rotate with the seed so every exit of the search
// runs: a knee inside the bracket, a queue still stable at its top, and
// one already saturated at its floor, plus a narrow bracket straddling
// capacity.
var kneeWallBrackets = []struct{ lo, hi, tol float64 }{
	{0.5, 1.3, 0.02},
	{0.2, 0.6, 0.05},
	{1.1, 1.5, 0.05},
	{0.99, 1.3, 0.05},
}

// TestKneeSearchMatchesPerProbeOracle35Seeds is the knee wall: 35 seeds
// × 4 service shapes × 8 and 96 servers × audit on and off. Every Knee
// field must match the oracle's, Evals by sameKnee's rule. Audited runs
// must also record no violations, knee-monotone included.
func TestKneeSearchMatchesPerProbeOracle35Seeds(t *testing.T) {
	seeds := uint64(35)
	if testing.Short() || raceEnabled {
		seeds = 5
	}
	withoutAudit(t)
	ctx := context.Background()
	for _, audited := range []bool{false, true} {
		hits0, misses0 := queueing.ColumnCacheStats()
		for _, servers := range []int{8, 96} {
			for si, svc := range kneeWallShapes {
				for seed := uint64(1); seed <= seeds; seed++ {
					b := kneeWallBrackets[seed%uint64(len(kneeWallBrackets))]
					cfg := queueing.Config{Servers: servers, Service: svc, Requests: 5000, Seed: seed}
					var rec *audit.Recorder
					if audited {
						rec = audit.NewRecorder()
						cfg.Audit = rec
					}
					name := fmt.Sprintf("audited=%v servers=%d shape=%d seed=%d", audited, servers, si, seed)
					got, err := queueing.KneeSearch(ctx, cfg, b.lo, b.hi, b.tol)
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					want, err := oracle.KneeSearch(ctx, cfg, b.lo, b.hi, b.tol)
					if err != nil {
						t.Fatalf("%s: oracle: %v", name, err)
					}
					if !sameKnee(got, want, audited) {
						t.Fatalf("%s:\n got %+v\nwant %+v", name, got, want)
					}
					if rec != nil && rec.Count() != 0 {
						t.Fatalf("%s: %d audit violations: %v", name, rec.Count(), rec.Violations())
					}
				}
			}
		}
		// Unaudited log-normal searches read the shared columns; audited
		// ones never do.
		hits, misses := queueing.ColumnCacheStats()
		if shared := hits - hits0 + misses - misses0; audited != (shared == 0) {
			t.Errorf("audited=%v: %d shared-column lookups", audited, shared)
		}
	}
}

// TestKneeSearchSharedColumnsMatchOracle35Seeds is the shared-column
// wall: searches with different service means and CVs on one seed
// share its draws, from a cold cache and again after the seed's entry
// was evicted. Each must equal the per-probe oracle's Knee, and each
// seed must fill its entry exactly once per pass.
func TestKneeSearchSharedColumnsMatchOracle35Seeds(t *testing.T) {
	seeds := uint64(35)
	if testing.Short() || raceEnabled {
		seeds = 5
	}
	withoutAudit(t)
	ctx := context.Background()
	services := []queueing.ServiceDist{
		logNormal(0.002, 1.2), logNormal(0.004, 1.2), logNormal(0.004, 0.6), logNormal(0.011, 1.5),
	}
	search := func(cfg queueing.Config) queueing.Knee {
		k, err := queueing.KneeSearch(ctx, cfg, 0.5, 1.3, 0.02)
		if err != nil {
			t.Fatal(err)
		}
		return k
	}
	for seed := uint64(1); seed <= seeds; seed++ {
		// Seeds no other test uses, so the first pass starts cold.
		base := queueing.Config{Servers: 8, Requests: 5000, Seed: 0x5a4e0000 + seed}
		for _, pass := range []string{"cold", "evicted"} {
			_, misses0 := queueing.ColumnCacheStats()
			for si, svc := range services {
				cfg := base
				cfg.Service = svc
				got := search(cfg)
				want, err := oracle.KneeSearch(ctx, cfg, 0.5, 1.3, 0.02)
				if err != nil {
					t.Fatal(err)
				}
				if !sameKnee(got, want, false) {
					t.Fatalf("seed %d %s service %d:\n got %+v\nwant %+v", seed, pass, si, got, want)
				}
			}
			if _, misses := queueing.ColumnCacheStats(); misses-misses0 != 1 {
				t.Fatalf("seed %d %s: %d shared-column fills, want 1", seed, pass, misses-misses0)
			}
			// Evict the seed's entry: fill the cache with other seeds.
			for i := 0; i < queueing.SharedColumnEntries; i++ {
				cfg := base
				cfg.Seed = 0x5a4f0000 + seed*queueing.SharedColumnEntries + uint64(i)
				cfg.Service = services[0]
				search(cfg)
			}
		}
	}
}

// TestKneeSearchNonPositiveCapacityErrors covers the configs the
// shared columns cannot serve: a service distribution with a negative
// mean gives a negative arrival rate, which the probe must reject with
// the error the oracle's per-probe run reports.
func TestKneeSearchNonPositiveCapacityErrors(t *testing.T) {
	cfg := queueing.Config{Servers: 8, Service: exponential(-0.004), Requests: 500, Seed: 1}
	_, err := queueing.KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02)
	_, want := oracle.KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02)
	if err == nil || want == nil || err.Error() != want.Error() {
		t.Fatalf("KneeSearch error %v, oracle error %v", err, want)
	}
}

// TestKneeSearchColumnsFromPool pins that a steady-state knee search
// takes its service column and both latency buffers from their pools,
// and its arrival gaps and normals from the shared column cache. What
// it does allocate is constant however many probes it simulates: the
// prepared sampler, the shared-cache key and one server heap. A fresh
// draw would add its RNG, fresh columns one allocation each, fresh
// latency buffers two, and a heap per probe one each.
func TestKneeSearchColumnsFromPool(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	withoutAudit(t)
	cfg := queueing.Config{Servers: 8, Service: logNormal(0.004, 1.5), Requests: 5000, Seed: 3}
	var k queueing.Knee
	hits0, _ := queueing.ColumnCacheStats()
	avg := testing.AllocsPerRun(20, func() {
		var err error
		if k, err = queueing.KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02); err != nil {
			t.Fatal(err)
		}
	})
	if hits, _ := queueing.ColumnCacheStats(); hits-hits0 < 20 {
		t.Errorf("%d shared-column hits over 21 searches, want at least 20", hits-hits0)
	}
	if avg > 3 {
		t.Errorf("steady-state knee search allocates %.0f times for %d probes, want at most 3", avg, k.Evals)
	}
}

// TestKneeSearchOverloadedBracketSimulatesNothing pins the overload
// shortcut: every probe of an unaudited search on [1.1, 1.5] is offered
// at or above capacity, which saturated's first clause decides without
// a simulation. The search reports the floor as the knee after two
// probes and allocates nothing: no columns, no latency buffers, no
// server heap. A cancelled context still fails it, as it fails a
// simulated probe. A window under four requests, too short for
// saturated to judge, still simulates every probe and matches the
// oracle.
func TestKneeSearchOverloadedBracketSimulatesNothing(t *testing.T) {
	withoutAudit(t)
	cfg := queueing.Config{Servers: 8, Service: logNormal(0.004, 1.5), Requests: 5000, Seed: 3}
	var k queueing.Knee
	avg := testing.AllocsPerRun(20, func() {
		var err error
		if k, err = queueing.KneeSearch(context.Background(), cfg, 1.1, 1.5, 0.05); err != nil {
			t.Fatal(err)
		}
	})
	if !k.Found || k.KneeFrac != 1.1 || k.Evals != 2 {
		t.Fatalf("overloaded bracket: %+v, want the floor 1.1 as the knee after 2 probes", k)
	}
	if avg != 0 {
		t.Errorf("overloaded knee search allocates %.1f times, want 0", avg)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := queueing.KneeSearch(ctx, cfg, 1.1, 1.5, 0.05); err != context.Canceled {
		t.Errorf("overloaded knee search under a cancelled context: error %v, want %v", err, context.Canceled)
	}
	for n := 1; n <= 4; n++ {
		cfg.Requests = n
		got, err := queueing.KneeSearch(context.Background(), cfg, 1.1, 1.5, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		want, err := oracle.KneeSearch(context.Background(), cfg, 1.1, 1.5, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		if !sameKnee(got, want, false) {
			t.Errorf("%d requests:\n got %+v\nwant %+v", n, got, want)
		}
	}
}

// TestFastMatchesReferenceAcrossSeeds runs the same stable queue
// through the production kernel and through the oracle's reference
// samplers across 35 seeds. The two draw different sequences, so
// per-seed results differ by simulation noise; the test pins (a)
// per-seed agreement within a loose band, (b) the across-seed mean P95s
// within a tight band, and (c) identical saturation verdicts at a
// comfortably stable operating point.
func TestFastMatchesReferenceAcrossSeeds(t *testing.T) {
	base := queueing.Config{
		Servers:     8,
		ArrivalRate: 0.7 * queueing.Capacity(8, logNormal(0.004, 1)),
		Service:     queueing.LogNormal{MeanSeconds: 0.004, CV: 1},
		Requests:    40000,
	}
	var fastSum, refSum float64
	for seed := uint64(1); seed <= 35; seed++ {
		cfg := base
		cfg.Seed = seed
		fast := runProd(t, cfg)
		ref := runOracle(t, cfg, oracle.ReferenceSampler)
		if fast.Saturated != ref.Saturated {
			t.Errorf("seed %d: saturation verdicts differ (fast=%v ref=%v)", seed, fast.Saturated, ref.Saturated)
		}
		if rel := math.Abs(fast.P95-ref.P95) / ref.P95; rel > 0.10 {
			t.Errorf("seed %d: fast P95 %.6f vs reference %.6f (%.1f%% apart)", seed, fast.P95, ref.P95, rel*100)
		}
		fastSum += fast.P95
		refSum += ref.P95
	}
	if rel := math.Abs(fastSum-refSum) / refSum; rel > 0.01 {
		t.Errorf("35-seed mean P95: fast %.6f vs reference %.6f (%.2f%% apart, want <1%%)", fastSum/35, refSum/35, rel*100)
	}
}

// TestReferenceSamplingDeterministic pins that the oracle's reference
// sampler is a pure function of the config, which the statistical
// comparison above relies on.
func TestReferenceSamplingDeterministic(t *testing.T) {
	cfg := queueing.Config{Servers: 4, ArrivalRate: 800, Service: exponential(0.004), Requests: 20000, Seed: 17}
	a, b := runOracle(t, cfg, oracle.ReferenceSampler), runOracle(t, cfg, oracle.ReferenceSampler)
	if a != b {
		t.Fatalf("reference runs diverged: %+v vs %+v", a, b)
	}
}

func BenchmarkRunScalarLoop(b *testing.B) {
	cfg := queueing.Config{Servers: 8, ArrivalRate: 0.9 * queueing.Capacity(8, logNormal(0.004, 1.5)), Service: logNormal(0.004, 1.5), Requests: 30000, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := oracle.FastSampler.Run(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}
