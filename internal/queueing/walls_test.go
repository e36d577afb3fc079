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
		if kb != kr {
			t.Fatalf("servers %d: batched knee %+v != oracle knee %+v", servers, kb, kr)
		}
	}
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
// × 4 service shapes × 8 and 96 servers × audit on and off. Audited
// runs must also record no violations.
func TestKneeSearchMatchesPerProbeOracle35Seeds(t *testing.T) {
	seeds := uint64(35)
	if testing.Short() || raceEnabled {
		seeds = 5
	}
	withoutAudit(t)
	ctx := context.Background()
	for _, audited := range []bool{false, true} {
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
// takes its random columns and both latency buffers from their pools.
// What it does allocate is one server heap per probe plus the prober,
// its RNG and the prepared sampler; fresh columns would add three
// allocations per search, fresh latency buffers two each.
func TestKneeSearchColumnsFromPool(t *testing.T) {
	if raceEnabled {
		t.Skip("under the race detector sync.Pool drops items at random")
	}
	withoutAudit(t)
	cfg := queueing.Config{Servers: 8, Service: logNormal(0.004, 1.5), Requests: 5000, Seed: 3}
	var k queueing.Knee
	avg := testing.AllocsPerRun(20, func() {
		var err error
		if k, err = queueing.KneeSearch(context.Background(), cfg, 0.5, 1.3, 0.02); err != nil {
			t.Fatal(err)
		}
	})
	if want := float64(k.Evals + 3); avg > want {
		t.Errorf("steady-state knee search allocates %.0f times for %d probes, want at most %.0f", avg, k.Evals, want)
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
