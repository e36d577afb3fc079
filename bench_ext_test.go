package gsf_test

// Benchmarks for the extension substrates: memory tiering, SSD stripe
// planning, power oversubscription, growth buffering, and the §VIII
// design-space search.

import (
	"testing"

	"github.com/greensku/gsf/internal/experiments"
)

func BenchmarkExtMemoryTiering(b *testing.B) {
	var under, untouched float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.MemTier()
		if err != nil {
			b.Fatal(err)
		}
		under = res.UnderFivePct
		untouched = res.MeanUntouched
	}
	b.ReportMetric(under*100, "under-5pct-slowdown-%")
	b.ReportMetric(untouched*100, "untouched-mem-%")
}

func BenchmarkExtStoragePlan(b *testing.B) {
	var sets, leftover int
	for i := 0; i < b.N; i++ {
		plan, err := experiments.StoragePlan()
		if err != nil {
			b.Fatal(err)
		}
		sets = len(plan.Sets)
		leftover = plan.Leftover
	}
	b.ReportMetric(float64(sets), "stripe-sets")
	b.ReportMetric(float64(leftover), "leftover-drives")
}

func BenchmarkExtPowerOversubscription(b *testing.B) {
	var breach float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.PowerStudy()
		if err != nil {
			b.Fatal(err)
		}
		breach = r.RackOver.BreachProb
	}
	b.ReportMetric(breach*100, "rack-breach-%")
}

func BenchmarkExtGrowthBuffer(b *testing.B) {
	var min float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.GrowthStudy()
		if err != nil {
			b.Fatal(err)
		}
		min = r.Minimal
	}
	b.ReportMetric(min*100, "minimal-buffer-%")
}

func BenchmarkExtDesignSearch(b *testing.B) {
	var savings float64
	var evals int
	for i := 0; i < b.N; i++ {
		r, err := experiments.DesignSearch()
		if err != nil {
			b.Fatal(err)
		}
		savings = r.Optimum.Savings
		evals = r.Optimum.Candidates
	}
	b.ReportMetric(savings*100, "optimal-savings-%")
	b.ReportMetric(float64(evals), "designs-evaluated")
}

func BenchmarkExtSKUDiversity(b *testing.B) {
	var extra float64
	for i := 0; i < b.N; i++ {
		r, err := experiments.Diversity()
		if err != nil {
			b.Fatal(err)
		}
		extra = r.ExtraSavings
	}
	b.ReportMetric(extra*100, "second-sku-extra-pp")
}
