package alloc

import (
	"testing"

	"github.com/greensku/gsf/internal/trace"
)

func benchTrace(b *testing.B) trace.Trace {
	b.Helper()
	p := trace.DefaultParams("bench", 31)
	p.HorizonHours = 24 * 7
	tr, err := trace.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	return tr
}

func BenchmarkSimulateBestFit(b *testing.B) {
	tr := benchTrace(b)
	cfg := Config{
		Base:   ServerClass{Name: "base", Cores: 80, Memory: 768, LocalMemory: 768},
		NBase:  60,
		Green:  ServerClass{Name: "green", Cores: 128, Memory: 1024, LocalMemory: 768, Green: true},
		NGreen: 30, Policy: BestFit, PreferNonEmpty: true,
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Simulate(tr, cfg, AdoptAll); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(tr.VMs)), "vms/run")
}

func BenchmarkSimulatePolicies(b *testing.B) {
	tr := benchTrace(b)
	for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := Config{
				Base:  ServerClass{Name: "base", Cores: 80, Memory: 768, LocalMemory: 768},
				NBase: 90, Policy: pol, PreferNonEmpty: true,
			}
			for i := 0; i < b.N; i++ {
				if _, err := Simulate(tr, cfg, AdoptNone); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
