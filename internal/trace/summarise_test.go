package trace

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"github.com/greensku/gsf/internal/units"
)

// summariseSortSlice is Summarise's peak sweep as a reflection
// sort.Slice over the same events, the reference the production sort
// must reproduce bit for bit: equal events may land in any order, and
// the memory running sum is order-sensitive in its last bits.
func summariseSortSlice(t Trace) (peakCores int, peakMem units.GB) {
	events := make([]demandEvent, 0, 2*len(t.VMs))
	for _, v := range t.VMs {
		events = append(events, demandEvent{v.Arrive, v.Cores, float64(v.Memory)},
			demandEvent{v.Depart, -v.Cores, -float64(v.Memory)})
	}
	sort.Slice(events, func(i, j int) bool {
		if events[i].at != events[j].at {
			return events[i].at < events[j].at
		}
		return events[i].cores < events[j].cores
	})
	var cores int
	var mem float64
	for _, e := range events {
		cores += e.cores
		mem += e.mem
		if cores > peakCores {
			peakCores = cores
		}
		if units.GB(mem) > peakMem {
			peakMem = units.GB(mem)
		}
	}
	return peakCores, peakMem
}

// tiedTrace rounds a generated trace's times to a coarse grid so many
// arrivals and departures share an instant, and gives each VM a
// fractional memory request so the order within a tie moves the memory
// sum's last bits.
func tiedTrace(t *testing.T, seed uint64, grid float64) Trace {
	p := DefaultParams(fmt.Sprintf("tied-%d", seed), seed)
	p.HorizonHours = 96
	p.ArrivalsPerHour = 20 + float64(seed%4)*10
	tr := gen(t, p)
	for i := range tr.VMs {
		v := &tr.VMs[i]
		v.Arrive = math.Floor(v.Arrive/grid) * grid
		v.Depart = math.Max(v.Arrive+grid, math.Ceil(v.Depart/grid)*grid)
		v.Memory = units.GB(float64(v.Memory) * (1 + float64(i%7)/10))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSummariseMatchesSortSlice pins Summarise's peaks bit for bit
// against the sort.Slice sweep, over the production suite and over
// traces dense with equal-time arrivals and departures.
func TestSummariseMatchesSortSlice(t *testing.T) {
	suite, err := ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 12; seed++ {
		suite = append(suite, tiedTrace(t, seed, []float64{0.25, 1, 6}[seed%3]))
	}
	ties := 0
	for _, tr := range suite {
		got := Summarise(tr)
		cores, mem := summariseSortSlice(tr)
		if got.PeakCoreDmd != cores || math.Float64bits(float64(got.PeakMemoryDmd)) != math.Float64bits(float64(mem)) {
			t.Fatalf("%s: Summarise peaks (%d cores, %v GB), sort.Slice sweep (%d cores, %v GB)",
				tr.Name, got.PeakCoreDmd, got.PeakMemoryDmd, cores, mem)
		}
		for i := 1; i < len(tr.VMs); i++ {
			if tr.VMs[i].Arrive == tr.VMs[i-1].Arrive {
				ties++
			}
		}
	}
	if ties == 0 {
		t.Fatal("no trace has equal-time arrivals")
	}
}

// TestSummariseMergePaths pins which sweep each kind of trace takes:
// continuous-time traces have no ties, so the merge of the separately
// sorted edges is their one sorted order; a trace whose tied edges all
// carry equal memory also stays on the merge; a tie with different
// memory falls back to the joint sort. Every path matches the
// sort.Slice sweep bit for bit.
func TestSummariseMergePaths(t *testing.T) {
	suite, err := ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	sameMemTies := tiedTrace(t, 5, 1)
	for i := range sameMemTies.VMs {
		v := &sameMemTies.VMs[i]
		v.Memory = units.GB(8 * v.Cores)
	}
	for _, tc := range []struct {
		tr     Trace
		merged bool
	}{
		{suite[0], true},
		{suite[len(suite)-1], true},
		{sameMemTies, true},
		{tiedTrace(t, 1, 0.25), false},
	} {
		n := len(tc.tr.VMs)
		arrivals, departures := make([]demandEvent, n), make([]demandEvent, n)
		for i, v := range tc.tr.VMs {
			arrivals[i] = demandEvent{v.Arrive, v.Cores, float64(v.Memory)}
			departures[i] = demandEvent{v.Depart, -v.Cores, -float64(v.Memory)}
		}
		slices.SortFunc(arrivals, cmpDemand)
		slices.SortFunc(departures, cmpDemand)
		var pk peakSweep
		if got := pk.sweepMerged(arrivals, departures); got != tc.merged {
			t.Errorf("%s: merged sweep %v, want %v", tc.tr.Name, got, tc.merged)
		}
		got := Summarise(tc.tr)
		cores, mem := summariseSortSlice(tc.tr)
		if got.PeakCoreDmd != cores || math.Float64bits(float64(got.PeakMemoryDmd)) != math.Float64bits(float64(mem)) {
			t.Errorf("%s: Summarise peaks (%d cores, %v GB), sort.Slice sweep (%d cores, %v GB)",
				tc.tr.Name, got.PeakCoreDmd, got.PeakMemoryDmd, cores, mem)
		}
	}
}

var benchStats Stats

func BenchmarkSummarise(b *testing.B) {
	p := DefaultParams("bench", 1)
	p.ArrivalsPerHour, p.HorizonHours = 24, 24*7
	tr, err := Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchStats = Summarise(tr)
	}
}
