package alloc_test

// Differential walls: the columnar simulator must be decision-identical
// to internal/oracle's linear scan over plain server structs. The walls
// replay the production suite under every policy and demand
// bit-identical Results; the single-pool wall also compares the exact
// per-VM placement sequences. TestMain wraps the package in
// audit.SweepMain, so every columnar pick here is also cross-checked
// against the columnar scan by the audit layer as it happens.

import (
	"bytes"
	"context"
	"testing"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/oracle"
	"github.com/greensku/gsf/internal/trace"
)

// placeRec is one observed placement.
type placeRec struct {
	vmID  int
	green bool
	srv   int32
}

// TestDifferentialIndexedVsScan35Traces replays the whole production
// suite under all 3 policies x PreferNonEmpty on/off, through the
// columnar simulator and the oracle, and asserts bit-identical Results
// and identical placement sequences. The cluster is sized so the sweep
// produces both placements and rejections.
func TestDifferentialIndexedVsScan35Traces(t *testing.T) {
	traces, err := trace.ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		traces = traces[:5]
	}
	totalPlaced, totalRejected := 0, 0
	for _, pol := range []alloc.Policy{alloc.BestFit, alloc.FirstFit, alloc.WorstFit} {
		for _, prefer := range []bool{false, true} {
			cfg := alloc.Config{
				Base:           alloc.BaseClass(),
				NBase:          40,
				Green:          alloc.GreenClass(),
				NGreen:         40,
				Policy:         pol,
				PreferNonEmpty: prefer,
			}
			for _, tr := range traces {
				var wantSeq, gotSeq []placeRec
				wantRes, err := oracle.Simulate(tr, cfg, alloc.DiffDecider, func(vmID int, green bool, srv int32) {
					wantSeq = append(wantSeq, placeRec{vmID, green, srv})
				})
				if err != nil {
					t.Fatal(err)
				}
				remove := alloc.ObservePlacements(func(vmID int, green bool, srv int32) {
					gotSeq = append(gotSeq, placeRec{vmID, green, srv})
				})
				gotRes, err := alloc.Simulate(tr, cfg, alloc.DiffDecider)
				remove()
				if err != nil {
					t.Fatal(err)
				}

				if !alloc.SameResult(gotRes, wantRes) {
					t.Errorf("%s (%v, preferNonEmpty=%v): columnar Result %+v != oracle %+v",
						tr.Name, pol, prefer, gotRes, wantRes)
				}
				if len(gotSeq) != len(wantSeq) {
					t.Errorf("%s (%v, preferNonEmpty=%v): %d columnar placements vs %d oracle",
						tr.Name, pol, prefer, len(gotSeq), len(wantSeq))
					continue
				}
				for i := range gotSeq {
					if gotSeq[i] != wantSeq[i] {
						t.Errorf("%s (%v, preferNonEmpty=%v): placement %d diverges: columnar %+v, oracle %+v",
							tr.Name, pol, prefer, i, gotSeq[i], wantSeq[i])
						break
					}
				}
				totalPlaced += gotRes.Placed
				totalRejected += gotRes.Rejected
			}
		}
	}
	// The sweep must have exercised both outcomes, or the identity
	// proof is vacuous on one side.
	if totalPlaced == 0 || totalRejected == 0 {
		t.Fatalf("differential sweep is degenerate: %d placed, %d rejected", totalPlaced, totalRejected)
	}
}

// TestDifferentialLayouts35Traces crosses both data layouts at once:
// each production trace is binary-encoded and streamed, never
// materialized, through SimulateSource into the columnar fleet, and
// must match the oracle's pointer-per-server structs replaying the
// materialized trace — bit-identical Results and identical per-VM
// placement sequences under every policy.
func TestDifferentialLayouts35Traces(t *testing.T) {
	traces, err := trace.ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		traces = traces[:5]
	}
	totalPlaced, totalRejected := 0, 0
	for _, tr := range traces {
		var bin bytes.Buffer
		if err := trace.WriteBinary(&bin, tr); err != nil {
			t.Fatal(err)
		}
		for _, pol := range []alloc.Policy{alloc.BestFit, alloc.FirstFit, alloc.WorstFit} {
			cfg := alloc.Config{
				Base:           alloc.BaseClass(),
				NBase:          40,
				Green:          alloc.GreenClass(),
				NGreen:         40,
				Policy:         pol,
				PreferNonEmpty: pol != alloc.FirstFit,
			}
			var structSeq, colSeq []placeRec
			structRes, err := oracle.Simulate(tr, cfg, alloc.DiffDecider, func(vmID int, green bool, srv int32) {
				structSeq = append(structSeq, placeRec{vmID, green, srv})
			})
			if err != nil {
				t.Fatal(err)
			}
			br, err := trace.NewBinaryReader(bytes.NewReader(bin.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			remove := alloc.ObservePlacements(func(vmID int, green bool, srv int32) {
				colSeq = append(colSeq, placeRec{vmID, green, srv})
			})
			colRes, err := alloc.SimulateSource(context.Background(), br, cfg, alloc.DiffDecider)
			remove()
			if err != nil {
				t.Fatal(err)
			}

			if !alloc.SameResult(colRes, structRes) {
				t.Errorf("%s (%v): streamed columnar Result %+v != struct %+v",
					tr.Name, pol, colRes, structRes)
			}
			if len(colSeq) != len(structSeq) {
				t.Errorf("%s (%v): %d streamed columnar placements vs %d struct",
					tr.Name, pol, len(colSeq), len(structSeq))
				continue
			}
			for i := range colSeq {
				if colSeq[i] != structSeq[i] {
					t.Errorf("%s (%v): placement %d diverges: streamed columnar %+v, struct %+v",
						tr.Name, pol, i, colSeq[i], structSeq[i])
					break
				}
			}
			totalPlaced += colRes.Placed
			totalRejected += colRes.Rejected
		}
	}
	if totalPlaced == 0 || totalRejected == 0 {
		t.Fatalf("layout differential is degenerate: %d placed, %d rejected", totalPlaced, totalRejected)
	}
}

// TestDifferentialMultiPool covers multi-pool replays the same way:
// per-pool scaled directives offer a VM to several green pools in
// turn, which the single-green walls never exercise. The three-green
// cluster mixes green and baseline classes so pools fill and fall
// through to each other.
func TestDifferentialMultiPool(t *testing.T) {
	traces, err := trace.ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		traces = traces[:4]
	}
	// scales[vm.ID%4][g] is green pool g's factor for the VM; 0 does
	// not offer it the pool.
	scales := [4][3]float64{{1.2, 0, 1}, {0, 1, 0}, {1, 1.5, 1.1}}
	decide := make([]alloc.Decider, 3)
	for g := range decide {
		decide[g] = func(vm trace.VM) alloc.Decision {
			f := scales[vm.ID%4][g]
			return alloc.Decision{Adopt: f > 0, Scale: f}
		}
	}
	totalPlaced, totalRejected := 0, 0
	for _, pol := range []alloc.Policy{alloc.BestFit, alloc.FirstFit, alloc.WorstFit} {
		mc := alloc.MultiConfig{
			Base: alloc.Pool{Class: alloc.BaseClass(), N: 30},
			Greens: []alloc.Pool{
				{Class: alloc.GreenClass(), N: 16},
				{Class: alloc.BaseClass(), N: 8},
				{Class: alloc.GreenClass(), N: 8},
			},
			Policy:         pol,
			PreferNonEmpty: pol != alloc.FirstFit,
		}
		for _, tr := range traces {
			want, wantStats, err := oracle.SimulatePools(tr, mc, decide)
			if err != nil {
				t.Fatal(err)
			}
			got, gotStats, err := alloc.SimulatePools(tr, mc, decide, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !alloc.SamePools(got, gotStats, want, wantStats) {
				t.Fatalf("%s (%v): columnar multi result %+v %+v != oracle %+v %+v",
					tr.Name, pol, got, gotStats, want, wantStats)
			}
			totalPlaced += got.Placed
			totalRejected += got.Rejected
		}
	}
	if totalPlaced == 0 || totalRejected == 0 {
		t.Fatalf("multi-pool differential is degenerate: %d placed, %d rejected", totalPlaced, totalRejected)
	}
}

// BenchmarkSimulateIndexedVsReference compares the columnar simulator
// against the oracle's linear scan on the same trace and cluster at a
// size where the scan's O(servers)-per-placement cost dominates. Run
// with -benchmem: the columnar path's per-run allocations must not
// grow with placements.
func BenchmarkSimulateIndexedVsReference(b *testing.B) {
	p := trace.DefaultParams("bench", 31)
	p.HorizonHours = 24 * 7
	tr, err := trace.Generate(p)
	if err != nil {
		b.Fatal(err)
	}
	// The package's TestMain installs a default audit Recorder, under
	// which every columnar pick is re-derived by a scan — honest for
	// tests, meaningless for timing. Suspend it here.
	prev := audit.Default()
	audit.SetDefault(nil)
	b.Cleanup(func() { audit.SetDefault(prev) })
	arms := []struct {
		name     string
		simulate func(trace.Trace, alloc.Config) (alloc.Result, error)
	}{
		{"indexed", func(tr trace.Trace, cfg alloc.Config) (alloc.Result, error) {
			return alloc.Simulate(tr, cfg, alloc.AdoptAll)
		}},
		{"reference", func(tr trace.Trace, cfg alloc.Config) (alloc.Result, error) {
			return oracle.Simulate(tr, cfg, alloc.AdoptAll, nil)
		}},
	}
	for _, pol := range []alloc.Policy{alloc.BestFit, alloc.FirstFit, alloc.WorstFit} {
		for _, arm := range arms {
			b.Run(pol.String()+"/"+arm.name, func(b *testing.B) {
				cfg := alloc.Config{
					Base:   alloc.ServerClass{Name: "base", Cores: 80, Memory: 768, LocalMemory: 768},
					NBase:  4000,
					Green:  alloc.ServerClass{Name: "green", Cores: 128, Memory: 1024, LocalMemory: 768, Green: true},
					NGreen: 4000, Policy: pol, PreferNonEmpty: true,
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := arm.simulate(tr, cfg); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
