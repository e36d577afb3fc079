package main

// The allocation suites: the production columnar simulator timed
// against the internal/oracle linear scan, trace by trace, with the
// Results checked bit for bit. They live here rather than in
// internal/experiments so that no production package imports the
// oracle.

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"time"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/core"
	"github.com/greensku/gsf/internal/experiments"
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/oracle"
	"github.com/greensku/gsf/internal/trace"
)

// benchDecider adopts most VMs with fractional scaling factors so the
// sweep exercises both pools and non-integral free capacities — the
// same shape the differential walls use.
func benchDecider(vm trace.VM) alloc.Decision {
	return alloc.Decision{Adopt: vm.ID%10 < 7, Scale: 1 + 0.1*float64(vm.ID%3)}
}

// benchConfig is a baseline Gen3 plus GreenSKU-Full cluster with n
// servers per class, best-fit with prefer-non-empty.
func benchConfig(n int) alloc.Config {
	base := hw.BaselineGen3()
	green := hw.GreenSKUFull()
	return alloc.Config{
		Base:   core.ClassOf(base, false),
		NBase:  n,
		Green:  core.ClassOf(green, true),
		NGreen: n,
		Policy: alloc.BestFit, PreferNonEmpty: true,
	}
}

// suiteTraces returns the first n production-suite traces (all 35 when
// n is out of range).
func suiteTraces(n int) ([]trace.Trace, error) {
	traces, err := trace.ProductionSuite()
	if err != nil {
		return nil, err
	}
	if n > 0 && n < len(traces) {
		traces = traces[:n]
	}
	return traces, nil
}

// timeReplays runs replay on every trace and returns the Results and
// the total wall time.
func timeReplays(traces []trace.Trace, replay func(int) (alloc.Result, error)) ([]alloc.Result, float64, error) {
	out := make([]alloc.Result, len(traces))
	start := time.Now()
	for i := range traces {
		res, err := replay(i)
		if err != nil {
			return nil, 0, err
		}
		out[i] = res
	}
	return out, time.Since(start).Seconds(), nil
}

// allocSweepBench replays nTraces production traces through the
// columnar simulator and the oracle at servers per class, times both
// serially, and checks they produce bit-identical Results.
func allocSweepBench(ctx context.Context, nTraces, servers int) (experiments.AllocBenchResult, error) {
	traces, err := suiteTraces(nTraces)
	if err != nil {
		return experiments.AllocBenchResult{}, err
	}
	cfg := benchConfig(servers)
	indexed, indexedSec, err := timeReplays(traces, func(i int) (alloc.Result, error) {
		return alloc.SimulateContext(ctx, traces[i], cfg, benchDecider)
	})
	if err != nil {
		return experiments.AllocBenchResult{}, err
	}
	reference, referenceSec, err := timeReplays(traces, func(i int) (alloc.Result, error) {
		return oracle.Simulate(traces[i], cfg, benchDecider, nil)
	})
	if err != nil {
		return experiments.AllocBenchResult{}, err
	}
	res := experiments.AllocBenchResult{
		Traces:            len(traces),
		ServersPerClass:   servers,
		Policy:            cfg.Policy.String(),
		IndexedSeconds:    indexedSec,
		ReferenceSeconds:  referenceSec,
		DecisionIdentical: true,
	}
	if indexedSec > 0 {
		res.Speedup = referenceSec / indexedSec
	}
	for i := range traces {
		res.VMs += len(traces[i].VMs)
		res.Placed += indexed[i].Placed
		res.Rejected += indexed[i].Rejected
		res.DecisionIdentical = res.DecisionIdentical && sameResult(indexed[i], reference[i])
	}
	return res, nil
}

// allocScaleBench times the columnar streaming replay (GSFB decode +
// virgin-frontier fleet) against the oracle at a large fleet size and
// checks they produce bit-identical Results. The columnar arm only
// materializes the servers a trace touches; the oracle builds and
// scans every configured server.
func allocScaleBench(ctx context.Context, nTraces, servers int) (experiments.AllocScaleResult, error) {
	traces, err := suiteTraces(nTraces)
	if err != nil {
		return experiments.AllocScaleResult{}, err
	}
	cfg := benchConfig(servers)
	// Encode once up front; the columnar arm times decode + replay
	// (the production path), not encode.
	encoded := make([][]byte, len(traces))
	for i := range traces {
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, traces[i]); err != nil {
			return experiments.AllocScaleResult{}, fmt.Errorf("encoding %s: %w", traces[i].Name, err)
		}
		encoded[i] = buf.Bytes()
	}
	columnar, columnarSec, err := timeReplays(traces, func(i int) (alloc.Result, error) {
		src, err := trace.NewBinaryReader(bytes.NewReader(encoded[i]))
		if err != nil {
			return alloc.Result{}, err
		}
		return alloc.SimulateSource(ctx, src, cfg, benchDecider)
	})
	if err != nil {
		return experiments.AllocScaleResult{}, err
	}
	reference, referenceSec, err := timeReplays(traces, func(i int) (alloc.Result, error) {
		return oracle.Simulate(traces[i], cfg, benchDecider, nil)
	})
	if err != nil {
		return experiments.AllocScaleResult{}, err
	}
	res := experiments.AllocScaleResult{
		Traces:            len(traces),
		ServersPerClass:   servers,
		Policy:            cfg.Policy.String(),
		ColumnarSeconds:   columnarSec,
		ReferenceSeconds:  referenceSec,
		DecisionIdentical: true,
	}
	if columnarSec > 0 {
		res.Speedup = referenceSec / columnarSec
	}
	for i := range traces {
		res.VMs += len(traces[i].VMs)
		res.Placed += columnar[i].Placed
		res.Rejected += columnar[i].Rejected
		res.DecisionIdentical = res.DecisionIdentical && sameResult(columnar[i], reference[i])
	}
	return res, nil
}

// sameResult compares two Results bit for bit (NaN equals NaN; -0
// differs from +0).
func sameResult(a, b alloc.Result) bool {
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	stats := func(x, y alloc.ClassStats) bool {
		return same(x.CorePacking, y.CorePacking) && same(x.MemPacking, y.MemPacking) &&
			same(x.MaxMemUtil, y.MaxMemUtil) && same(x.CXLServedFrac, y.CXLServedFrac) &&
			same(x.LocalFitsFrac, y.LocalFitsFrac)
	}
	return a.Placed == b.Placed && a.Rejected == b.Rejected && a.Snapshots == b.Snapshots &&
		a.DeferrablePlaced == b.DeferrablePlaced && a.DeferrableRejected == b.DeferrableRejected &&
		stats(a.Base, b.Base) && stats(a.Green, b.Green)
}
