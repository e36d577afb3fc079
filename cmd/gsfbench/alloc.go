package main

// The alloc suite: the production columnar simulator, streaming
// GSFB-encoded traces, timed against the internal/oracle linear scan
// trace by trace, with the Results checked bit for bit. One function
// serves every fleet size, from CI's 10k servers per class to the
// million-server replay. It lives here rather than in
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
	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/oracle"
	"github.com/greensku/gsf/internal/trace"
)

// allocBenchResult is the alloc suite's measurement.
type allocBenchResult struct {
	Traces            int     `json:"traces"`
	VMs               int     `json:"vms"`
	ServersPerClass   int     `json:"servers_per_class"`
	Policy            string  `json:"policy"`
	ColumnarSeconds   float64 `json:"columnar_seconds"`
	ReferenceSeconds  float64 `json:"reference_seconds"`
	Speedup           float64 `json:"speedup"`
	DecisionIdentical bool    `json:"decision_identical"`
	Placed            int     `json:"placed"`
	Rejected          int     `json:"rejected"`
}

// benchDecider adopts most VMs with fractional scaling factors so the
// replay exercises both pools and non-integral free capacities — the
// same shape the differential walls use.
func benchDecider(vm trace.VM) alloc.Decision {
	return alloc.Decision{Adopt: vm.ID%10 < 7, Scale: 1 + 0.1*float64(vm.ID%3)}
}

// benchConfig is a baseline Gen3 plus GreenSKU-Full cluster with n
// servers per class, best-fit with prefer-non-empty.
func benchConfig(n int) alloc.Config {
	return alloc.Config{
		Base:   core.ClassOf(hw.BaselineGen3(), false),
		NBase:  n,
		Green:  core.ClassOf(hw.GreenSKUFull(), true),
		NGreen: n,
		Policy: alloc.BestFit, PreferNonEmpty: true,
	}
}

// timeReplays runs replay on each of n traces and returns the Results
// and the total wall time.
func timeReplays(n int, replay func(int) (alloc.Result, error)) ([]alloc.Result, float64, error) {
	out := make([]alloc.Result, n)
	start := time.Now()
	for i := range out {
		res, err := replay(i)
		if err != nil {
			return nil, 0, err
		}
		out[i] = res
	}
	return out, time.Since(start).Seconds(), nil
}

// allocBench replays the first nTraces production traces (all 35 when
// nTraces is out of range) at servers per class, serially, and checks
// the two arms' Results are bit-identical. The columnar arm times
// GSFB decode plus replay, the production streaming path, and only
// materializes the servers a trace touches; the oracle replays the
// materialized trace and builds and scans every configured server.
func allocBench(ctx context.Context, nTraces, servers int) (allocBenchResult, error) {
	traces, err := trace.ProductionSuite()
	if err != nil {
		return allocBenchResult{}, err
	}
	if nTraces > 0 && nTraces < len(traces) {
		traces = traces[:nTraces]
	}
	cfg := benchConfig(servers)
	encoded := make([][]byte, len(traces))
	for i := range traces {
		var buf bytes.Buffer
		if err := trace.WriteBinary(&buf, traces[i]); err != nil {
			return allocBenchResult{}, fmt.Errorf("encoding %s: %w", traces[i].Name, err)
		}
		encoded[i] = buf.Bytes()
	}
	columnar, columnarSec, err := timeReplays(len(traces), func(i int) (alloc.Result, error) {
		src, err := trace.NewBinaryReader(bytes.NewReader(encoded[i]))
		if err != nil {
			return alloc.Result{}, err
		}
		return alloc.SimulateSource(ctx, src, cfg, benchDecider)
	})
	if err != nil {
		return allocBenchResult{}, err
	}
	reference, referenceSec, err := timeReplays(len(traces), func(i int) (alloc.Result, error) {
		return oracle.Simulate(traces[i], cfg, benchDecider, nil)
	})
	if err != nil {
		return allocBenchResult{}, err
	}
	res := allocBenchResult{
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

// runAlloc is the alloc suite: it measures, prints and gates.
func runAlloc(ctx context.Context, opt options) (any, error) {
	res, err := allocBench(ctx, opt.traces, opt.servers)
	if err != nil {
		return nil, err
	}
	fmt.Printf("alloc replay: %d traces, %d VMs, %d servers/class (%s)\n",
		res.Traces, res.VMs, res.ServersPerClass, res.Policy)
	fmt.Printf("  columnar  %8.3fs   (streaming GSFB decode)\n", res.ColumnarSeconds)
	fmt.Printf("  reference %8.3fs   (oracle linear scan)\n", res.ReferenceSeconds)
	fmt.Printf("  speedup   %8.2fx   decision-identical: %v\n", res.Speedup, res.DecisionIdentical)
	if !res.DecisionIdentical {
		return res, fmt.Errorf("columnar allocator and oracle diverged — the columnar allocator is wrong")
	}
	if opt.minSpeedup > 0 && res.Speedup < opt.minSpeedup {
		return res, fmt.Errorf("columnar replay speedup %.2fx below the %.2fx gate", res.Speedup, opt.minSpeedup)
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
