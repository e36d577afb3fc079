package main

// Small-scale checks of the alloc suite. Speedup magnitudes are
// hardware-dependent, so these assert structure and decision identity,
// not timing; the CI gates enforce the speedups. One check serves both
// fleet sizes.

import (
	"context"
	"testing"
)

func TestAllocSweepBenchSmall(t *testing.T) { checkAllocBench(t, 2, 40) }

func TestAllocScaleBenchSmall(t *testing.T) { checkAllocBench(t, 1, 2000) }

func checkAllocBench(t *testing.T, traces, servers int) {
	t.Helper()
	res, err := allocBench(context.Background(), traces, servers)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != traces || res.ServersPerClass != servers {
		t.Fatalf("options not honoured: %+v", res)
	}
	if !res.DecisionIdentical {
		t.Fatal("columnar allocator and oracle diverged")
	}
	if res.Placed == 0 || res.VMs == 0 {
		t.Fatalf("degenerate replay: %+v", res)
	}
	if res.ColumnarSeconds <= 0 || res.ReferenceSeconds <= 0 || res.Speedup <= 0 {
		t.Fatalf("timings not recorded: %+v", res)
	}
	if res.Policy != "best-fit" {
		t.Fatalf("policy label %q", res.Policy)
	}
}
