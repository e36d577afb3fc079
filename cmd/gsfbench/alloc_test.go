package main

// Small-scale checks of the allocation suites. Speedup magnitudes are
// hardware-dependent, so these assert structure and decision identity,
// not timing; the CI gates enforce the speedups.

import (
	"context"
	"testing"
)

func TestAllocSweepBenchSmall(t *testing.T) {
	res, err := allocSweepBench(context.Background(), 2, 40)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != 2 || res.ServersPerClass != 40 {
		t.Fatalf("options not honoured: %+v", res)
	}
	if !res.DecisionIdentical {
		t.Fatal("columnar allocator and oracle diverged")
	}
	if res.Placed == 0 || res.VMs == 0 {
		t.Fatalf("degenerate sweep: %+v", res)
	}
	if res.IndexedSeconds <= 0 || res.ReferenceSeconds <= 0 || res.Speedup <= 0 {
		t.Fatalf("timings not recorded: %+v", res)
	}
	if res.Policy != "best-fit" {
		t.Fatalf("policy label %q", res.Policy)
	}
}

func TestAllocScaleBenchSmall(t *testing.T) {
	res, err := allocScaleBench(context.Background(), 1, 2000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Traces != 1 || res.ServersPerClass != 2000 || res.Placed == 0 {
		t.Fatalf("degenerate scale run: %+v", res)
	}
	if !res.DecisionIdentical {
		t.Fatal("columnar fleet and oracle diverged")
	}
}
