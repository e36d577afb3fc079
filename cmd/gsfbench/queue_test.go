package main

import (
	"context"
	"path/filepath"
	"reflect"
	"testing"

	"github.com/greensku/gsf/internal/hw"
	"github.com/greensku/gsf/internal/oracle"
	"github.com/greensku/gsf/internal/perf"
	"github.com/greensku/gsf/internal/queueing"
)

// TestTableIIIRestatementMatchesPerf pins the queue suite's copy of the
// per-cell scaling loop to perf's: run on the production kernel, with
// and without the SLO memo, it must reproduce perf.TableIIIContext's
// matrix for every green SKU, so factors_identical keeps its meaning.
// The oracle's fast sampler must reproduce it too.
func TestTableIIIRestatementMatchesPerf(t *testing.T) {
	ctx := context.Background()
	opt := perf.DefaultOptions()
	opt.Requests = 6000
	for _, g := range []hw.SKU{hw.GreenSKUEfficient(), hw.GreenSKUCXL(), hw.GreenSKUFull()} {
		want, err := perf.TableIIIContext(ctx, g, opt)
		if err != nil {
			t.Fatal(err)
		}
		for name, run := range map[string]runFunc{"production": queueing.RunContext, "oracle-fast": oracle.FastSampler.Run} {
			got, err := tableIII(ctx, g, opt, run, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, %s: restated Table III differs from perf.TableIIIContext:\n got %v\nwant %v", g.Name, name, got, want)
			}
		}
	}
}

// TestQueueKernelBenchSmall checks the suite's structure at a small
// request count. Speedups are hardware-dependent; the CI gates enforce
// them.
func TestQueueKernelBenchSmall(t *testing.T) {
	res, err := queueKernelBench(context.Background(), 3000, 42)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FactorsIdentical {
		t.Fatal("queue suite arms produced different factor matrices")
	}
	if len(res.SKUs) != 3 || res.Cells != 180 || res.Requests != 3000 {
		t.Fatalf("unexpected suite shape: %+v", res)
	}
	if res.BatchSeconds <= 0 || res.FastSeconds <= 0 || res.ReferenceSeconds <= 0 {
		t.Fatalf("timings not recorded: %+v", res)
	}
	if res.Knee.Servers != 64 || res.Knee.Evals == 0 || res.Knee.Evals >= res.Knee.FixedStepEvals {
		t.Fatalf("knee row: %+v", res.Knee)
	}
}

// TestQueueBenchAndArtifactRoundTrip checks the saturation curve's
// shape and that the queue suite's result survives the gsf-bench/v2
// artifact.
func TestQueueBenchAndArtifactRoundTrip(t *testing.T) {
	q, err := curveBench(3, 11)
	if err != nil {
		t.Fatal(err)
	}
	if q.Servers != curveServers || q.Steps != 3 || len(q.Points) != 3 {
		t.Fatalf("want 3 curve points at %d servers, got %+v", curveServers, q)
	}
	for i := 1; i < len(q.Points); i++ {
		if q.Points[i].QPS <= q.Points[i-1].QPS {
			t.Fatalf("curve QPS not increasing: %+v", q.Points)
		}
	}

	path := filepath.Join(t.TempDir(), "BENCH_queue.json")
	if err := writeArtifact(path, "queue", queueKernelBenchResult{FactorsIdentical: true, Curve: q}); err != nil {
		t.Fatal(err)
	}
	var back queueKernelBenchResult
	schema, suite := readArtifact(t, path, &back)
	if schema != "gsf-bench/v2" || suite != "queue" {
		t.Fatalf("schema %q, suite %q", schema, suite)
	}
	if !reflect.DeepEqual(back.Curve, q) || !back.FactorsIdentical {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}
