// Command gsfbench measures the simulators' hot paths and emits
// machine-readable perf artifacts. The alloc suite (BENCH_alloc.json)
// replays the 35-trace allocation sweep through the production
// columnar allocator and through the internal/oracle linear scan,
// verifying they are decision-identical and gating on a minimum
// speedup. The queue suite (BENCH_queue.json) runs the Table III
// profiling sweep over the green-SKU catalog through the production
// queueing kernel and through the internal/oracle scalar loop with its
// fast and its reference samplers, verifying the factor matrices are
// identical and gating on the speedups (queue.go).
//
// Usage:
//
//	gsfbench                                    # both suites, write artifacts
//	gsfbench -suite alloc -min-speedup 2        # CI gate: columnar allocator vs oracle
//	gsfbench -suite queue -queue-min-speedup 2  # CI gate on the queueing kernel
//	gsfbench -suite queue -queue-min-batch-speedup 2 -queue-min-cumulative 8
//	                                            # CI gates on the batched kernel
//	gsfbench -suite scale -scale-min-speedup 2  # CI gate: columnar fleet vs oracle at scale
//	gsfbench -suite alloc -scale-servers 1000000  # grow the artifact's scale table
//	gsfbench -quick                             # small smoke run
//	gsfbench -suite queue -cpuprofile cpu.out -memprofile mem.out
//	                                            # profile the kernel sweep
//
// The scale suite replays the columnar streaming path (GSFB decode +
// virgin-frontier fleet) against the oracle's linear scan over plain
// server structs at large fleet sizes, verifying decision identity;
// standalone it writes BENCH_scale.json, and with -scale-servers the
// alloc suite embeds the same row in BENCH_alloc.json's "scale" table.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"

	"github.com/greensku/gsf/internal/experiments"
)

func main() {
	suite := flag.String("suite", "all", "which benchmarks to run: all, alloc, queue, or scale")
	servers := flag.Int("servers", 10000, "servers per class in the allocation sweep")
	traces := flag.Int("traces", 35, "production-suite traces to replay (max 35)")
	out := flag.String("out", "BENCH_alloc.json", "alloc artifact path ('-' for stdout)")
	qout := flag.String("qout", "BENCH_queue.json", "queue artifact path ('-' for stdout)")
	sout := flag.String("scale-out", "BENCH_scale.json", "scale artifact path for -suite scale ('-' for stdout)")
	minSpeedup := flag.Float64("min-speedup", 0, "exit non-zero unless the columnar allocator's speedup over the oracle reaches this (0 disables)")
	queueMinSpeedup := flag.Float64("queue-min-speedup", 0, "exit non-zero unless the queueing kernel fast/reference speedup reaches this (0 disables)")
	queueMinBatchSpeedup := flag.Float64("queue-min-batch-speedup", 0, "exit non-zero unless the batched/fast kernel speedup reaches this (0 disables)")
	queueMinCumulative := flag.Float64("queue-min-cumulative", 0, "exit non-zero unless the batched/reference cumulative speedup reaches this (0 disables)")
	scaleServers := flag.Int("scale-servers", 0, "servers per class in the scale bench (0 skips it in the alloc suite; -suite scale defaults to 1000000)")
	scaleTraces := flag.Int("scale-traces", 6, "production-suite traces in the scale bench")
	scaleMinSpeedup := flag.Float64("scale-min-speedup", 0, "exit non-zero unless the columnar fleet's speedup over the oracle at scale reaches this (0 disables)")
	qServers := flag.Int("qservers", 64, "queueing curve benchmark parallelism")
	qSteps := flag.Int("qsteps", 8, "queueing curve load points")
	qRequests := flag.Int("qrequests", 0, "requests per simulation in the queue suite (0 = paper default)")
	seed := flag.Uint64("seed", 42, "queueing benchmark seed")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := flag.String("memprofile", "", "write an allocation profile (after the run) to this file")
	quick := flag.Bool("quick", false, "small smoke run (4 traces, 500 servers, 4 curve points, short simulations)")
	flag.Parse()

	if *quick {
		*traces, *servers, *qSteps, *scaleTraces = 4, 500, 4, 2
		if *scaleServers > 0 || *suite == "scale" {
			*scaleServers = 20000
		}
		if *qRequests == 0 {
			*qRequests = 4000
		}
	}
	switch *suite {
	case "all", "alloc", "queue", "scale":
	default:
		fmt.Fprintf(os.Stderr, "gsfbench: unknown suite %q (want all, alloc, queue, or scale)\n", *suite)
		os.Exit(2)
	}
	if *suite == "scale" && *scaleServers <= 0 {
		*scaleServers = 1000000
	}
	var cpuf *os.File
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gsfbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "gsfbench:", err)
			os.Exit(1)
		}
		cpuf = f
	}
	err := run(*suite, *servers, *traces, *out, *qout, *sout, *minSpeedup, *queueMinSpeedup, *queueMinBatchSpeedup, *queueMinCumulative, *scaleMinSpeedup, *scaleServers, *scaleTraces, *qServers, *qSteps, *qRequests, *seed)
	if cpuf != nil {
		pprof.StopCPUProfile()
		if cerr := cpuf.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if *memprofile != "" {
		if perr := writeMemProfile(*memprofile); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "gsfbench:", err)
		os.Exit(1)
	}
}

// writeMemProfile snapshots the allocation profile after the run.
func writeMemProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC() // flush recent allocations into the profile
	werr := pprof.WriteHeapProfile(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	return werr
}

func run(suite string, servers, traces int, out, qout, sout string, minSpeedup, queueMinSpeedup, queueMinBatchSpeedup, queueMinCumulative, scaleMinSpeedup float64, scaleServers, scaleTraces, qServers, qSteps, qRequests int, seed uint64) error {
	ctx := context.Background()
	if suite == "all" || suite == "alloc" {
		if err := runAlloc(ctx, servers, traces, out, minSpeedup, scaleMinSpeedup, scaleServers, scaleTraces, qServers, qSteps, seed); err != nil {
			return err
		}
	}
	if suite == "all" || suite == "queue" {
		if err := runQueue(ctx, qout, queueMinSpeedup, queueMinBatchSpeedup, queueMinCumulative, qRequests, seed); err != nil {
			return err
		}
	}
	if suite == "scale" {
		if err := runScale(ctx, sout, scaleMinSpeedup, scaleServers, scaleTraces); err != nil {
			return err
		}
	}
	return nil
}

func runAlloc(ctx context.Context, servers, traces int, out string, minSpeedup, scaleMinSpeedup float64, scaleServers, scaleTraces, qServers, qSteps int, seed uint64) error {
	alloc, err := allocSweepBench(ctx, traces, servers)
	if err != nil {
		return err
	}
	fmt.Printf("alloc sweep: %d traces, %d VMs, %d servers/class (%s)\n",
		alloc.Traces, alloc.VMs, alloc.ServersPerClass, alloc.Policy)
	fmt.Printf("  indexed   %8.3fs   (columnar fleet)\n", alloc.IndexedSeconds)
	fmt.Printf("  reference %8.3fs   (oracle linear scan)\n", alloc.ReferenceSeconds)
	fmt.Printf("  speedup   %8.2fx   decision-identical: %v\n", alloc.Speedup, alloc.DecisionIdentical)

	queue, err := experiments.QueueBench(experiments.QueueBenchOptions{
		Servers: qServers, Steps: qSteps, Seed: seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("queueing curve: %d servers, %d points in %.3fs\n", queue.Servers, queue.Steps, queue.Seconds)

	art := experiments.BenchArtifact{Alloc: alloc, Queueing: queue}
	var scale experiments.AllocScaleResult
	if scaleServers > 0 {
		scale, err = runScaleBench(ctx, scaleServers, scaleTraces)
		if err != nil {
			return err
		}
		art.Scale = append(art.Scale, scale)
	}
	if err := writeTo(out, func(f *os.File) error { return experiments.WriteBenchArtifact(f, art) }); err != nil {
		return err
	}

	if !alloc.DecisionIdentical {
		return fmt.Errorf("columnar allocator and oracle diverged — the columnar allocator is wrong")
	}
	if minSpeedup > 0 && alloc.Speedup < minSpeedup {
		return fmt.Errorf("indexed path speedup %.2fx below the %.2fx gate", alloc.Speedup, minSpeedup)
	}
	if scaleServers > 0 {
		return gateScale(scale, scaleMinSpeedup)
	}
	return nil
}

// runScaleBench runs the large-fleet columnar-vs-oracle replay and
// prints its measurement.
func runScaleBench(ctx context.Context, scaleServers, scaleTraces int) (experiments.AllocScaleResult, error) {
	scale, err := allocScaleBench(ctx, scaleTraces, scaleServers)
	if err != nil {
		return experiments.AllocScaleResult{}, err
	}
	fmt.Printf("scale replay: %d traces, %d VMs, %d servers/class (%s)\n",
		scale.Traces, scale.VMs, scale.ServersPerClass, scale.Policy)
	fmt.Printf("  columnar  %8.3fs   (streaming GSFB decode)\n", scale.ColumnarSeconds)
	fmt.Printf("  reference %8.3fs   (oracle linear scan)\n", scale.ReferenceSeconds)
	fmt.Printf("  speedup   %8.2fx   decision-identical: %v\n", scale.Speedup, scale.DecisionIdentical)
	return scale, nil
}

func gateScale(scale experiments.AllocScaleResult, scaleMinSpeedup float64) error {
	if !scale.DecisionIdentical {
		return fmt.Errorf("columnar and oracle replays diverged — the columnar fleet is wrong")
	}
	if scaleMinSpeedup > 0 && scale.Speedup < scaleMinSpeedup {
		return fmt.Errorf("columnar replay speedup %.2fx below the %.2fx gate", scale.Speedup, scaleMinSpeedup)
	}
	return nil
}

func runScale(ctx context.Context, sout string, scaleMinSpeedup float64, scaleServers, scaleTraces int) error {
	scale, err := runScaleBench(ctx, scaleServers, scaleTraces)
	if err != nil {
		return err
	}
	art := experiments.ScaleArtifact{Scale: []experiments.AllocScaleResult{scale}}
	if err := writeTo(sout, func(f *os.File) error { return experiments.WriteScaleArtifact(f, art) }); err != nil {
		return err
	}
	return gateScale(scale, scaleMinSpeedup)
}

// writeTo writes an artifact to path ('-' means stdout).
func writeTo(path string, write func(*os.File) error) error {
	if path == "-" {
		return write(os.Stdout)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := write(f)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		fmt.Printf("wrote %s\n", path)
	}
	return werr
}
