// Command gsfbench measures the simulators' hot paths against the
// test-only internal/oracle implementations and writes one
// machine-readable artifact per suite (schema gsf-bench/v2). Each suite
// checks that the production path and the oracle agree, and can gate
// on a minimum speedup:
//
//   - alloc (BENCH_alloc.json): GSFB-encoded production-suite traces
//     streamed through the columnar allocator against the oracle's
//     linear scan, at -servers per class over -traces traces, checked
//     decision-identical (alloc.go).
//   - queue (BENCH_queue.json): the Table III profiling sweep over the
//     green-SKU catalog through the production queueing kernel and the
//     oracle's scalar loop with its fast and its reference samplers,
//     checked factor-identical, plus the adaptive knee search and the
//     Figs. 7–8 saturation curve (queue.go).
//
// Usage:
//
//	gsfbench                                    # every suite, each to its BENCH_<suite>.json
//	gsfbench -quick                             # small smoke run
//	gsfbench -suite alloc -min-speedup 2        # CI gate: 10k servers/class, 35 traces
//	gsfbench -suite alloc -servers 1000000 -traces 6 -out -
//	                                            # the million-server replay, to stdout
//	gsfbench -suite queue -queue-min-speedup 2 -queue-min-batch-speedup 2 -queue-min-cumulative 8
//	                                            # CI gates on the queueing kernel
//	gsfbench -suite queue -cpuprofile cpu.out -memprofile mem.out
//	                                            # profile the kernel sweep
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
)

// options are the measurement sizes and gates the suites read.
type options struct {
	servers, traces int
	seed            uint64
	quick           bool
	// Speedup gates; 0 disables each.
	minSpeedup                                                float64
	queueMinSpeedup, queueMinBatchSpeedup, queueMinCumulative float64
}

// suite is one benchmark. run measures, prints a summary and returns
// the result the artifact records. When the measurement completes but
// a correctness check or a gate fails, run returns the result together
// with the error, so the artifact still holds the failing numbers.
type suite struct {
	name string
	out  string // default artifact path
	run  func(context.Context, options) (any, error)
}

var suites = []suite{
	{"alloc", "BENCH_alloc.json", runAlloc},
	{"queue", "BENCH_queue.json", runQueue},
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "gsfbench:", err)
		os.Exit(1)
	}
}

func run(args []string) (err error) {
	var names []string
	for _, s := range suites {
		names = append(names, s.name)
	}
	fs := flag.NewFlagSet("gsfbench", flag.ContinueOnError)
	name := fs.String("suite", "all", "suite to run: all, "+strings.Join(names, ", "))
	out := fs.String("out", "", "artifact path when one -suite is selected ('-' for stdout; default BENCH_<suite>.json)")
	var opt options
	fs.IntVar(&opt.servers, "servers", 10000, "servers per class in the alloc suite")
	fs.IntVar(&opt.traces, "traces", 35, "production-suite traces the alloc suite replays (max 35)")
	fs.Float64Var(&opt.minSpeedup, "min-speedup", 0, "fail unless the columnar allocator's speedup over the oracle reaches this (0 disables)")
	fs.Float64Var(&opt.queueMinSpeedup, "queue-min-speedup", 0, "fail unless the queueing kernel fast/reference speedup reaches this (0 disables)")
	fs.Float64Var(&opt.queueMinBatchSpeedup, "queue-min-batch-speedup", 0, "fail unless the batched/fast kernel speedup reaches this (0 disables)")
	fs.Float64Var(&opt.queueMinCumulative, "queue-min-cumulative", 0, "fail unless the batched/reference cumulative speedup reaches this (0 disables)")
	fs.Uint64Var(&opt.seed, "seed", 42, "queue suite seed")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the benchmark run to this file")
	memprofile := fs.String("memprofile", "", "write an allocation profile (after the run) to this file")
	fs.BoolVar(&opt.quick, "quick", false, "small smoke run (4 traces at 500 servers; 4,000 requests per queue simulation, 4 curve points)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return nil
		}
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	selected, err := selectSuites(*name, *out)
	if err != nil {
		return err
	}
	if opt.quick {
		opt.traces, opt.servers = 4, 500
	}

	if *memprofile != "" {
		defer func() {
			if perr := writeMemProfile(*memprofile); err == nil {
				err = perr
			}
		}()
	}
	if *cpuprofile != "" {
		f, cerr := os.Create(*cpuprofile)
		if cerr != nil {
			return cerr
		}
		if cerr := pprof.StartCPUProfile(f); cerr != nil {
			f.Close()
			return cerr
		}
		defer func() {
			pprof.StopCPUProfile()
			if cerr := f.Close(); err == nil {
				err = cerr
			}
		}()
	}
	ctx := context.Background()
	for _, s := range selected {
		res, err := s.run(ctx, opt)
		if res != nil {
			if werr := writeArtifact(s.out, s.name, res); err == nil {
				err = werr
			}
		}
		if err != nil {
			return fmt.Errorf("%s: %w", s.name, err)
		}
	}
	return nil
}

// selectSuites resolves -suite and -out to the suites to run, each with
// its artifact path. -out names one file, so it needs one suite.
func selectSuites(name, out string) ([]suite, error) {
	if name == "all" {
		if out != "" {
			return nil, fmt.Errorf("-out needs a single -suite; -suite all writes each suite's default artifact")
		}
		return suites, nil
	}
	for _, s := range suites {
		if s.name == name {
			if out != "" {
				s.out = out
			}
			return []suite{s}, nil
		}
	}
	return nil, fmt.Errorf("unknown suite %q", name)
}

// artifactSchema versions the layout of every BENCH file gsfbench
// writes.
const artifactSchema = "gsf-bench/v2"

// artifact is that layout: the schema, the suite and its result.
type artifact struct {
	Schema string `json:"schema"`
	Suite  string `json:"suite"`
	Result any    `json:"result"`
}

// writeArtifact writes one suite's result as indented JSON to path
// ('-' means stdout).
func writeArtifact(path, suite string, result any) error {
	var w io.Writer = os.Stdout
	var f *os.File
	if path != "-" {
		var err error
		if f, err = os.Create(path); err != nil {
			return err
		}
		w = f
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	err := enc.Encode(artifact{Schema: artifactSchema, Suite: suite, Result: result})
	if f != nil {
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			fmt.Printf("wrote %s\n", path)
		}
	}
	return err
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
