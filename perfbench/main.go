// Command perfbench is GSF's end-to-end benchmark. It runs one workload
// for a fixed wall-clock window against the library and the gsfd
// service built from the same checkout, checks every answer it gets,
// and prints one JSON result line.
//
// The workloads stress different layers:
//
//   - evaluate: one full framework evaluation (core.Framework) of
//     GreenSKU-Full against the Gen3 baseline per operation, cycling
//     through seeded week-long synthetic traces. The profile cache is
//     warm, as in a long-running service, so the time goes to cluster
//     sizing: repeated whole-trace allocation replays.
//   - design: one design-space search (design.Search, the work behind
//     /v1/design) per operation with a fresh evaluator, so every knee
//     search is cold and the time goes to the queueing simulator.
//   - serve: cmd/gsfload's open-loop request mix against an in-process
//     gsfd: 200 requests/s alternating /v1/percore and /v1/savings over
//     64 carbon intensities, so the result cache serves nearly all of
//     them.
//
// Usage, from the repository root (run.sh builds the binary with the Go
// build cache inside the checkout, then runs it):
//
//	bash perfbench/run.sh --workload evaluate --seed 1 --seconds 35 --trace 0
//
// --trace 0 reports the end-to-end metrics: the median and 90th
// percentile operation latency, and the median of several set-ups.
// --trace 1 runs the same workload under the Go CPU profiler and reports
// each layer's share of the CPU samples, plus per-layer counts.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"time"
)

// setupReps is how many times a run sets its workload up; set-up time
// is the median, so one slow repetition does not move it.
const setupReps = 9

// metric is one named measurement in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the JSON object printed as the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// config is one invocation's settings.
type config struct {
	seed   uint64
	window time.Duration
	traced bool
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	latencies         []float64          // per operation, milliseconds
	setups            []float64          // per set-up repetition, seconds
	shares            map[string]float64 // per-layer CPU shares, traced runs only
	counts            map[string]float64
	// wrong is the first incorrect answer seen; nil when all were right.
	wrong error
}

// note keeps the first incorrect answer.
func (o *outcome) note(err error) {
	if o.wrong == nil {
		o.wrong = err
	}
}

var workloads = map[string]func(config) (outcome, error){
	"evaluate": runEvaluate,
	"design":   runDesign,
	"serve":    runServe,
}

// counters are the per-layer counts and ratios; each workload documents
// what it counts, and reports 0 for what it does not.
var counters = map[string]string{
	"cache_hits":    "count",
	"cache_hit_pct": "%",
	"late_sends":    "count",
}

func main() { os.Exit(run(os.Args[1:])) }

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: evaluate, design or serve")
	seed := fs.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := fs.Float64("seconds", 10, "length of the measured window in seconds")
	traced := fs.Int("trace", 0, "1 reports per-layer metrics, 0 end-to-end ones")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	workload, ok := workloads[*name]
	if !ok || fs.NArg() > 0 || *seconds <= 0 || *traced < 0 || *traced > 1 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload evaluate|design|serve --seed N --seconds S --trace 0|1")
		return 2
	}
	cfg := config{seed: *seed, window: time.Duration(*seconds * float64(time.Second)), traced: *traced == 1}
	out, err := workload(cfg)
	if err == nil && out.attempted == 0 {
		err = errors.New("no operation was attempted in the measured window")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if out.wrong != nil {
		fmt.Fprintln(os.Stderr, "perfbench: incorrect output:", out.wrong)
	}
	res := result{Correct: out.wrong == nil, Attempted: out.attempted, Failed: out.failed}
	if cfg.traced {
		res.Metrics = perLayer(out)
	} else {
		res.Metrics = endToEnd(out)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	return 0
}

func endToEnd(o outcome) map[string]metric {
	return map[string]metric{
		"p50_ms":  {quantile(o.latencies, 0.50), "ms"},
		"p90_ms":  {quantile(o.latencies, 0.90), "ms"},
		"setup_s": {quantile(o.setups, 0.50), "s"},
	}
}

func perLayer(o outcome) map[string]metric {
	m := map[string]metric{}
	for _, l := range layers {
		m[l+"_pct"] = metric{o.shares[l], "%"}
	}
	for c, unit := range counters {
		m[c] = metric{o.counts[c], unit}
	}
	return m
}

// setUp builds a workload environment setupReps times, timing each, and
// returns the last one; earlier ones are closed.
func setUp[E any](build func() (E, error), closeEnv func(E)) (E, []float64, error) {
	var env E
	var times []float64
	for i := 0; i < setupReps; i++ {
		if i > 0 && closeEnv != nil {
			closeEnv(env)
		}
		start := time.Now()
		e, err := build()
		if err != nil {
			return env, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		env = e
	}
	return env, times, nil
}

// loop calls op back to back until the window closes, passing each call
// its sequence number, and returns the latencies and failure count.
func loop(cfg config, op func(i int) error) (lat []float64, failed int) {
	deadline := time.Now().Add(cfg.window)
	for i := 0; time.Now().Before(deadline); i++ {
		start := time.Now()
		err := op(i)
		lat = append(lat, millis(time.Since(start)))
		if err != nil {
			if failed == 0 {
				fmt.Fprintln(os.Stderr, "perfbench: operation failed:", err)
			}
			failed++
		}
	}
	return lat, failed
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// quantile interpolates linearly between the closest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// measure runs a workload's measured window; traced, it runs it under
// the CPU profiler and keeps the per-layer shares in out.
func measure(cfg config, out *outcome, window func()) error {
	if !cfg.traced {
		window()
		return nil
	}
	shares, err := profileShares(window)
	out.shares = shares
	return err
}

// hitPct is hits as a percentage of lookups.
func hitPct(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return 100 * float64(hits) / float64(hits+misses)
}
