package experiments

// Performance benchmark results with a machine-readable trajectory:
// the ROADMAP's north star wants the hot paths to run as fast as the
// hardware allows, which needs a recorded baseline to regress against.
// cmd/gsfbench times the allocation sweep and the large-fleet replay
// against the internal/oracle linear scan (that timing lives in the
// command, so this package stays oracle-free) and records them here as
// AllocBenchResult and AllocScaleResult rows, and QueueBench times the
// queueing saturation curve behind Figs. 7–8. The Table III queue
// suite lives in cmd/gsfbench too. The artifact writers below give CI
// the numbers to archive and gate on.

import (
	"encoding/json"
	"fmt"
	"io"
	"time"

	"github.com/greensku/gsf/internal/queueing"
)

// AllocBenchResult is the allocation sweep's measurement.
type AllocBenchResult struct {
	Traces            int     `json:"traces"`
	VMs               int     `json:"vms"`
	ServersPerClass   int     `json:"servers_per_class"`
	Policy            string  `json:"policy"`
	IndexedSeconds    float64 `json:"indexed_seconds"`
	ReferenceSeconds  float64 `json:"reference_seconds"`
	Speedup           float64 `json:"speedup"`
	DecisionIdentical bool    `json:"decision_identical"`
	Placed            int     `json:"placed"`
	Rejected          int     `json:"rejected"`
}

// AllocScaleResult is one row of the artifact's scale table: the
// columnar streaming replay against the oracle at a large fleet size.
type AllocScaleResult struct {
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

// QueueBenchOptions sizes the queueing saturation-curve benchmark.
type QueueBenchOptions struct {
	Servers int // queue parallelism; 0 defaults to 64
	Steps   int // load points; 0 defaults to 8
	Seed    uint64
}

// QueuePoint is one measured point of the saturation curve.
type QueuePoint struct {
	QPS       float64 `json:"qps"`
	P95       float64 `json:"p95_seconds"`
	Saturated bool    `json:"saturated"`
}

// QueueBenchResult is the queueing benchmark's measurement.
type QueueBenchResult struct {
	Servers int          `json:"servers"`
	Steps   int          `json:"steps"`
	Seconds float64      `json:"seconds"`
	Points  []QueuePoint `json:"points"`
}

// QueueBench sweeps offered load from half to past the queue's
// theoretical capacity (the Fig. 7–8 protocol) and times the sweep.
func QueueBench(opt QueueBenchOptions) (QueueBenchResult, error) {
	servers := opt.Servers
	if servers <= 0 {
		servers = 64
	}
	steps := opt.Steps
	if steps <= 0 {
		steps = 8
	}
	dist := queueing.LogNormal{MeanSeconds: 0.005, CV: 1.5}
	start := time.Now()
	pts, err := queueing.Curve(servers, dist, 0.5, 1.1, steps, opt.Seed)
	if err != nil {
		return QueueBenchResult{}, err
	}
	res := QueueBenchResult{Servers: servers, Steps: steps, Seconds: time.Since(start).Seconds()}
	for _, p := range pts {
		res.Points = append(res.Points, QueuePoint{QPS: p.QPS, P95: p.P95, Saturated: p.Saturated})
	}
	return res, nil
}

// BenchArtifact is the BENCH_alloc.json schema: one allocation sweep
// measurement plus one queueing curve, versioned so later changes can
// extend it without breaking readers. Scale is the additive
// large-fleet table (e.g. the million-server row); absent when the
// suite ran without a scale size.
type BenchArtifact struct {
	Schema   string             `json:"schema"`
	Alloc    AllocBenchResult   `json:"alloc"`
	Queueing QueueBenchResult   `json:"queueing"`
	Scale    []AllocScaleResult `json:"scale,omitempty"`
}

// BenchSchema is the current artifact schema identifier.
const BenchSchema = "gsf-bench/v1"

// WriteArtifact encodes a BENCH artifact as indented JSON.
func WriteArtifact(w io.Writer, a any) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return fmt.Errorf("experiments: encoding artifact: %w", err)
	}
	return nil
}

// WriteBenchArtifact encodes the artifact as indented JSON.
func WriteBenchArtifact(w io.Writer, a BenchArtifact) error {
	if a.Schema == "" {
		a.Schema = BenchSchema
	}
	return WriteArtifact(w, a)
}

// ScaleArtifact is the standalone scale-suite artifact (CI's
// bench-scale upload); the same rows also ride along in
// BenchArtifact.Scale when the alloc suite runs with a scale size.
type ScaleArtifact struct {
	Schema string             `json:"schema"`
	Scale  []AllocScaleResult `json:"scale"`
}

// WriteScaleArtifact encodes the artifact as indented JSON.
func WriteScaleArtifact(w io.Writer, a ScaleArtifact) error {
	if a.Schema == "" {
		a.Schema = BenchSchema
	}
	return WriteArtifact(w, a)
}
