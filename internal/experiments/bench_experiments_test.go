package experiments

// Small-scale checks of the benchmark harness and its artifact
// encoding. Timings are hardware-dependent, so these assert structure,
// not speed; cmd/gsfbench enforces the speedup gates in CI.

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestQueueBenchAndArtifactRoundTrip(t *testing.T) {
	q, err := QueueBench(QueueBenchOptions{Servers: 8, Steps: 3, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Points) != 3 {
		t.Fatalf("want 3 curve points, got %d", len(q.Points))
	}
	for i := 1; i < len(q.Points); i++ {
		if q.Points[i].QPS <= q.Points[i-1].QPS {
			t.Fatalf("curve QPS not increasing: %+v", q.Points)
		}
	}

	var buf bytes.Buffer
	art := BenchArtifact{Alloc: AllocBenchResult{Traces: 1, DecisionIdentical: true}, Queueing: q}
	if err := WriteBenchArtifact(&buf, art); err != nil {
		t.Fatal(err)
	}
	var back BenchArtifact
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("artifact is not valid JSON: %v", err)
	}
	if back.Schema != BenchSchema {
		t.Fatalf("schema %q, want %q", back.Schema, BenchSchema)
	}
	if len(back.Queueing.Points) != 3 || !back.Alloc.DecisionIdentical {
		t.Fatalf("round trip lost fields: %+v", back)
	}
}
