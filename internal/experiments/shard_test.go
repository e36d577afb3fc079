package experiments

// Byte-identity proof for the sharded replay option: routing the
// allocation benchmark through the pool-sharded multi-pool pipeline
// (Shards > 1) must change nothing but wall-clock time. Timing fields
// are zeroed before comparing; everything else is serialized and
// compared byte for byte.

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"github.com/greensku/gsf/internal/alloc"
)

// marshalForDiff serializes a result with its timing fields already
// zeroed by the caller.
func marshalForDiff(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestAllocSweepBenchShardedByteIdentical(t *testing.T) {
	base := AllocBenchOptions{
		Traces:          2,
		ServersPerClass: 40,
		Policy:          alloc.BestFit,
	}
	plain, err := AllocSweepBench(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	sharded := base
	sharded.Shards = 2
	shardRes, err := AllocSweepBench(context.Background(), sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !plain.DecisionIdentical || !shardRes.DecisionIdentical {
		t.Fatalf("decision identity lost: plain=%v sharded=%v",
			plain.DecisionIdentical, shardRes.DecisionIdentical)
	}
	// Timing fields and the echoed shard count are the only fields
	// allowed to differ.
	plain.IndexedSeconds, plain.ReferenceSeconds, plain.Speedup, plain.Shards = 0, 0, 0, 0
	shardRes.IndexedSeconds, shardRes.ReferenceSeconds, shardRes.Speedup, shardRes.Shards = 0, 0, 0, 0
	pb, sb := marshalForDiff(t, plain), marshalForDiff(t, shardRes)
	if !bytes.Equal(pb, sb) {
		t.Fatalf("sharded alloc bench output differs:\nplain   %s\nsharded %s", pb, sb)
	}
}
