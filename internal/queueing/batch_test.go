package queueing

// The batched loop's allocation pin. Its bit-identity with the scalar
// per-request loop is proven against internal/oracle in walls_test.go.

import "testing"

// TestBatchedRunSteadyStateAllocs pins the batched loop's per-run
// allocation count with a warm pool, at a small and a large server
// count: the server heap is one allocation however many servers it
// holds.
func TestBatchedRunSteadyStateAllocs(t *testing.T) {
	for _, servers := range []int{8, 512} {
		s := LogNormal{0.004, 1}
		cfg := Config{Servers: servers, ArrivalRate: 0.8 * Capacity(servers, s), Service: s, Requests: 8000, Seed: 21}
		if _, err := Run(cfg); err != nil {
			t.Fatal(err)
		}
		avg := testing.AllocsPerRun(10, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
		if avg > 8 {
			t.Errorf("%d servers: steady-state batched Run allocates %.1f times, want <= 8", servers, avg)
		}
	}
}

func BenchmarkRunBatched(b *testing.B) {
	cfg := Config{Servers: 8, ArrivalRate: 0.9 * Capacity(8, LogNormal{0.004, 1.5}), Service: LogNormal{0.004, 1.5}, Requests: 30000, Seed: 1}
	for i := 0; i < b.N; i++ {
		if _, err := Run(cfg); err != nil {
			b.Fatal(err)
		}
	}
}
