package alloc

// Streaming and checkpoint tests for the columnar simulator: a replay
// paused through Snapshot/Restore, or streamed from a binary trace,
// must match the straight-through replay bit for bit; malformed events
// are rejected at the door; and memory stays independent of the event
// count. (The walls against internal/oracle are in oracle_test.go.)

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/greensku/gsf/internal/trace"
	"github.com/greensku/gsf/internal/units"
)

// TestDifferentialSnapshotResume: for every production trace and
// policy, pausing the columnar replay at its midpoint through
// Snapshot/Restore yields the same Result bits and the same placement
// sequence as running straight through.
func TestDifferentialSnapshotResume(t *testing.T) {
	traces, err := trace.ProductionSuite()
	if err != nil {
		t.Fatal(err)
	}
	if testing.Short() {
		traces = traces[:5]
	}
	for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
		cfg := Config{
			Base:           baseClass(),
			NBase:          40,
			Green:          greenClass(),
			NGreen:         40,
			Policy:         pol,
			PreferNonEmpty: pol != FirstFit,
		}
		for _, tr := range traces {
			wantRes, wantSeq := runObserved(t, tr, cfg)
			gotRes, gotSeq, err := resumedRun(tr, cfg, len(tr.VMs)/2)
			if err != nil {
				t.Fatalf("%s (%v): %v", tr.Name, pol, err)
			}
			if !sameResult(gotRes, wantRes) {
				t.Errorf("%s (%v): resumed Result %+v != straight-through %+v", tr.Name, pol, gotRes, wantRes)
			}
			if len(gotSeq) != len(wantSeq) {
				t.Errorf("%s (%v): %d resumed placements vs %d straight-through",
					tr.Name, pol, len(gotSeq), len(wantSeq))
				continue
			}
			for i := range gotSeq {
				if gotSeq[i] != wantSeq[i] {
					t.Errorf("%s (%v): placement %d diverges after resume: %+v vs %+v",
						tr.Name, pol, i, gotSeq[i], wantSeq[i])
					break
				}
			}
		}
	}
}

// resumedRun replays tr, checkpointing after `cut` events and
// continuing from the restored simulator, collecting the full
// placement sequence across the seam.
func resumedRun(tr trace.Trace, cfg Config, cut int) (Result, []placeRec, error) {
	var seq []placeRec
	testObserve = func(vmID int, green bool, serverID int32) {
		seq = append(seq, placeRec{vmID, green, serverID})
	}
	defer func() { testObserve = nil }()

	sim, err := NewSim(tr.Name, cfg, diffDecider)
	if err != nil {
		return Result{}, nil, err
	}
	for _, vm := range tr.VMs[:cut] {
		if err := sim.Step(vm); err != nil {
			return Result{}, nil, err
		}
	}
	var snap bytes.Buffer
	if err := sim.Snapshot(&snap); err != nil {
		return Result{}, nil, err
	}
	resumed, err := Restore(bytes.NewReader(snap.Bytes()), diffDecider, cfg.Audit)
	if err != nil {
		return Result{}, nil, err
	}
	if resumed.Events() != cut {
		return Result{}, nil, fmt.Errorf("restored sim reports %d events, want %d", resumed.Events(), cut)
	}
	for _, vm := range tr.VMs[cut:] {
		if err := resumed.Step(vm); err != nil {
			return Result{}, nil, err
		}
	}
	return resumed.Finish(tr.Horizon), seq, nil
}

// TestSnapshotEveryBoundary is the checkpoint property test: across 35
// seeded traces, snapshotting and restoring at EVERY event boundary
// (including before the first and after the last event) reproduces the
// uninterrupted replay's Result bit for bit.
func TestSnapshotEveryBoundary(t *testing.T) {
	const seeds = 35
	nSeeds := seeds
	if testing.Short() {
		nSeeds = 6
	}
	for seed := 0; seed < nSeeds; seed++ {
		full, err := trace.Generate(trace.DefaultParams(fmt.Sprintf("snap-prop-%d", seed), uint64(9000+seed*31)))
		if err != nil {
			t.Fatal(err)
		}
		// A short prefix keeps every-boundary quadratic cost trivial
		// while preserving arrival/departure interleaving.
		n := min(len(full.VMs), 40)
		tr := trace.Trace{Name: full.Name, Horizon: full.Horizon, VMs: full.VMs[:n]}
		cfg := Config{
			Base:           baseClass(),
			NBase:          4 + seed%5,
			Green:          greenClass(),
			NGreen:         2 + seed%3,
			Policy:         Policy(seed % 3),
			PreferNonEmpty: seed%2 == 0,
			SnapshotEvery:  6,
		}
		want, err := Simulate(tr, cfg, diffDecider)
		if err != nil {
			t.Fatal(err)
		}
		for cut := 0; cut <= n; cut++ {
			got, _, err := resumedRun(tr, cfg, cut)
			if err != nil {
				t.Fatalf("seed %d cut %d: %v", seed, cut, err)
			}
			if !sameResult(got, want) {
				t.Fatalf("seed %d: resume at boundary %d/%d gives %+v, uninterrupted %+v",
					seed, cut, n, got, want)
			}
		}
	}
}

// TestSnapshotCorruptionRejected is the canary: any single corrupted
// byte — header or payload — and any truncation must make Restore
// refuse, never return a simulator.
func TestSnapshotCorruptionRejected(t *testing.T) {
	tr := smallTrace()
	sim, err := NewSim(tr.Name, Config{Base: baseClass(), NBase: 4, Green: greenClass(), NGreen: 2}, AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range tr.VMs {
		if err := sim.Step(vm); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sim.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, err := Restore(bytes.NewReader(good), AdoptAll, nil); err != nil {
		t.Fatalf("pristine snapshot rejected: %v", err)
	}
	for i := range good {
		bad := bytes.Clone(good)
		bad[i] ^= 0x40
		if _, err := Restore(bytes.NewReader(bad), AdoptAll, nil); err == nil {
			t.Fatalf("byte %d/%d flipped and Restore accepted it", i, len(good))
		}
	}
	for _, cut := range []int{0, 3, len(good) / 2, len(good) - 1} {
		if _, err := Restore(bytes.NewReader(good[:cut]), AdoptAll, nil); err == nil {
			t.Fatalf("snapshot truncated to %d bytes accepted", cut)
		}
	}
	if _, err := Restore(bytes.NewReader(append(bytes.Clone(good), 0)), AdoptAll, nil); err == nil {
		t.Fatal("snapshot with trailing byte accepted")
	}
}

// TestStepRejectsMalformed: the streaming path validates events at the
// door with the exact rules Trace.Validate applies, so a corrupt
// stream cannot push the simulator into undefined state.
func TestStepRejectsMalformed(t *testing.T) {
	mk := func() *Sim {
		s, err := NewSim("stream", Config{Base: baseClass(), NBase: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	ok := trace.VM{ID: 0, Arrive: 1, Depart: 2, Cores: 2, Memory: 8, Gen: 2, MaxMemFrac: 0.5}
	cases := []struct {
		name   string
		mutate func(*trace.VM)
		want   string
	}{
		{"nan arrive", func(v *trace.VM) { v.Arrive = math.NaN() }, "non-finite field"},
		{"inf memory", func(v *trace.VM) { v.Memory = units.GB(math.Inf(1)) }, "non-finite field"},
		{"negative duration", func(v *trace.VM) { v.Depart = v.Arrive - 1 }, "departs before arriving"},
		{"zero duration", func(v *trace.VM) { v.Depart = v.Arrive }, "departs before arriving"},
		{"zero cores", func(v *trace.VM) { v.Cores = 0 }, "empty resource request"},
		{"bad generation", func(v *trace.VM) { v.Gen = 7 }, "generation"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := mk()
			vm := ok
			tc.mutate(&vm)
			err := s.Step(vm)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Step(%s) = %v, want error mentioning %q", tc.name, err, tc.want)
			}
		})
	}
	// Out-of-order arrivals are a stream property, not a field one.
	s := mk()
	if err := s.Step(ok); err != nil {
		t.Fatal(err)
	}
	early := ok
	early.ID, early.Arrive, early.Depart = 1, ok.Arrive-0.5, ok.Depart
	if err := s.Step(early); err == nil || !strings.Contains(err.Error(), "not sorted") {
		t.Fatalf("out-of-order Step = %v, want 'not sorted'", err)
	}
}

// synthSource streams n synthetic arrivals without materializing them:
// the memory-footprint probe. Lifetimes are short so the concurrent VM
// population — and thus the simulator's working set — stays bounded
// regardless of n.
type synthSource struct {
	n, i int
}

func (s *synthSource) Next() (trace.VM, bool) {
	if s.i >= s.n {
		return trace.VM{}, false
	}
	i := s.i
	s.i++
	return trace.VM{
		ID:         i,
		Arrive:     float64(i) * 1e-3,
		Depart:     float64(i)*1e-3 + 0.4,
		Cores:      4,
		Memory:     16,
		Gen:        2,
		MaxMemFrac: 0.5,
	}, true
}

func (s *synthSource) Err() error       { return nil }
func (s *synthSource) Name() string     { return "synth" }
func (s *synthSource) Horizon() float64 { return float64(s.n)*1e-3 + 1 }

// TestStreamingFootprintIsEventCountIndependent asserts the O(servers)
// memory claim: quadrupling the event count of a streamed replay must
// not grow its allocated bytes materially, because the simulator's
// state is the touched fleet plus the bounded departure heap — never
// the event stream.
func TestStreamingFootprintIsEventCountIndependent(t *testing.T) {
	cfg := Config{Base: baseClass(), NBase: 1000}
	run := func(events int) uint64 {
		src := &synthSource{n: events}
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		res, err := SimulateSource(context.Background(), src, cfg, nil)
		if err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		if res.Placed != events {
			t.Fatalf("synthetic run placed %d of %d", res.Placed, events)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	base := run(20_000)
	big := run(80_000)
	// Identical working set, 4x the events: allow generous slack for
	// runtime noise, but nothing near another working set's worth.
	if limit := base + base/2 + 1<<20; big > limit {
		t.Fatalf("4x events allocated %d bytes vs %d for 1x (limit %d): streaming path is O(events)",
			big, base, limit)
	}
}

// TestSimulateSourceMatchesMaterialized closes the loop across the
// trace and alloc layers: a binary-encoded trace streamed through
// SimulateSource must produce the same Result bits as the materialized
// replay of the same trace.
func TestSimulateSourceMatchesMaterialized(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultParams("stream-vs-mat", 77))
	if err != nil {
		t.Fatal(err)
	}
	var bin bytes.Buffer
	if err := trace.WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	cfg := Config{Base: baseClass(), NBase: 12, Green: greenClass(), NGreen: 6, PreferNonEmpty: true}
	want, err := Simulate(tr, cfg, diffDecider)
	if err != nil {
		t.Fatal(err)
	}
	br, err := trace.NewBinaryReader(bytes.NewReader(bin.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got, err := SimulateSource(context.Background(), br, cfg, diffDecider)
	if err != nil {
		t.Fatal(err)
	}
	if !sameResult(got, want) {
		t.Fatalf("streamed binary replay %+v != materialized replay %+v", got, want)
	}
}
