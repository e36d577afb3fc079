package alloc

import (
	"context"
	"strings"
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/trace"
)

func TestAuditCleanOnValidSimulation(t *testing.T) {
	rec := audit.NewRecorder()
	cfg := Config{Base: baseClass(), NBase: 2, Green: greenClass(), NGreen: 1, Audit: rec}
	if _, err := Simulate(smallTrace(), cfg, AdoptAll); err != nil {
		t.Fatal(err)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("clean simulation recorded violations: %v\n%v", err, rec.Violations())
	}
}

func TestAuditCleanOnSyntheticTrace(t *testing.T) {
	p := trace.DefaultParams("audit-synth", 42)
	p.HorizonHours = 72
	p.ArrivalsPerHour = 5
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	rec := audit.NewRecorder()
	cfg := Config{
		Base: baseClass(), NBase: 6,
		Green: greenClass(), NGreen: 4,
		PreferNonEmpty: true,
		Audit:          rec,
	}
	res, err := Simulate(tr, cfg, AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placed == 0 {
		t.Fatal("synthetic trace placed no VMs; test exercises nothing")
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("synthetic simulation recorded violations: %v\n%v", err, rec.Violations())
	}
}

// TestAuditCatchesBrokenAllocator proves the audit layer detects a
// deliberately broken allocator: with the feasibility check disabled,
// pick oversubscribes servers and the core/memory conservation and
// admissibility checks must fire, in single- and multi-pool replays.
func TestAuditCatchesBrokenAllocator(t *testing.T) {
	testIgnoreCapacity = true
	defer func() { testIgnoreCapacity = false }()

	// One tiny server, demand far beyond it: the broken pick places
	// everything anyway.
	over := trace.Trace{Name: "over", Horizon: 20, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 19, Cores: 60, Memory: 600, Gen: 3, MaxMemFrac: 0.5},
		{ID: 1, Arrive: 2, Depart: 19, Cores: 60, Memory: 600, Gen: 3, MaxMemFrac: 0.5},
		{ID: 2, Arrive: 3, Depart: 19, Cores: 60, Memory: 600, Gen: 3, MaxMemFrac: 0.5},
	}}
	rec := audit.NewRecorder()
	res, err := Simulate(over, Config{Base: baseClass(), NBase: 1, Audit: rec}, AdoptNone)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rejected != 0 {
		t.Fatalf("broken allocator rejected %d VMs; expected it to place everything", res.Rejected)
	}
	if rec.Count() == 0 {
		t.Fatal("audit recorded no violations for an oversubscribing allocator")
	}
	counts := rec.Counts()
	if counts["alloc/admissibility"] == 0 {
		t.Errorf("no admissibility violations recorded; counts = %v", counts)
	}
	if counts["alloc/core-conservation"] == 0 && counts["alloc/memory-conservation"] == 0 {
		t.Errorf("no conservation violations recorded; counts = %v", counts)
	}
	for _, v := range rec.Violations() {
		if !strings.HasPrefix(v.String(), "alloc/") {
			t.Errorf("violation from unexpected component: %s", v)
		}
	}

	// A multi-pool replay has no Config.Audit: it reports to the
	// process default, swapped for a fresh Recorder so the breakage
	// stays out of the package sweep.
	prev := audit.Default()
	multiRec := audit.NewRecorder()
	audit.SetDefault(multiRec)
	defer audit.SetDefault(prev)
	mc := MultiConfig{Base: Pool{Class: baseClass(), N: 1}, Greens: twoGreens()}
	hosts, err := MultiHostsContext(context.Background(), over, mc, []Decider{AdoptAll, AdoptAll})
	if err != nil {
		t.Fatal(err)
	}
	if !hosts {
		t.Fatal("broken multi-pool allocator rejected VMs; expected it to place everything")
	}
	counts = multiRec.Counts()
	if counts["alloc/admissibility"] == 0 {
		t.Errorf("no multi-pool admissibility violations recorded; counts = %v", counts)
	}
	if counts["alloc/core-conservation"] == 0 && counts["alloc/memory-conservation"] == 0 {
		t.Errorf("no multi-pool conservation violations recorded; counts = %v", counts)
	}
}

// TestAuditExplicitCheckerWins pins Resolve precedence: a per-config
// Recorder receives the violations even when a process default is
// installed (as it is under TestMain's SweepMain).
func TestAuditExplicitCheckerWins(t *testing.T) {
	testIgnoreCapacity = true
	defer func() { testIgnoreCapacity = false }()

	over := trace.Trace{Name: "over", Horizon: 10, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 9, Cores: 100, Memory: 900, Gen: 3, MaxMemFrac: 0.5},
	}}
	rec := audit.NewRecorder()
	if _, err := Simulate(over, Config{Base: baseClass(), NBase: 1, Audit: rec}, AdoptNone); err != nil {
		t.Fatal(err)
	}
	if rec.Count() == 0 {
		t.Fatal("explicit recorder received no violations")
	}
	// The process-default recorder must stay clean — SweepMain would
	// otherwise fail the whole run after the tests pass.
}
