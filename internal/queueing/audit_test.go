package queueing

import (
	"context"
	"testing"

	"github.com/greensku/gsf/internal/audit"
)

func TestAuditCleanRun(t *testing.T) {
	rec := audit.NewRecorder()
	res, err := Run(Config{
		Servers:     8,
		ArrivalRate: 100,
		Service:     LogNormal{MeanSeconds: 0.05, CV: 1.2},
		Requests:    20000,
		Seed:        7,
		Audit:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.P95 <= 0 {
		t.Fatalf("P95 = %g, want > 0", res.P95)
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("clean queueing run recorded violations: %v\n%v", err, rec.Violations())
	}
}

func TestAuditCleanSaturatedRun(t *testing.T) {
	// Overload the queue: saturation is a legal regime, not a violation.
	rec := audit.NewRecorder()
	res, err := Run(Config{
		Servers:     2,
		ArrivalRate: 2 * Capacity(2, Exponential{MeanSeconds: 0.1}),
		Service:     Exponential{MeanSeconds: 0.1},
		Requests:    5000,
		Seed:        11,
		Audit:       rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Saturated {
		t.Fatal("2x-capacity run not flagged saturated")
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("saturated run recorded violations: %v\n%v", err, rec.Violations())
	}
}

func TestAuditHeapDetectsDisorder(t *testing.T) {
	rec := audit.NewRecorder()
	auditHeap(rec, serverHeap{5, 1, 9}) // parent 5 > child 1
	if rec.Counts()["queueing/heap-order"] == 0 {
		t.Fatalf("broken heap not detected; counts = %v", rec.Counts())
	}
	rec.Reset()
	auditHeap(rec, serverHeap{1, 5, 9, 6, 7})
	if rec.Count() != 0 {
		t.Fatalf("valid heap flagged: %v", rec.Violations())
	}
}

// TestKneeSearchAuditsMonotonicity is the canary for the property the
// top-first probe order rests on. No natural search inverts the
// verdict, so testFloorSaturated forces the floor of a bracket stable
// at its top to read saturated: the audited search must record exactly
// one queueing/knee-monotone and still return the unaudited answer,
// the bracket top with its own P95.
func TestKneeSearchAuditsMonotonicity(t *testing.T) {
	withoutAudit(t)
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1}, Requests: 5000, Seed: 5}
	ctx := context.Background()
	want, err := KneeSearch(ctx, cfg, 0.2, 0.6, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if want.Found || want.Evals != 1 {
		t.Fatalf("unaudited search %+v, want the stable top after one probe", want)
	}

	for _, forced := range []bool{false, true} {
		testFloorSaturated = forced
		rec := audit.NewRecorder()
		cfg.Audit = rec
		got, err := KneeSearch(ctx, cfg, 0.2, 0.6, 0.05)
		testFloorSaturated = false
		if err != nil {
			t.Fatal(err)
		}
		if got.Evals != 2 {
			t.Errorf("forced=%v: audited search took %d evals, want 2 (top, then floor)", forced, got.Evals)
		}
		got.Evals = want.Evals
		if got != want {
			t.Errorf("forced=%v: audited search\n got %+v\nwant %+v", forced, got, want)
		}
		var wantViolations int64
		if forced {
			wantViolations = 1
		}
		if n := rec.Counts()["queueing/knee-monotone"]; n != wantViolations || rec.Count() != n {
			t.Errorf("forced=%v: %d knee-monotone of %d violations, want %d: %v",
				forced, n, rec.Count(), wantViolations, rec.Violations())
		}
	}
}

// TestKneeSearchAuditsSharedColumns is the canary for the shared
// column cache. It corrupts one event of a retained entry: an
// unaudited search then reads the bad draw, while an audited search
// must draw its own columns, record exactly one queueing/shared-columns
// and return the fresh-draw Knee.
func TestKneeSearchAuditsSharedColumns(t *testing.T) {
	withoutAudit(t)
	// A seed no other test uses, so the entry is this test's alone.
	cfg := Config{Servers: 8, Service: LogNormal{0.004, 1.2}, Requests: 5000, Seed: 0x5eed}
	ctx := context.Background()
	want, err := KneeSearch(ctx, cfg, 0.5, 1.3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	full := cfg.WithDefaults()
	d, ok := sharedColumns.Peek(sharedKey(cfg.Seed, full.Warmup+full.Requests))
	if !ok {
		t.Fatal("unaudited search left no shared entry")
	}
	i := full.Warmup + full.Requests/2
	orig := d.norm[i]
	d.norm[i] = 40 // a service time of e^37 seconds saturates any probe
	defer func() { d.norm[i] = orig }()

	if bad, err := KneeSearch(ctx, cfg, 0.5, 1.3, 0.02); err != nil {
		t.Fatal(err)
	} else if bad == want {
		t.Fatal("the corrupted entry did not change the unaudited answer; the canary proves nothing")
	}
	rec := audit.NewRecorder()
	cfg.Audit = rec
	got, err := KneeSearch(ctx, cfg, 0.5, 1.3, 0.02)
	if err != nil {
		t.Fatal(err)
	}
	got.Evals = want.Evals
	if got != want {
		t.Errorf("audited search over a corrupted entry\n got %+v\nwant %+v", got, want)
	}
	if n := rec.Counts()["queueing/shared-columns"]; n != 1 || rec.Count() != 1 {
		t.Errorf("%d shared-columns of %d violations, want exactly 1: %v", n, rec.Count(), rec.Violations())
	}
}
