package core

import (
	"context"
	"reflect"
	"runtime"
	"testing"

	"github.com/greensku/gsf/internal/audit"
)

// TestAuditClean35Traces is the acceptance sweep: the full pipeline
// over the 35 seeded traces, evaluated in parallel with auditing
// enabled, must report zero invariant violations.
func TestAuditClean35Traces(t *testing.T) {
	n := 35
	if testing.Short() {
		n = 6
	}
	inputs := sweepInputs(t, n)

	rec := audit.NewRecorder()
	f := framework(t, "open-source")
	f.SetAudit(rec)
	f.Workers = runtime.GOMAXPROCS(0)
	for i, r := range f.EvaluateAll(context.Background(), inputs) {
		if r.Err != nil {
			t.Fatalf("trace %s: %v", inputs[i].Workload.Name, r.Err)
		}
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("audited %d-trace sweep recorded violations: %v\ncounts: %v",
			n, err, rec.Counts())
	}
	if rec.Count() != 0 {
		t.Fatalf("violations = %d, want 0", rec.Count())
	}
}

// TestAuditDoesNotAlterResults pins the audit layer's core contract:
// an audited evaluation returns byte-identical output to an unaudited
// one — the audit only observes.
func TestAuditDoesNotAlterResults(t *testing.T) {
	in := sweepInputs(t, 1)[0]

	plain := framework(t, "open-source")
	want, err := plain.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}

	rec := audit.NewRecorder()
	audited := framework(t, "open-source")
	audited.SetAudit(rec)
	got, err := audited.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatal("audited evaluation differs from unaudited")
	}
	if err := rec.Err(); err != nil {
		t.Fatalf("audited evaluation recorded violations: %v", err)
	}
}

func TestSetAuditCopiesCarbonModel(t *testing.T) {
	f := framework(t, "open-source")
	orig := f.Carbon
	f.SetAudit(audit.NewRecorder())
	if f.Carbon == orig {
		t.Fatal("SetAudit mutated the shared carbon model instead of copying it")
	}
	if orig.Audit != nil {
		t.Fatal("SetAudit leaked the checker into the original model")
	}
	if f.Carbon.Audit == nil {
		t.Fatal("SetAudit did not wire the checker into the copied model")
	}
}

func TestAuditEvaluationCatchesBadPipelineOutput(t *testing.T) {
	f := framework(t, "open-source")
	in := sweepInputs(t, 1)[0]
	ev, err := f.Evaluate(in)
	if err != nil {
		t.Fatal(err)
	}
	base := ClassOf(in.Baseline, false)
	green := ClassOf(in.Green, true)

	rec := audit.NewRecorder()
	bad := ev
	bad.Buffered.BufferServers = -1
	f.auditEvaluation(rec, in, base, green, bad)
	if rec.Counts()["core/negative-buffer"] == 0 {
		t.Errorf("negative buffer not caught: %v", rec.Counts())
	}

	rec = audit.NewRecorder()
	bad = ev
	bad.Buffered.Mix.NBase = 0
	bad.Buffered.Mix.NGreen = 0
	bad.Buffered.BufferServers = 0
	f.auditEvaluation(rec, in, base, green, bad)
	if rec.Counts()["core/buffered-capacity-below-peak"] == 0 {
		t.Errorf("under-capacity buffered cluster not caught: %v", rec.Counts())
	}

	rec = audit.NewRecorder()
	bad = ev
	bad.DCSavings = 2 * bad.ClusterSavings
	f.auditEvaluation(rec, in, base, green, bad)
	if rec.Counts()["core/dc-savings-amplified"] == 0 {
		t.Errorf("amplified DC savings not caught: %v", rec.Counts())
	}
}
