package experiments

import (
	"bytes"
	"math"
	"reflect"
	"testing"
)

// quickDynCI runs the study at artifact quick-mode scale.
func quickDynCI(t *testing.T) DynCIResult {
	t.Helper()
	opt := DefaultDynCIOptions()
	opt.Traces = 6
	r, err := DynCI(opt)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestDynCIShiftingReducesEmissionsWithinBudget(t *testing.T) {
	r := quickDynCI(t)
	if len(r.Rows) != 3 {
		t.Fatalf("got %d policy rows, want 3", len(r.Rows))
	}
	static, shift, both := r.Rows[0], r.Rows[1], r.Rows[2]
	if static.Policy != "static" || shift.Policy != "shift" || both.Policy != "shift+suspend" {
		t.Fatalf("unexpected policy order: %s, %s, %s", static.Policy, shift.Policy, both.Policy)
	}
	// The static baseline neither moves work nor saves anything.
	if static.Shifted != 0 || static.Suspended != 0 || static.SavingsVsStatic != 0 {
		t.Errorf("static row re-timed work: %+v", static)
	}
	// Temporal shifting must buy operational savings...
	if shift.Operational >= static.Operational || shift.SavingsVsStatic <= 0 {
		t.Errorf("shifting saved nothing: static %v, shift %v", static.Operational, shift.Operational)
	}
	// ...suspension on top must not give them back...
	if both.Operational > shift.Operational {
		t.Errorf("suspend raised emissions over shift-only: %v > %v", both.Operational, shift.Operational)
	}
	// ...and the demand concentration must stay inside the SLO budget.
	for _, row := range r.Rows {
		if !row.WithinBudget {
			t.Errorf("%s: SLO budget exceeded (violation frac %.4f)", row.Policy, row.ViolationFrac)
		}
	}
	if shift.Shifted == 0 || shift.DelayHours <= 0 {
		t.Errorf("shift row reports no re-timing: %+v", shift)
	}
	if both.Suspended == 0 || both.SuspendedHours <= 0 {
		t.Errorf("suspend row reports no pauses: %+v", both)
	}
}

func TestDynCIDeterministic(t *testing.T) {
	a, b := quickDynCI(t), quickDynCI(t)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("dynamic-CI study not deterministic:\n%+v\n%+v", a, b)
	}
}

func TestDynCIRender(t *testing.T) {
	r := quickDynCI(t)
	var buf bytes.Buffer
	if err := r.Render(&buf, "Dynamic CI"); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"static", "shift+suspend", "queueing knee"} {
		if !bytes.Contains(buf.Bytes(), []byte(want)) {
			t.Errorf("render output missing %q:\n%s", want, buf.String())
		}
	}
	if _, err := DynCI(DynCIOptions{Dataset: "no-such-dataset"}); err == nil {
		t.Error("DynCI accepted an unknown dataset")
	}
}

// TestDynCI35TraceRow pins the EXPERIMENTS.md dynci row: the full
// 35-trace study's operational totals and savings against the static
// baseline, to the stated tolerances, and every policy inside the 5%
// SLO budget. The study resolves its queueing knee through
// queueing.KneeSearch, so a kernel change that moves the knee moves
// these numbers.
func TestDynCI35TraceRow(t *testing.T) {
	if testing.Short() {
		t.Skip("the 35-trace study takes several seconds")
	}
	r, err := DynCI(DefaultDynCIOptions())
	if err != nil {
		t.Fatal(err)
	}
	const kgTol, savingsTol = 0.5, 0.0005 // ±0.5 kgCO2e, ±0.05 percentage points
	want := []struct {
		policy      string
		operational float64 // kgCO2e
		savings     float64
	}{
		{"static", 14681.5, 0},
		{"shift", 14422.4, 0.0176},
		{"shift+suspend", 14341.2, 0.0232},
	}
	if len(r.Rows) != len(want) {
		t.Fatalf("got %d policy rows, want %d", len(r.Rows), len(want))
	}
	for i, w := range want {
		row := r.Rows[i]
		if row.Policy != w.policy {
			t.Fatalf("row %d is %q, want %q", i, row.Policy, w.policy)
		}
		if got := float64(row.Operational); math.Abs(got-w.operational) > kgTol {
			t.Errorf("%s: operational %.1f kgCO2e, want %.1f ± %.1f", w.policy, got, w.operational, kgTol)
		}
		if math.Abs(row.SavingsVsStatic-w.savings) > savingsTol {
			t.Errorf("%s: savings %.4f, want %.4f ± %.4f", w.policy, row.SavingsVsStatic, w.savings, savingsTol)
		}
		if !row.WithinBudget {
			t.Errorf("%s: outside the SLO budget (violation fraction %.4f)", w.policy, row.ViolationFrac)
		}
	}
}
