package audit

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

func TestRecorderAccumulates(t *testing.T) {
	r := NewRecorder()
	if r.Count() != 0 || r.Err() != nil {
		t.Fatalf("fresh recorder: count=%d err=%v", r.Count(), r.Err())
	}
	Failf(r, "alloc", "core-conservation", "node %d free=%g", 3, -0.5)
	Failf(r, "alloc", "core-conservation", "node %d free=%g", 4, -1.5)
	Failf(r, "carbon", "part-sum", "power off by %g", 1.0)
	if r.Count() != 3 {
		t.Fatalf("count = %d, want 3", r.Count())
	}
	counts := r.Counts()
	if counts["alloc/core-conservation"] != 2 || counts["carbon/part-sum"] != 1 {
		t.Fatalf("counts = %v", counts)
	}
	vs := r.Violations()
	if len(vs) != 3 {
		t.Fatalf("violations = %d, want 3", len(vs))
	}
	if vs[0].Component != "alloc" || vs[0].Invariant != "core-conservation" ||
		!strings.Contains(vs[0].Detail, "node 3") {
		t.Fatalf("first violation = %+v", vs[0])
	}
	if got := vs[0].String(); !strings.HasPrefix(got, "alloc/core-conservation: ") {
		t.Fatalf("String() = %q", got)
	}
	if err := r.Err(); err == nil || !strings.Contains(err.Error(), "3 invariant violation") {
		t.Fatalf("Err() = %v", err)
	}
	r.Reset()
	if r.Count() != 0 || len(r.Violations()) != 0 || len(r.Counts()) != 0 {
		t.Fatalf("reset recorder not empty: %d %v", r.Count(), r.Counts())
	}
}

func TestRecorderKeepBound(t *testing.T) {
	r := NewRecorder()
	for i := 0; i < DefaultKeep+50; i++ {
		Failf(r, "c", "i", "violation %d", i)
	}
	if n := r.Count(); n != int64(DefaultKeep+50) {
		t.Fatalf("count = %d, want %d", n, DefaultKeep+50)
	}
	if got := len(r.Violations()); got != DefaultKeep {
		t.Fatalf("retained %d records, want %d", got, DefaultKeep)
	}
}

func TestCheckf(t *testing.T) {
	r := NewRecorder()
	Checkf(r, true, "c", "i", "should not record")
	if r.Count() != 0 {
		t.Fatal("Checkf recorded on a true condition")
	}
	Checkf(r, false, "c", "i", "recorded")
	if r.Count() != 1 {
		t.Fatal("Checkf did not record on a false condition")
	}
}

func TestNilCheckerIsNoOp(t *testing.T) {
	// Must not panic.
	Failf(nil, "c", "i", "x")
	Checkf(nil, false, "c", "i", "x")
}

func TestClose(t *testing.T) {
	cases := []struct {
		a, b, tol float64
		want      bool
	}{
		{1, 1, 1e-9, true},
		{1, 1 + 1e-12, 1e-9, true},
		{1, 1.001, 1e-9, false},
		{0, 1e-10, 1e-9, true},       // absolute near zero
		{1e12, 1e12 + 1, 1e-9, true}, // relative for large magnitudes
		{1e12, 1e12 + 1e5, 1e-9, false},
		{math.NaN(), 1, 1e-3, false},
		{math.Inf(1), math.Inf(1), 1e-3, false},
	}
	for _, c := range cases {
		if got := Close(c.a, c.b, c.tol); got != c.want {
			t.Errorf("Close(%g, %g, %g) = %v, want %v", c.a, c.b, c.tol, got, c.want)
		}
	}
}

func TestDefaultAndResolve(t *testing.T) {
	old := Default()
	defer SetDefault(old)

	SetDefault(nil)
	if Resolve(nil) != nil {
		t.Fatal("Resolve(nil) with no default should be nil")
	}
	r := NewRecorder()
	SetDefault(r)
	if Resolve(nil) != Checker(r) {
		t.Fatal("Resolve(nil) should return the default")
	}
	other := NewRecorder()
	if Resolve(other) != Checker(other) {
		t.Fatal("Resolve(c) should prefer the explicit checker")
	}
}

// TestRecorderConcurrent exercises Record/Count/Counts/Violations from
// many goroutines; run under -race it proves the Recorder is safe to
// share across the evaluation engine's workers.
func TestRecorderConcurrent(t *testing.T) {
	r := NewRecorder()
	var wg sync.WaitGroup
	const writers, perWriter = 8, 200
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				Failf(r, "c", fmt.Sprintf("inv-%d", w%2), "v %d", i)
				if i%32 == 0 {
					r.Count()
					r.Counts()
					r.Violations()
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Count(); got != writers*perWriter {
		t.Fatalf("count = %d, want %d", got, writers*perWriter)
	}
}

func TestSweepMainFailsOnViolations(t *testing.T) {
	old := Default()
	defer SetDefault(old)

	// A clean run passes through the inner code.
	if code := SweepMain(runFunc(func() int { return 0 })); code != 0 {
		t.Fatalf("clean SweepMain = %d, want 0", code)
	}
	// A run that records a violation fails even when tests passed.
	code := SweepMain(runFunc(func() int {
		Failf(Default(), "alloc", "core-conservation", "boom")
		return 0
	}))
	if code == 0 {
		t.Fatal("SweepMain returned 0 despite a recorded violation")
	}
}

type runFunc func() int

func (f runFunc) Run() int { return f() }
