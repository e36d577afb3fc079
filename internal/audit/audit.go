// Package audit is GSF's runtime invariant-checking layer: a
// zero-dependency Checker that the simulators and the carbon model
// consult at the points where the quantities they conserve — cores,
// memory, event time, carbon mass — could silently drift.
//
// The layer is designed to be free when disabled and cheap when
// enabled. Components resolve their configured Checker once per run
// with Resolve (falling back to the process default installed by
// SetDefault); a nil resolved Checker skips every check, and the
// package helpers (Failf, Checkf) are no-ops on nil. When enabled,
// violations accumulate as typed Violation records in a Recorder:
// nothing panics and no result changes, so an audited run returns
// byte-identical output to an unaudited one — the audit only reports.
//
// The invariants checked across the repository (see the package that
// owns each for the enforcement site):
//
//   - alloc: per-node core and memory conservation (free capacity in
//     [0, capacity] after every placement and release, and exactly
//     full again once every VM has departed), best-fit admissibility
//     (a chosen server actually fits the request), no VM placed after
//     its departure, and no spurious rejections (a rejected VM truly
//     fits nowhere).
//   - queueing: event-clock monotonicity, service start >= arrival,
//     completion >= start, latency >= service time, the free-server
//     heap stays a min-heap, and latency percentiles are ordered
//     (P50 <= P95 <= P99).
//   - carbon: server power and embodied emissions equal the sum of
//     their parts to 1e-9, every component is non-negative, rack
//     totals follow Eqs. 2-3 from the server totals, per-core total =
//     operational + embodied, and savings fractions are consistent
//     with the per-core emissions they were derived from.
//   - cluster/buffer: mixed-cluster capacity (and the buffered
//     cluster's) covers the trace's peak concurrent demand, and the
//     mixed cluster never keeps more baseline servers than the
//     all-baseline right-sizing, and every sizing probe answered from
//     a replay's opening record agrees with a real replay.
package audit

import (
	"fmt"
	"math"
	"os"
	"sync"
	"sync/atomic"
)

// Violation is one observed invariant breach.
type Violation struct {
	// Component names the subsystem that owns the invariant:
	// "alloc", "queueing", "carbon", "cluster", "core".
	Component string
	// Invariant is the stable identifier of the violated check,
	// e.g. "core-conservation" or "clock-monotonicity".
	Invariant string
	// Detail carries the offending values, human-readable.
	Detail string
}

func (v Violation) String() string {
	return v.Component + "/" + v.Invariant + ": " + v.Detail
}

// Checker receives violations. Implementations must be safe for
// concurrent use: the evaluation engine runs audited simulations in
// parallel. A nil Checker disables checking.
type Checker interface {
	Record(Violation)
}

// DefaultKeep is how many violation details a Recorder retains; counts
// keep accumulating past it.
const DefaultKeep = 64

// Recorder is the standard Checker: it counts every violation
// (total and per component/invariant pair) and keeps the first
// DefaultKeep full records for diagnosis.
type Recorder struct {
	n atomic.Int64

	mu     sync.Mutex
	vs     []Violation
	counts map[string]int64
}

// NewRecorder returns an empty, ready-to-share Recorder.
func NewRecorder() *Recorder {
	return &Recorder{counts: make(map[string]int64)}
}

// Record implements Checker.
func (r *Recorder) Record(v Violation) {
	r.n.Add(1)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counts[v.Component+"/"+v.Invariant]++
	if len(r.vs) < DefaultKeep {
		r.vs = append(r.vs, v)
	}
}

// Count returns the total number of violations recorded. It is
// lock-free, so metrics endpoints can poll it on every scrape.
func (r *Recorder) Count() int64 { return r.n.Load() }

// Counts returns a copy of the per-"component/invariant" counts.
func (r *Recorder) Counts() map[string]int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[string]int64, len(r.counts))
	for k, n := range r.counts {
		out[k] = n
	}
	return out
}

// Violations returns a copy of the retained violation records (at most
// DefaultKeep of them, in arrival order).
func (r *Recorder) Violations() []Violation {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Violation(nil), r.vs...)
}

// Reset clears all counts and retained records.
func (r *Recorder) Reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.n.Store(0)
	r.vs = r.vs[:0]
	clear(r.counts)
}

// Err returns nil when the recorder is clean, or an error summarising
// the violations otherwise.
func (r *Recorder) Err() error {
	n := r.Count()
	if n == 0 {
		return nil
	}
	vs := r.Violations()
	first := ""
	if len(vs) > 0 {
		first = "; first: " + vs[0].String()
	}
	return fmt.Errorf("audit: %d invariant violation(s)%s", n, first)
}

// Failf records a formatted violation; a no-op when c is nil.
func Failf(c Checker, component, invariant, format string, args ...any) {
	if c == nil {
		return
	}
	c.Record(Violation{Component: component, Invariant: invariant, Detail: fmt.Sprintf(format, args...)})
}

// Checkf records a violation when cond is false; a no-op when c is
// nil. The format arguments are evaluated eagerly, so hot loops should
// test the condition themselves and call Failf only on failure.
func Checkf(c Checker, cond bool, component, invariant, format string, args ...any) {
	if c == nil || cond {
		return
	}
	Failf(c, component, invariant, format, args...)
}

// CarbonTol is the tolerance for carbon-mass and power conservation
// sums, which recompute the same additions and must agree essentially
// exactly.
const CarbonTol = 1e-9

// SimTol is the tolerance for simulator resource conservation, where
// thousands of floating-point place/release pairs accumulate rounding
// drift far below this but well above CarbonTol.
const SimTol = 1e-6

// Close reports whether a and b agree within tol, measured relative to
// max(1, |a|, |b|) so it behaves absolutely near zero and relatively
// for large magnitudes. Non-finite inputs never compare close.
func Close(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
		return false
	}
	scale := 1.0
	if aa := math.Abs(a); aa > scale {
		scale = aa
	}
	if ab := math.Abs(b); ab > scale {
		scale = ab
	}
	return math.Abs(a-b) <= tol*scale
}

// The process-default Checker, consulted by Resolve when a component
// has no explicit Checker configured. Nil (the zero state) disables
// auditing everywhere that is not explicitly wired.
var (
	defMu sync.RWMutex
	def   Checker
)

// SetDefault installs the process-default Checker. Passing nil
// disables default auditing. cmd/gsfd's -audit flag and the test
// suites' SweepMain use this to enable auditing globally, including in
// deep paths (queueing runs inside memoized performance profiling)
// that no per-call Checker reaches.
func SetDefault(c Checker) {
	defMu.Lock()
	def = c
	defMu.Unlock()
}

// Default returns the process-default Checker, or nil.
func Default() Checker {
	defMu.RLock()
	defer defMu.RUnlock()
	return def
}

// Resolve returns c when non-nil, otherwise the process default.
// Components call it once at the start of a run, then guard their
// checks on the resolved value being non-nil.
func Resolve(c Checker) Checker {
	if c != nil {
		return c
	}
	return Default()
}

// SweepMain wraps a package's tests with a process-default Recorder so
// the whole test binary doubles as an invariant sweep: every audited
// code path any test exercises reports into one Recorder, and any
// violation fails the run even when all tests pass. Use from TestMain:
//
//	func TestMain(m *testing.M) { os.Exit(audit.SweepMain(m)) }
//
// Tests that deliberately provoke violations must pass their own
// Recorder explicitly (e.g. via alloc.Config.Audit) so the breakage
// stays out of the process default.
//
// The parameter is the *testing.M passed to TestMain; it is typed as
// an interface so this package never imports testing into production
// binaries.
func SweepMain(m interface{ Run() int }) int {
	rec := NewRecorder()
	SetDefault(rec)
	code := m.Run()
	if n := rec.Count(); n > 0 {
		fmt.Fprintf(os.Stderr, "audit: %d invariant violation(s) recorded during the test run:\n", n)
		for k, c := range rec.Counts() {
			fmt.Fprintf(os.Stderr, "  %-40s %d\n", k, c)
		}
		for _, v := range rec.Violations() {
			fmt.Fprintf(os.Stderr, "  %s\n", v)
		}
		if code == 0 {
			code = 1
		}
	}
	return code
}
