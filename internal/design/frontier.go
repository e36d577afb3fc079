// Package design is the SKU design-space search the paper leaves as
// future work (§VIII: "we expect that a future search framework could
// consider such interactions and repeatedly run GSF to evaluate
// emissions"). A Space spans the discrete component choices around
// the internal/hw catalog — CPU choice, socket count, DIMM population,
// DDR4-behind-CXL ratio, new and reused SSD tiers, and optional
// SCARIF-style accelerators — and Constraints bound it by PCIe lanes,
// memory ratio and storage floor. MinCarbon ranks the feasible
// candidates on carbon per core alone; Search fans their evaluation
// through internal/engine and maintains the set of mutually
// non-dominated designs over carbon, performance and density in a
// Frontier whose dominance order is a strict partial order, making the
// surviving set independent of evaluation and insertion order.
package design

import (
	"math"
	"sort"

	"github.com/greensku/gsf/internal/hw"
)

// Objectives are the three axes of the design search. CarbonPerCore is
// minimised; the other two are maximised.
type Objectives struct {
	// CarbonPerCore is amortised lifetime kgCO2e per core
	// (carbon.PerCore.Total at the evaluation CI).
	CarbonPerCore float64
	// PerfPerCore is the portfolio per-core capacity relative to the
	// Gen3 baseline (Evaluator.PerfScore); 1.0 means baseline-equal.
	PerfPerCore float64
	// CoresPerRack is rack density under the dataset's space and power
	// caps (carbon.Rack.Cores).
	CoresPerRack float64
}

// vec is the canonical minimise-vector of the objectives: dominance
// below is plain ≤/< comparison on it.
func (o Objectives) vec() [3]float64 {
	return [3]float64{o.CarbonPerCore, -o.PerfPerCore, -o.CoresPerRack}
}

// Point is one evaluated candidate design.
type Point struct {
	SKU hw.SKU
	Obj Objectives
}

// Frontier maintains the non-dominated set under a quantised strict
// dominance order with deterministic tie-breaking.
//
// Epsilon-dedup works on a fixed grid: each objective axis with a
// positive epsilon step is quantised to integer cells at construction
// time, and dominance compares cells. Within one cell exactly one
// point survives — the lexicographically smallest by raw
// minimise-vector, then by SKU name. A fixed grid (rather than
// per-point relative epsilon balls) is what keeps the order
// transitive: cell equality is exact, so Beats is irreflexive and
// transitive, and the maximal-element set — what Insert maintains
// incrementally — is unique regardless of insertion order.
type Frontier struct {
	eps Objectives
	pts []Point
}

// NewFrontier returns an empty frontier quantised by eps. An axis with
// a non-positive (or non-finite) epsilon is compared exactly.
func NewFrontier(eps Objectives) *Frontier {
	clamp := func(e float64) float64 {
		if !(e > 0) || math.IsInf(e, 1) {
			return 0
		}
		return e
	}
	return &Frontier{eps: Objectives{
		CarbonPerCore: clamp(eps.CarbonPerCore),
		PerfPerCore:   clamp(eps.PerfPerCore),
		CoresPerRack:  clamp(eps.CoresPerRack),
	}}
}

// cells quantises a point's minimise-vector onto the frontier's grid.
func (f *Frontier) cells(p Point) [3]float64 {
	v := p.Obj.vec()
	e := [3]float64{f.eps.CarbonPerCore, f.eps.PerfPerCore, f.eps.CoresPerRack}
	for i := range v {
		if e[i] > 0 {
			v[i] = math.Floor(v[i] / e[i])
		}
	}
	return v
}

// Beats reports whether p strictly precedes q in the frontier's order:
// p's quantised objectives dominate q's (no axis worse, at least one
// better), or both fall in the same cell and p wins the deterministic
// tie-break (smaller raw minimise-vector, then smaller SKU name).
func (f *Frontier) Beats(p, q Point) bool {
	pc, qc := f.cells(p), f.cells(q)
	less, greater := false, false
	for i := range pc {
		if pc[i] < qc[i] {
			less = true
		}
		if pc[i] > qc[i] {
			greater = true
		}
	}
	if less && !greater {
		return true
	}
	if less || greater {
		return false
	}
	pv, qv := p.Obj.vec(), q.Obj.vec()
	for i := range pv {
		if pv[i] != qv[i] {
			return pv[i] < qv[i]
		}
	}
	return p.SKU.Name < q.SKU.Name
}

// Insert offers p to the frontier and reports whether it survived.
// Points with non-finite objectives are rejected, as is a point whose
// SKU name is already present (names identify candidates; a re-offered
// candidate is a duplicate, not a new design). A surviving insert
// prunes every held point the newcomer beats, so by transitivity each
// pruned candidate is always beaten by some point of the final set.
func (f *Frontier) Insert(p Point) bool {
	for _, x := range p.Obj.vec() {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return false
		}
	}
	for _, q := range f.pts {
		if q.SKU.Name == p.SKU.Name || f.Beats(q, p) {
			return false
		}
	}
	kept := f.pts[:0]
	for _, q := range f.pts {
		if !f.Beats(p, q) {
			kept = append(kept, q)
		}
	}
	f.pts = append(kept, p)
	return true
}

// Len returns the current frontier size.
func (f *Frontier) Len() int { return len(f.pts) }

// Points returns the frontier sorted by ascending carbon, then name —
// the canonical presentation order.
func (f *Frontier) Points() []Point {
	out := append([]Point(nil), f.pts...)
	sort.Slice(out, func(i, j int) bool {
		if out[i].Obj.CarbonPerCore != out[j].Obj.CarbonPerCore {
			return out[i].Obj.CarbonPerCore < out[j].Obj.CarbonPerCore
		}
		return out[i].SKU.Name < out[j].SKU.Name
	})
	return out
}

// DominatedBy returns the name of the first frontier point in Points
// order that beats p, or "" when none does (p is then itself on the
// frontier, or was never offered).
func (f *Frontier) DominatedBy(p Point) string {
	for _, q := range f.Points() {
		if f.Beats(q, p) {
			return q.SKU.Name
		}
	}
	return ""
}

// DefaultEpsilon is the dedup grid of the stock search: 10 g CO2e per
// core, 0.1% of baseline performance, exact rack density. Designs
// closer than this on every axis are interchangeable in practice; one
// representative per cell keeps the frontier readable.
func DefaultEpsilon() Objectives {
	return Objectives{CarbonPerCore: 0.01, PerfPerCore: 0.001, CoresPerRack: 0}
}
