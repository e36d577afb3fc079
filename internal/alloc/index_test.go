package alloc

// Property tests for the columnar fleet's placement index against two
// oracles: the linear scan (pick equality on every query) and a naive
// recompute of the index's own invariants (treap membership and
// ordering per occupancy class, done by sorting the touched servers).
// A fleet's index keeps only what its policy queries, so each check
// runs on one fleet per policy. The fuzz harness in
// index_fuzz_test.go drives the same checks from arbitrary byte
// strings.

import (
	"sort"
	"testing"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/stats"
)

// indexClass is a deliberately small SKU so random workloads collide
// on free-capacity values and exercise every tie-break level.
func indexClass() ServerClass {
	return ServerClass{Name: "ix-test", Cores: 8, Memory: 64, LocalMemory: 64}
}

// opCores/opMem are the request quanta random and fuzzed workloads
// draw from: small discrete values to force ties, plus fractional ones
// (scaled requests) to force non-integral free capacities.
var (
	opCores = []float64{1, 2, 2.2, 3, 5.5}
	opMem   = []float64{4, 8, 8.8, 16, 24}
)

// policies lists the placement policies; every index check builds one
// fleet per entry.
var policies = []Policy{BestFit, FirstFit, WorstFit}

// scanUnder is the linear scan of f's servers under policy q, which
// may differ from the fleet's own: random and fuzzed workloads choose
// their placements with it, so every fleet sees states that any
// policy's placements reach.
func scanUnder(f *fleet, q Policy, c, m float64, prefer bool) int32 {
	g := *f
	g.pol = q
	return g.scanPick(c, m, prefer)
}

// inOrder appends the subtree's node ids in key order.
func inOrder(ix *ixCore, n int32, out *[]int32) {
	if n == nilNode {
		return
	}
	inOrder(ix, ix.nodes[n].left, out)
	*out = append(*out, n)
	inOrder(ix, ix.nodes[n].right, out)
}

// checkOracle checks that the fleet keeps the structure its policy
// reads and no other. For treaps, it rebuilds the index's claims
// naively from the fleet's touched servers — which server belongs to
// which occupancy treap, and in what order — and verifies them. Then
// it runs the full structural integrity walk.
func checkOracle(t *testing.T, f *fleet) {
	t.Helper()
	touched := f.frontier > 0
	if kept := f.ix.seg != nil; kept != (f.pol == FirstFit && touched) {
		t.Fatalf("%v fleet with %d touched servers keeps a segment tree: %v", f.pol, f.frontier, kept)
	}
	if kept := f.ix.nodes != nil; kept != (f.pol != FirstFit && touched) {
		t.Fatalf("%v fleet with %d touched servers keeps treaps: %v", f.pol, f.frontier, kept)
	}
	if f.pol != FirstFit {
		checkTreaps(t, f)
	}
	rec := audit.NewRecorder()
	f.auditIntegrity(rec, "oracle")
	if rec.Count() > 0 {
		t.Fatalf("index integrity violations: %v", rec.Violations())
	}
}

// checkTreaps verifies each occupancy treap's members and their key
// order against a sort of the touched servers.
func checkTreaps(t *testing.T, f *fleet) {
	t.Helper()
	want := map[bool][]int32{}
	for id := int32(0); id < f.frontier; id++ {
		want[f.vms[id] > 0] = append(want[f.vms[id] > 0], id)
	}
	for _, ne := range []bool{true, false} {
		ids := want[ne]
		sort.Slice(ids, func(i, j int) bool {
			a, b := ids[i], ids[j]
			if f.coresFree[a] != f.coresFree[b] {
				return f.coresFree[a] < f.coresFree[b]
			}
			if f.memFree[a] != f.memFree[b] {
				return f.memFree[a] < f.memFree[b]
			}
			return a < b
		})
		root := f.ix.rootE
		if ne {
			root = f.ix.rootNE
		}
		var got []int32
		inOrder(&f.ix, root, &got)
		if len(got) != len(ids) {
			t.Fatalf("occupancy treap (ne=%v) holds %d servers, oracle says %d", ne, len(got), len(ids))
		}
		for i := range got {
			if got[i] != ids[i] {
				t.Fatalf("occupancy treap (ne=%v) order diverges at %d: index %v, oracle %v", ne, i, got, ids)
			}
		}
	}
}

// comparePicks checks every query the simulator issues of the fleet —
// its policy's picks under both PreferNonEmpty settings for one
// request, and the full-node rule — against a linear scan.
func comparePicks(t *testing.T, f *fleet, c, m float64) {
	t.Helper()
	for _, prefer := range []bool{false, true} {
		got := f.pick(c, m, prefer)
		want := f.scanPick(c, m, prefer)
		if got != want {
			t.Fatalf("pick(%g, %g, %v, preferNonEmpty=%v): index chose %d, scan chose %d",
				c, m, f.pol, prefer, got, want)
		}
	}
	wantWhole := nilNode
	for id := int32(0); id < f.n; id++ {
		if sc, sm, ne := f.state(id); !ne && sc >= f.capC && sm >= f.capM {
			wantWhole = id
			break
		}
	}
	if got := f.firstWholeEmpty(); got != wantWhole {
		t.Fatalf("%v fleet: full-node rule chose %d, scan chose %d", f.pol, got, wantWhole)
	}
}

// placement is one live (server, request) pair of a random workload.
type placement struct {
	id   int32
	c, m float64
}

// TestIndexMatchesOracleRandomOps drives random place/release
// sequences, whole-node placements among them, through one fleet per
// policy and checks every fleet query against the scan after each
// mutation, with periodic full-structure oracle checks.
func TestIndexMatchesOracleRandomOps(t *testing.T) {
	for seed := uint64(1); seed <= 6; seed++ {
		for _, pol := range policies {
			r := stats.NewRNG(seed * 7919)
			f := newFleet(indexClass(), 11, pol)
			var live []placement
			steps := 600
			if testing.Short() {
				steps = 150
			}
			for step := 0; step < steps; step++ {
				switch u := r.Float64(); {
				case len(live) > 0 && u < 0.45:
					k := r.Intn(len(live))
					p := live[k]
					f.release(p.id, p.c, p.m, 0)
					live[k] = live[len(live)-1]
					live = live[:len(live)-1]
				case u > 0.97:
					if id := f.firstWholeEmpty(); id != nilNode {
						f.place(id, f.capC, f.capM, 0)
						live = append(live, placement{id, f.capC, f.capM})
					}
				default:
					c := opCores[r.Intn(len(opCores))]
					m := opMem[r.Intn(len(opMem))]
					q := Policy(r.Intn(3))
					if id := scanUnder(&f, q, c, m, r.Intn(2) == 0); id != nilNode {
						f.place(id, c, m, 0)
						live = append(live, placement{id, c, m})
					}
				}
				comparePicks(t, &f, opCores[step%len(opCores)], opMem[step%len(opMem)])
				if step%40 == 0 {
					comparePicks(t, &f, 0, 0)
					comparePicks(t, &f, 1e9, 1e9)
					checkOracle(t, &f)
				}
			}
			checkOracle(t, &f)
		}
	}
}

// TestAuditCatchesCorruptedIndex is the canary for the index's audit
// hooks: mutating a server behind the index's back must surface both
// as an integrity violation (stale key) and as a pick divergence.
func TestAuditCatchesCorruptedIndex(t *testing.T) {
	class := ServerClass{Name: "corrupt", Cores: 10, Memory: 100, LocalMemory: 100}
	rec := audit.NewRecorder()
	sim, err := NewSim("canary", Config{Base: class, NBase: 2, Policy: BestFit, Audit: rec}, nil)
	if err != nil {
		t.Fatal(err)
	}
	f := &sim.pools[0]
	f.place(0, 4, 40, 0)

	// Bypass the index: server 0 now has 1 core free, but the index
	// still believes 6.
	f.coresFree[0] -= 5

	integrity := audit.NewRecorder()
	f.auditIntegrity(integrity, "canary")
	if integrity.Counts()["alloc/index-integrity"] == 0 {
		t.Fatalf("stale index key not caught: %v", integrity.Counts())
	}

	got := sim.pickFrom(0, 6, 10)
	if rec.Counts()["alloc/index-divergence"] == 0 {
		t.Fatalf("index/scan divergence not caught (picked %d): %v", got, rec.Counts())
	}
}

// TestAuditCatchesFlippedWholeNodeBit is the canary for the
// whole-node bitset's audit: flipping one bit, either way, must
// surface as exactly one integrity violation.
func TestAuditCatchesFlippedWholeNodeBit(t *testing.T) {
	for _, flip := range []int32{0, 1} {
		f := newFleet(indexClass(), 4, BestFit)
		for id := int32(0); id < 3; id++ {
			f.place(id, 2, 8, 0)
		}
		f.release(1, 2, 8, 0) // server 1 is empty again: its bit is set
		clean := audit.NewRecorder()
		f.auditIntegrity(clean, "canary")
		if clean.Count() != 0 {
			t.Fatalf("clean fleet recorded violations: %v", clean.Violations())
		}
		f.whole[0] ^= 1 << flip
		rec := audit.NewRecorder()
		f.auditIntegrity(rec, "canary")
		if n := rec.Counts()["alloc/index-integrity"]; n != 1 || rec.Count() != 1 {
			t.Fatalf("flipped whole-node bit %d: %d index-integrity violations of %d, want exactly 1: %v",
				flip, n, rec.Count(), rec.Violations())
		}
	}
}

// TestIndexEmptyAndSinglePools covers the degenerate pool sizes the
// simulators hand the fleet.
func TestIndexEmptyAndSinglePools(t *testing.T) {
	for _, pol := range policies {
		empty := newFleet(indexClass(), 0, pol)
		comparePicks(t, &empty, 2, 8)
		if id := empty.pick(2, 8, true); id != nilNode {
			t.Fatalf("empty %v pool picked server %d", pol, id)
		}
		f := newFleet(indexClass(), 1, pol)
		comparePicks(t, &f, 2, 8)
		f.place(0, 2, 8, 0)
		comparePicks(t, &f, 2, 8)
		comparePicks(t, &f, 8, 64)
		f.release(0, 2, 8, 0)
		comparePicks(t, &f, 8, 64)
		checkOracle(t, &f)
	}
}
