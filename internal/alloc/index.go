package alloc

// The placement index: the allocation simulator's fast path. A linear
// scan (internal/oracle, and fleet.scanPick for the audit layer)
// visits every server of a pool per placement, making a sweep
// O(VMs x servers); production allocators index their candidate sets
// instead (Protean). This index answers every policy query in
// O(log S) and absorbs a place or release in O(log S), while remaining
// decision-identical to the scan — the differential, property, and
// fuzz suites prove it, and the audit layer cross-checks it on every
// audited placement.
//
// A pool keeps one of two structures, the one its policy's queries
// read. Both are keyed on exact float64 free capacity (scaled requests
// make free cores fractional, and place/release pairs leave sub-SimTol
// float drift, so integer-granular buckets would not reproduce the
// scan's comparisons bit-for-bit):
//
//   - BestFit and WorstFit pools keep a treap per occupancy class
//     (non-empty / empty) ordered by (coresFree, memFree, id),
//     augmented with the subtree maximum of memFree. BestFit is the
//     leftmost feasible key (least cores, then least memory, then
//     first index — the scan's exact order); WorstFit is the rightmost
//     feasible key re-anchored to the first index of its (cores, mem)
//     tie group. The occupancy split makes PreferNonEmpty a query on
//     one root with fallback to the other.
//   - FirstFit pools keep a segment tree over server indices holding
//     per-class maxima of (coresFree, memFree). FirstFit is the
//     leftmost feasible leaf.
//
// No query of one kind reads the other structure, and the full-node
// rule, in every pool, reads the fleet's whole-node bitset instead
// (colsim.go), so a pool maintains nothing its picks never read.
//
// A place or release re-keys one server: detach, mutate, re-attach.
// The treap keeps its maxMem augmentation exact without recomputing
// it level by level. An insertion can only raise a subtree maximum, so
// insertNode raises maxMem on the way down and pulls only the nodes a
// rotation re-parents. A merge's surviving root takes the larger of
// the two roots' maxima, which is exactly the maximum of the union. A
// deletion can only lower the maximum of a subtree whose maximum was
// the leaving node's mem, so deleteNode pulls exactly those ancestors.
// Every other maxMem is unchanged by construction; the integrity audit
// recomputes them all.
//
// ixCore is the pure structure: it knows servers only as ids with
// (coresFree, memFree, occupancy) keys, which the columnar fleet
// (colsim.go) attaches straight from its parallel arrays, growing the
// core as its touched frontier advances. Every structure is backed by
// slices; steady-state operations perform zero heap allocations
// (pinned by TestIndexedPickZeroAllocs).

import (
	"math"

	"github.com/greensku/gsf/internal/audit"
)

const nilNode = int32(-1)

var negInf = math.Inf(-1)

// treapNode is one server's node in its pool's occupancy treap. The
// key (cores, mem, id) is a copy of the server's free capacity, kept
// exact by detaching before and re-attaching after every mutation.
type treapNode struct {
	left, right int32
	prio        uint32
	cores, mem  float64
	// maxMem is the maximum mem over the node's subtree, the pruning
	// bound for feasibility (memFree >= request) searches.
	maxMem float64
	// ne records which occupancy treap currently holds the node.
	ne bool
}

// segNode aggregates a range of server indices: per-occupancy-class
// maxima of free capacity (negInf when the class is absent).
type segNode struct {
	coresNE, memNE float64
	coresE, memE   float64
}

// emptySeg is the identity element of the segment-tree combine.
var emptySeg = segNode{coresNE: negInf, memNE: negInf, coresE: negInf, memE: negInf}

// ixCore indexes a pool of server ids for O(log S) placement. It holds
// no server representation of its own: callers attach and detach ids
// with explicit (cores, mem, occupancy) keys. Capacity grows on
// demand (grow), so a sparse pool — the columnar fleet's touched
// prefix — pays only for the ids it has materialized.
type ixCore struct {
	// byIndex is set for FirstFit pools: the core keeps the segment
	// tree and no treaps. Otherwise it keeps the treaps, and seg stays
	// nil with segSize 0.
	byIndex bool
	nodes   []treapNode
	rootNE  int32
	rootE   int32
	seg     []segNode
	segSize int32
}

// newIxCore returns an empty core for a pool under pol. Unknown
// policies pick like FirstFit (pickClass), so they index by id too.
func newIxCore(pol Policy) ixCore {
	return ixCore{byIndex: pol != BestFit && pol != WorstFit, rootNE: nilNode, rootE: nilNode}
}

// prioOf derives a fixed, deterministic treap priority from a server
// index (splitmix64 finalizer), so tree shapes are reproducible.
func prioOf(id int32) uint32 {
	z := uint64(id)*0x9e3779b97f4a7c15 + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return uint32(z ^ (z >> 31))
}

// initCore readies the core for exactly n ids.
func (ix *ixCore) initCore(n int) {
	ix.rootNE, ix.rootE = nilNode, nilNode
	if !ix.byIndex {
		ix.nodes = make([]treapNode, n)
		for i := range ix.nodes {
			ix.nodes[i].prio = prioOf(int32(i))
		}
		return
	}
	segSize := int32(1)
	for int(segSize) < n {
		segSize <<= 1
	}
	ix.seg = make([]segNode, 2*segSize)
	for i := range ix.seg {
		ix.seg[i] = emptySeg
	}
	ix.segSize = segSize
}

// grow extends the core to hold ids [0, n). Treap node slots append
// in amortized O(1); when n outgrows the segment tree, the tree
// doubles and rebuilds in O(n) — amortized O(1) per added id. Detached
// (never attached) slots are inert: their leaves stay at the identity
// and their treap nodes are untracked.
func (ix *ixCore) grow(n int32) {
	if !ix.byIndex {
		for int32(len(ix.nodes)) < n {
			ix.nodes = append(ix.nodes, treapNode{prio: prioOf(int32(len(ix.nodes)))})
		}
		return
	}
	if n <= ix.segSize {
		return
	}
	newSize := max(ix.segSize, 1)
	for newSize < n {
		newSize <<= 1
	}
	old := ix.seg
	oldSize := ix.segSize
	ix.seg = make([]segNode, 2*newSize)
	for i := range ix.seg {
		ix.seg[i] = emptySeg
	}
	if oldSize > 0 {
		copy(ix.seg[newSize:], old[oldSize:])
	}
	for i := newSize - 1; i >= 1; i-- {
		ix.seg[i] = combineSeg(&ix.seg[2*i], &ix.seg[2*i+1])
	}
	ix.segSize = newSize
}

// keyLess orders nodes by (cores, mem, id) ascending — exactly the
// scan's BestFit preference order, with first-index tie-breaking.
func (ix *ixCore) keyLess(a, b int32) bool {
	na, nb := &ix.nodes[a], &ix.nodes[b]
	if na.cores != nb.cores {
		return na.cores < nb.cores
	}
	if na.mem != nb.mem {
		return na.mem < nb.mem
	}
	return a < b
}

// pull recomputes a node's subtree maxMem from its children.
func (ix *ixCore) pull(n int32) {
	nd := &ix.nodes[n]
	mm := nd.mem
	if nd.left != nilNode {
		if lm := ix.nodes[nd.left].maxMem; lm > mm {
			mm = lm
		}
	}
	if nd.right != nilNode {
		if rm := ix.nodes[nd.right].maxMem; rm > mm {
			mm = rm
		}
	}
	nd.maxMem = mm
}

func (ix *ixCore) rotateRight(n int32) int32 {
	l := ix.nodes[n].left
	ix.nodes[n].left = ix.nodes[l].right
	ix.nodes[l].right = n
	ix.pull(n)
	ix.pull(l)
	return l
}

func (ix *ixCore) rotateLeft(n int32) int32 {
	r := ix.nodes[n].right
	ix.nodes[n].right = ix.nodes[r].left
	ix.nodes[r].left = n
	ix.pull(n)
	ix.pull(r)
	return r
}

// insertNode inserts n, whose maxMem is its own mem, into the treap
// at root. Every node on the descent gains n in its subtree, so its
// maxMem is raised on the way down; a rotation re-parents two nodes
// and pulls exactly those.
func (ix *ixCore) insertNode(root, n int32) int32 {
	if root == nilNode {
		return n
	}
	rd := &ix.nodes[root]
	if m := ix.nodes[n].mem; m > rd.maxMem {
		rd.maxMem = m
	}
	if ix.keyLess(n, root) {
		rd.left = ix.insertNode(rd.left, n)
		if ix.nodes[rd.left].prio > rd.prio {
			return ix.rotateRight(root)
		}
	} else {
		rd.right = ix.insertNode(rd.right, n)
		if ix.nodes[rd.right].prio > rd.prio {
			return ix.rotateLeft(root)
		}
	}
	return root
}

// mergeNodes joins two treaps whose keys are ordered a < b. The
// surviving root's subtree becomes the union of both, so its maxMem
// is the larger of the two roots' maxima.
func (ix *ixCore) mergeNodes(a, b int32) int32 {
	if a == nilNode {
		return b
	}
	if b == nilNode {
		return a
	}
	na, nb := &ix.nodes[a], &ix.nodes[b]
	mm := fmax(na.maxMem, nb.maxMem)
	if na.prio >= nb.prio {
		na.maxMem = mm
		na.right = ix.mergeNodes(na.right, b)
		return a
	}
	nb.maxMem = mm
	nb.left = ix.mergeNodes(a, nb.left)
	return b
}

// deleteNode removes n from the treap at root. Only an ancestor whose
// maxMem was n's mem can see its maximum fall, so only those pull.
func (ix *ixCore) deleteNode(root, n int32) int32 {
	if root == nilNode {
		panic("alloc: placement index lost track of a server")
	}
	if root == n {
		return ix.mergeNodes(ix.nodes[n].left, ix.nodes[n].right)
	}
	rd := &ix.nodes[root]
	if ix.keyLess(n, root) {
		rd.left = ix.deleteNode(rd.left, n)
	} else {
		rd.right = ix.deleteNode(rd.right, n)
	}
	if rd.maxMem == ix.nodes[n].mem {
		ix.pull(root)
	}
	return root
}

// detachID removes an id from the index ahead of a mutation of its
// free capacity or occupancy; attachID re-inserts it afterwards. A
// segment-tree leaf is simply overwritten on attach.
func (ix *ixCore) detachID(n int32) {
	if ix.byIndex {
		return
	}
	if ix.nodes[n].ne {
		ix.rootNE = ix.deleteNode(ix.rootNE, n)
	} else {
		ix.rootE = ix.deleteNode(ix.rootE, n)
	}
}

func (ix *ixCore) attachID(n int32, cores, mem float64, ne bool) {
	if ix.byIndex {
		ix.segSet(n, cores, mem, ne)
		return
	}
	nd := &ix.nodes[n]
	nd.left, nd.right = nilNode, nilNode
	nd.cores, nd.mem, nd.maxMem = cores, mem, mem
	nd.ne = ne
	if ne {
		ix.rootNE = ix.insertNode(ix.rootNE, n)
	} else {
		ix.rootE = ix.insertNode(ix.rootE, n)
	}
}

// segSet rewrites an id's segment-tree leaf and bubbles the change to
// the root.
func (ix *ixCore) segSet(id int32, cores, mem float64, ne bool) {
	i := ix.segSize + id
	sn := &ix.seg[i]
	if ne {
		*sn = segNode{coresNE: cores, memNE: mem, coresE: negInf, memE: negInf}
	} else {
		*sn = segNode{coresNE: negInf, memNE: negInf, coresE: cores, memE: mem}
	}
	for i >>= 1; i >= 1; i >>= 1 {
		ix.seg[i] = combineSeg(&ix.seg[2*i], &ix.seg[2*i+1])
	}
}

func combineSeg(l, r *segNode) segNode {
	return segNode{
		coresNE: fmax(l.coresNE, r.coresNE),
		memNE:   fmax(l.memNE, r.memNE),
		coresE:  fmax(l.coresE, r.coresE),
		memE:    fmax(l.memE, r.memE),
	}
}

func fmax(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}

// leftmostFeasible returns the node with the smallest (cores, mem, id)
// key among nodes with cores >= c and mem >= m, or nilNode. Keys with
// cores >= c form a suffix of the key order, so the walk tracks the
// suffix boundary and uses maxMem to prune; at most one full downward
// probe succeeds, keeping the query O(log S). All comparisons are
// written positively so non-finite requests (never feasible for the
// scan) are never feasible here either.
func (ix *ixCore) leftmostFeasible(n int32, c, m float64) int32 {
	if n == nilNode {
		return nilNode
	}
	nd := &ix.nodes[n]
	if !(nd.maxMem >= m) {
		return nilNode
	}
	if !(nd.cores >= c) {
		// The node and its whole left subtree sit below the cores cut.
		return ix.leftmostFeasible(nd.right, c, m)
	}
	if r := ix.leftmostFeasible(nd.left, c, m); r != nilNode {
		return r
	}
	if nd.mem >= m {
		return n
	}
	// Everything right of here already satisfies cores >= c.
	return ix.leftmostMem(nd.right, m)
}

// leftmostMem returns the leftmost (key-order) node with mem >= m.
func (ix *ixCore) leftmostMem(n int32, m float64) int32 {
	if n == nilNode || !(ix.nodes[n].maxMem >= m) {
		return nilNode
	}
	nd := &ix.nodes[n]
	if r := ix.leftmostMem(nd.left, m); r != nilNode {
		return r
	}
	if nd.mem >= m {
		return n
	}
	return ix.leftmostMem(nd.right, m)
}

// rightmostMem returns the rightmost (key-order) node with mem >= m.
func (ix *ixCore) rightmostMem(n int32, m float64) int32 {
	if n == nilNode || !(ix.nodes[n].maxMem >= m) {
		return nilNode
	}
	nd := &ix.nodes[n]
	if r := ix.rightmostMem(nd.right, m); r != nilNode {
		return r
	}
	if nd.mem >= m {
		return n
	}
	return ix.rightmostMem(nd.left, m)
}

// lowerBound returns the leftmost node with key >= (c, m, -inf).
func (ix *ixCore) lowerBound(root int32, c, m float64) int32 {
	res := nilNode
	for n := root; n != nilNode; {
		nd := &ix.nodes[n]
		if nd.cores > c || (nd.cores == c && nd.mem >= m) {
			res = n
			n = nd.left
		} else {
			n = nd.right
		}
	}
	return res
}

// worstFeasible returns the feasible node preferred by (fixed)
// WorstFit: most free cores, then most free memory, then first index.
// The rightmost node with mem >= m maximises (cores, mem) over every
// feasible server; re-anchoring to the lower bound of its (cores, mem)
// group recovers the scan's first-index tie-break.
func (ix *ixCore) worstFeasible(root int32, c, m float64) int32 {
	r := ix.rightmostMem(root, m)
	if r == nilNode || !(ix.nodes[r].cores >= c) {
		return nilNode
	}
	return ix.lowerBound(root, ix.nodes[r].cores, ix.nodes[r].mem)
}

// segFirst returns the lowest server index whose free capacity
// dominates (c, m), restricted to the requested occupancy classes, or
// nilNode. Class maxima can over-approximate (the cores and mem maxima
// of a range may come from different servers), so the descent
// backtracks; leaf checks are exact.
func (ix *ixCore) segFirst(i int32, c, m float64, wantNE, wantE bool) int32 {
	sn := &ix.seg[i]
	if !((wantNE && sn.coresNE >= c && sn.memNE >= m) || (wantE && sn.coresE >= c && sn.memE >= m)) {
		return nilNode
	}
	if i >= ix.segSize {
		return i - ix.segSize
	}
	if r := ix.segFirst(2*i, c, m, wantNE, wantE); r != nilNode {
		return r
	}
	return ix.segFirst(2*i+1, c, m, wantNE, wantE)
}

// pickClass selects the policy-preferred feasible server within one
// occupancy class, or nilNode.
func (ix *ixCore) pickClass(cores, mem float64, pol Policy, nonEmpty bool) int32 {
	root := ix.rootE
	if nonEmpty {
		root = ix.rootNE
	}
	switch pol {
	case BestFit:
		return ix.leftmostFeasible(root, cores, mem)
	case WorstFit:
		return ix.worstFeasible(root, cores, mem)
	default: // FirstFit and unknown policies: earliest index wins.
		if ix.segSize == 0 {
			return nilNode
		}
		return ix.segFirst(1, cores, mem, nonEmpty, !nonEmpty)
	}
}

// pickNode selects the feasible id under the configured policy,
// decision-identically to the linear scan over the attached ids.
func (ix *ixCore) pickNode(cores, mem float64, pol Policy, preferNonEmpty bool) int32 {
	if preferNonEmpty {
		if n := ix.pickClass(cores, mem, pol, true); n != nilNode {
			return n
		}
		return ix.pickClass(cores, mem, pol, false)
	}
	switch pol {
	case BestFit:
		a := ix.leftmostFeasible(ix.rootNE, cores, mem)
		b := ix.leftmostFeasible(ix.rootE, cores, mem)
		return ix.minKey(a, b)
	case WorstFit:
		a := ix.worstFeasible(ix.rootNE, cores, mem)
		b := ix.worstFeasible(ix.rootE, cores, mem)
		return ix.maxKeyFirstIdx(a, b)
	default:
		if ix.segSize == 0 {
			return nilNode
		}
		return ix.segFirst(1, cores, mem, true, true)
	}
}

// minKey combines per-class BestFit winners: smallest (cores, mem, id).
func (ix *ixCore) minKey(a, b int32) int32 {
	if a == nilNode {
		return b
	}
	if b == nilNode {
		return a
	}
	if ix.keyLess(a, b) {
		return a
	}
	return b
}

// maxKeyFirstIdx combines per-class WorstFit winners: largest
// (cores, mem), then smallest index.
func (ix *ixCore) maxKeyFirstIdx(a, b int32) int32 {
	if a == nilNode {
		return b
	}
	if b == nilNode {
		return a
	}
	na, nb := &ix.nodes[a], &ix.nodes[b]
	if na.cores != nb.cores {
		if na.cores > nb.cores {
			return a
		}
		return b
	}
	if na.mem != nb.mem {
		if na.mem > nb.mem {
			return a
		}
		return b
	}
	if a < b {
		return a
	}
	return b
}

// auditIntegrityCore walks the whole index and reports any structural
// drift against the live pool state (supplied per id by state) to the
// audit layer: for treaps, ordering and heap shape, subtree maxima,
// occupancy classification, key staleness, and that every one of the
// n attached ids is indexed exactly once; for a segment tree, its
// leaves and combines. fleet.auditIntegrity calls it
// at the end of audited replays so they verify the index itself, not
// just the pool.
func (ix *ixCore) auditIntegrityCore(chk audit.Checker, pool string, n int32, state func(id int32) (cores, mem float64, ne bool)) {
	if chk == nil || ix == nil {
		return
	}
	if ix.byIndex {
		ix.auditSegTree(chk, pool, n, state)
		return
	}
	seen := make([]bool, n)
	count := int32(0)
	var walk func(nd int32, ne bool, prioCap uint32) (lo, hi int32)
	walk = func(node int32, ne bool, prioCap uint32) (int32, int32) {
		nd := &ix.nodes[node]
		if nd.prio > prioCap {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: treap heap order violated at node %d", pool, node)
		}
		if node >= n || seen[node] {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: node %d out of range or indexed twice", pool, node)
			return node, node
		}
		seen[node] = true
		count++
		sc, sm, sne := state(node)
		if nd.cores != sc || nd.mem != sm {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: node %d key (%g, %g) stale vs server (%g, %g)",
				pool, node, nd.cores, nd.mem, sc, sm)
		}
		if nd.ne != ne || sne != ne {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: node %d (nonEmpty=%v) in wrong occupancy treap (ne=%v)", pool, node, sne, ne)
		}
		mm := nd.mem
		lo, hi := node, node
		if nd.left != nilNode {
			llo, lhi := walk(nd.left, ne, nd.prio)
			if !ix.keyLess(lhi, node) {
				audit.Failf(chk, "alloc", "index-integrity",
					"%s pool: treap key order violated left of node %d", pool, node)
			}
			if lm := ix.nodes[nd.left].maxMem; lm > mm {
				mm = lm
			}
			lo = llo
		}
		if nd.right != nilNode {
			rlo, rhi := walk(nd.right, ne, nd.prio)
			if !ix.keyLess(node, rlo) {
				audit.Failf(chk, "alloc", "index-integrity",
					"%s pool: treap key order violated right of node %d", pool, node)
			}
			if rm := ix.nodes[nd.right].maxMem; rm > mm {
				mm = rm
			}
			hi = rhi
		}
		if nd.maxMem != mm {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: node %d maxMem %g, recomputed %g", pool, node, nd.maxMem, mm)
		}
		return lo, hi
	}
	const maxPrio = ^uint32(0)
	if ix.rootNE != nilNode {
		walk(ix.rootNE, true, maxPrio)
	}
	if ix.rootE != nilNode {
		walk(ix.rootE, false, maxPrio)
	}
	if count != n {
		audit.Failf(chk, "alloc", "index-integrity",
			"%s pool: %d of %d servers indexed", pool, count, n)
	}
}

// auditSegTree checks a FirstFit pool's segment tree: exact leaves for
// the n attached ids, identity leaves beyond them, consistent internal
// combines.
func (ix *ixCore) auditSegTree(chk audit.Checker, pool string, n int32, state func(id int32) (cores, mem float64, ne bool)) {
	if ix.segSize < n {
		audit.Failf(chk, "alloc", "index-integrity",
			"%s pool: segment tree holds %d of %d servers", pool, ix.segSize, n)
		return
	}
	for i := int32(0); i < ix.segSize; i++ {
		sn := ix.seg[ix.segSize+i]
		want := emptySeg
		if i < n {
			sc, sm, sne := state(i)
			if sne {
				want.coresNE, want.memNE = sc, sm
			} else {
				want.coresE, want.memE = sc, sm
			}
		}
		if sn != want {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: segment leaf %d stale: %+v, want %+v", pool, i, sn, want)
		}
	}
	for i := ix.segSize - 1; i >= 1; i-- {
		if want := combineSeg(&ix.seg[2*i], &ix.seg[2*i+1]); ix.seg[i] != want {
			audit.Failf(chk, "alloc", "index-integrity",
				"%s pool: segment node %d inconsistent with children", pool, i)
		}
	}
}
