package alloc

// Table tests for the policies' tie-breaking, run against both the
// fleet's linear scan and its placement index. WorstFit historically broke
// ties arbitrarily (first server scanned with the max free cores);
// it now mirrors BestFit's two-level break symmetrically: most free
// cores, then most free memory, then first index.

import "testing"

// srvState is one materialized server's free capacity and occupancy.
type srvState struct {
	cores, mem float64
	vms        int32
}

// fleetOf builds a fleet under pol whose servers are all materialized
// in the given states, attached to the index and marked in the
// whole-node bitset.
func fleetOf(class ServerClass, pol Policy, states []srvState) fleet {
	f := newFleet(class, len(states), pol)
	for _, st := range states {
		f.coresFree = append(f.coresFree, st.cores)
		f.memFree = append(f.memFree, st.mem)
		f.vms = append(f.vms, st.vms)
		f.touched = append(f.touched, 0)
		if f.frontier&63 == 0 {
			f.whole = append(f.whole, 0)
		}
		f.markWhole(f.frontier)
		f.ix.grow(f.frontier + 1)
		f.ix.attachID(f.frontier, st.cores, st.mem, st.vms > 0)
		f.frontier++
	}
	return f
}

func TestPolicyTieBreaking(t *testing.T) {
	cases := []struct {
		name   string
		pol    Policy
		prefer bool
		srvs   []srvState
		c, m   float64
		want   int32 // expected server index; -1 for rejection
	}{
		{
			name: "bestfit/fewest-cores-wins",
			pol:  BestFit,
			srvs: []srvState{{8, 60, 1}, {4, 60, 1}, {6, 60, 1}},
			c:    2, m: 10, want: 1,
		},
		{
			name: "bestfit/cores-tie-breaks-on-less-memory",
			pol:  BestFit,
			srvs: []srvState{{4, 50, 1}, {4, 30, 1}, {4, 40, 1}},
			c:    2, m: 10, want: 1,
		},
		{
			name: "bestfit/full-tie-takes-first-index",
			pol:  BestFit,
			srvs: []srvState{{8, 60, 1}, {4, 30, 1}, {4, 30, 1}},
			c:    2, m: 10, want: 1,
		},
		{
			name: "worstfit/most-cores-wins",
			pol:  WorstFit,
			srvs: []srvState{{4, 60, 1}, {8, 60, 1}, {6, 60, 1}},
			c:    2, m: 10, want: 1,
		},
		{
			name: "worstfit/cores-tie-breaks-on-more-memory",
			pol:  WorstFit,
			srvs: []srvState{{8, 30, 1}, {8, 50, 1}, {8, 40, 1}},
			c:    2, m: 10, want: 1,
		},
		{
			name: "worstfit/full-tie-takes-first-index",
			pol:  WorstFit,
			srvs: []srvState{{4, 30, 1}, {8, 50, 1}, {8, 50, 1}},
			c:    2, m: 10, want: 1,
		},
		{
			name: "worstfit/memory-tie-break-respects-feasibility",
			pol:  WorstFit,
			// Server 1 has the most memory but too few cores; the
			// cores maximum among feasible servers is 6.
			srvs: []srvState{{6, 20, 1}, {2, 60, 1}, {6, 40, 1}},
			c:    3, m: 15, want: 2,
		},
		{
			name: "firstfit/first-feasible-index-wins",
			pol:  FirstFit,
			srvs: []srvState{{1, 60, 1}, {8, 5, 1}, {6, 40, 1}, {8, 60, 1}},
			c:    2, m: 10, want: 2,
		},
		{
			name:   "prefer-non-empty-dominates-policy-order",
			pol:    BestFit,
			prefer: true,
			// The empty server 0 is the strictly better best-fit, but
			// the occupied server 1 must win under PreferNonEmpty.
			srvs: []srvState{{3, 20, 0}, {8, 64, 1}},
			c:    2, m: 10, want: 1,
		},
		{
			name:   "prefer-non-empty-worstfit-memory-tie",
			pol:    WorstFit,
			prefer: true,
			srvs:   []srvState{{8, 64, 0}, {6, 20, 2}, {6, 50, 1}},
			c:      2, m: 10, want: 2,
		},
		{
			name: "no-feasible-server-rejects",
			pol:  WorstFit,
			srvs: []srvState{{2, 60, 1}, {8, 5, 1}},
			c:    4, m: 15, want: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			class := ServerClass{Name: "tie", Cores: 8, Memory: 64, LocalMemory: 64}
			f := fleetOf(class, tc.pol, tc.srvs)
			if got := f.scanPick(tc.c, tc.m, tc.prefer); got != tc.want {
				t.Errorf("linear scan chose server %d, want %d", got, tc.want)
			}
			if got := f.pick(tc.c, tc.m, tc.prefer); got != tc.want {
				t.Errorf("index chose server %d, want %d", got, tc.want)
			}
		})
	}
}
