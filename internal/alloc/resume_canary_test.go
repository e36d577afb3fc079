package alloc_test

import (
	"context"
	"testing"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/cluster"
	"github.com/greensku/gsf/internal/trace"
)

// TestProbeResumeCanary corrupts the checkpoint the green search
// resumes at the sized cluster, so the resumed probe claims that a
// cluster which hosts the trace rejects; the audited search must
// report it as cluster/probe-resume and still size the cluster from
// its replays from the first event.
func TestProbeResumeCanary(t *testing.T) {
	ctx := context.Background()
	const greenCap = 120
	for seed := uint64(1); seed <= 20; seed++ {
		p := trace.DefaultParams("resume-canary", seed)
		p.HorizonHours, p.ArrivalsPerHour = 96, 10
		tr, err := trace.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		clean := audit.NewRecorder()
		s := &cluster.Sizer{Base: alloc.BaseClass(), Green: alloc.GreenClass(), Policy: alloc.BestFit,
			Decide: alloc.AdoptAll, MaxServers: greenCap, Audit: clean}
		m, err := s.MixedSizeContext(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		if err := clean.Err(); err != nil {
			t.Fatalf("seed %d: uncorrupted audited sizing: %v\n%v", seed, err, clean.Violations())
		}
		// The green search resumes at NGreen only if its upper-bound
		// replay left that opening unanswered and checkpointed.
		cfg := alloc.Config{Base: s.Base, NBase: m.BaselineOnly, Green: s.Green, NGreen: greenCap,
			Policy: s.Policy, PreferNonEmpty: true, Audit: s.Audit}
		top, err := alloc.ProbeContext(ctx, tr, cfg, s.Decide)
		if err != nil {
			t.Fatal(err)
		}
		if m.NBase < len(top.BaseOpened) {
			cfg.NBase = m.NBase
			if top, err = alloc.ProbeContext(ctx, tr, cfg, s.Decide); err != nil {
				t.Fatal(err)
			}
		}
		if _, known := top.GreenHosts(m.NBase, m.NGreen); known {
			continue
		}
		if _, ok, err := top.ResumeGreen(ctx, tr, m.NBase, m.NGreen); err != nil || !ok {
			continue
		}
		remove := alloc.CorruptResumes(func(nBase, nGreen int) bool { return nBase == m.NBase && nGreen == m.NGreen })
		defer remove()
		rec := audit.NewRecorder()
		s.Audit = rec
		got, err := s.MixedSizeContext(ctx, tr)
		if err != nil {
			t.Fatal(err)
		}
		if rec.Counts()["cluster/probe-resume"] == 0 {
			t.Fatalf("seed %d: a corrupted checkpoint went unreported: %v", seed, rec.Counts())
		}
		if got != m {
			t.Fatalf("seed %d: audited sizing followed the corrupted resume: got %+v, want %+v", seed, got, m)
		}
		return
	}
	t.Fatal("no seed sizes a cluster whose green search resumes at the sized cluster; widen the search")
}
