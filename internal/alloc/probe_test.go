package alloc

import (
	"context"
	"fmt"
	"testing"

	"github.com/greensku/gsf/internal/trace"
)

// TestProbeRecordMatchesCappedReplays checks every answer an opening
// record gives against a full replay of the capped cluster: baseline
// caps below the record's high-water mark, and green caps at baseline
// sizes from that mark (where a green fallback finds no baseline
// virgin) up to the replay's own.
func TestProbeRecordMatchesCappedReplays(t *testing.T) {
	ctx := context.Background()
	scaled := func(vm trace.VM) Decision {
		if vm.ID%3 != 0 {
			return Decision{Adopt: true, Scale: 1.25}
		}
		return Decision{}
	}
	// Answer counts under the production prefer-non-empty rule, where
	// most openings are forced.
	known, asked := 0, 0
	for seed := uint64(1); seed <= 6; seed++ {
		p := trace.DefaultParams("probe", seed)
		p.HorizonHours = 48
		p.ArrivalsPerHour = 6 + float64(seed)
		tr, err := trace.Generate(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, pol := range []Policy{BestFit, FirstFit, WorstFit} {
			for _, pne := range []bool{true, false} {
				for di, decide := range []Decider{AdoptAll, scaled} {
					cfg := Config{
						Base:   ServerClass{Name: "base", Cores: 80, Memory: 768, LocalMemory: 768},
						NBase:  250,
						Green:  ServerClass{Name: "green", Cores: 128, Memory: 1024, LocalMemory: 768, Green: true},
						NGreen: 250,
						Policy: pol, PreferNonEmpty: pne,
					}
					name := fmt.Sprintf("seed %d %v preferNonEmpty=%v decider %d", seed, pol, pne, di)
					top, err := ProbeContext(ctx, tr, cfg, decide)
					if err != nil || !top.Hosts {
						t.Fatalf("%s: uncapped replay hosts=%v err=%v", name, top.Hosts, err)
					}
					replay := func(nBase, nGreen int) bool {
						c := cfg
						c.NBase, c.NGreen = nBase, nGreen
						if nBase+nGreen == 0 {
							return len(tr.VMs) == 0
						}
						res, err := SimulateContext(ctx, tr, c, decide)
						if err != nil {
							t.Fatal(err)
						}
						return res.Rejected == 0
					}
					check := func(what string, hosts, ok bool, nBase, nGreen int) {
						if pne {
							asked++
						}
						if !ok {
							return
						}
						if pne {
							known++
						}
						if real := replay(nBase, nGreen); real != hosts {
							t.Fatalf("%s: %s record says hosts=%v at (%d, %d), replay says %v",
								name, what, hosts, nBase, nGreen, real)
						}
					}
					kb := len(top.BaseOpened)
					for n := 0; n <= kb; n++ {
						hosts, ok := top.BaseHosts(n)
						check("base", hosts, ok, n, cfg.NGreen)
					}
					for _, nBase := range []int{kb, kb + 1, cfg.NBase} {
						for n := 0; n <= len(top.GreenOpened); n++ {
							hosts, ok := top.GreenHosts(nBase, n)
							check("green", hosts, ok, nBase, n)
						}
					}
					if kb > 0 {
						if _, ok := top.GreenHosts(kb-1, 0); ok {
							t.Fatalf("%s: green answer given for a baseline pool below the record's high-water mark", name)
						}
					}
				}
			}
		}
	}
	if known*4 < asked {
		t.Fatalf("the record answered only %d of %d prefer-non-empty probes", known, asked)
	}
}

func TestProbeUnhostedHasNoAnswers(t *testing.T) {
	tr := trace.Trace{Name: "wide", Horizon: 10, VMs: []trace.VM{
		{ID: 0, Arrive: 1, Depart: 9, Cores: 8, Memory: 16, Gen: 3, MaxMemFrac: 0.5},
		{ID: 1, Arrive: 2, Depart: 9, Cores: 8, Memory: 16, Gen: 3, MaxMemFrac: 0.5},
	}}
	cfg := Config{Base: ServerClass{Name: "base", Cores: 8, Memory: 16}, NBase: 1, PreferNonEmpty: true}
	p, err := ProbeContext(context.Background(), tr, cfg, AdoptNone)
	if err != nil {
		t.Fatal(err)
	}
	if p.Hosts {
		t.Fatal("one 8-core server hosts two concurrent 8-core VMs")
	}
	if _, ok := p.BaseHosts(5); ok {
		t.Fatal("a rejecting replay's record answered a probe")
	}
}
