package perf

// Regression tests for the SLO memo key's coverage of the simulator
// knobs. sloKey reduces Options to the fields that influence the
// simulated point, and that reduction is rebuilt by hand — so a new
// simulator knob that is threaded into queueing.Config but forgotten in
// the reduced literal silently collides memo entries. These tests pin
// which knobs split the key and which must not.

import (
	"testing"

	"github.com/greensku/gsf/internal/apps"
	"github.com/greensku/gsf/internal/hw"
)

// kernelKnobVariants are the Options mutations that change what the
// queueing simulator computes and therefore must change the memo key.
func kernelKnobVariants() map[string]func(*Options) {
	return map[string]func(*Options){
		"BaselineCores": func(o *Options) { o.BaselineCores = 10 },
		"LoadFraction":  func(o *Options) { o.LoadFraction = 0.8 },
		"Requests":      func(o *Options) { o.Requests += 1000 },
		"Seed":          func(o *Options) { o.Seed++ },
	}
}

// TestSLOKeyDistinguishesKernelKnobs pins that every simulator knob
// produces a distinct memo key, while sweep-shape knobs that cannot
// change the baseline point share one.
func TestSLOKeyDistinguishesKernelKnobs(t *testing.T) {
	a := apps.All()[0]
	base := hw.BaselineGen3()
	def := DefaultOptions()
	k0 := sloKey(a, base, def)

	for name, mut := range kernelKnobVariants() {
		opt := def
		mut(&opt)
		if sloKey(a, base, opt) == k0 {
			t.Errorf("%s: memo key unchanged by a knob that changes the simulation", name)
		}
	}
	for name, mut := range map[string]func(*Options){
		"Workers":        func(o *Options) { o.Workers = 7 },
		"DisableSLOMemo": func(o *Options) { o.DisableSLOMemo = true },
		"CoreSteps":      func(o *Options) { o.CoreSteps = []int{8} },
		"CapacityBand":   func(o *Options) { o.CapacityBand = 2 },
		"SLOSlack":       func(o *Options) { o.SLOSlack = 3 },
	} {
		opt := def
		mut(&opt)
		if sloKey(a, base, opt) != k0 {
			t.Errorf("%s: memo key changed by a green-side sweep knob", name)
		}
	}
}

// TestSLOMemoMissesAcrossKernelModes is the behavioral form: changing
// a simulator knob after a memoized run must miss the cache, not serve
// the other configuration's point.
func TestSLOMemoMissesAcrossKernelModes(t *testing.T) {
	opt := DefaultOptions()
	opt.Requests = 8000
	a := apps.All()[0]
	base := hw.BaselineGen3()

	ResetSLOCache()
	if _, _, err := SLO(a, base, opt); err != nil {
		t.Fatal(err)
	}
	other := opt
	other.Requests = 9000
	if _, _, err := SLO(a, base, other); err != nil {
		t.Fatal(err)
	}
	if h, m := SLOCacheStats(); h != 0 || m != 2 {
		t.Fatalf("a run with more requests reused the memo entry: hits=%d misses=%d, want 0/2", h, m)
	}
}
