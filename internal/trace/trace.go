// Package trace models VM workload traces: arrival/departure records
// with resource requests, the input GSF's VM allocation and cluster
// sizing components consume.
//
// Azure's production traces are not publishable, so this package also
// provides a synthetic generator calibrated to the marginals the paper
// reports: a small-VM-heavy size mix, heavy-tailed lifetimes, a small share of
// long-lived full-node VMs, per-VM maximum memory utilisation averaging about half
// of the allocation ("untouched memory is almost half of a VM's memory
// capacity"), pre-assigned server generations, and application
// assignment by class core-hour share (§V).
package trace

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/greensku/gsf/internal/apps"
	"github.com/greensku/gsf/internal/stats"
	"github.com/greensku/gsf/internal/units"
)

// VM is one virtual machine deployment in a trace.
type VM struct {
	ID     int
	Arrive float64 // hours since trace start
	Depart float64 // hours since trace start; > Arrive
	Cores  int
	Memory units.GB
	// Gen is the server generation (1-3) the VM was deployed on in
	// production, pre-defined in the trace (§V).
	Gen int
	// FullNode marks long-living VMs that require a dedicated server;
	// GSF assigns these strictly to baseline SKUs.
	FullNode bool
	// App is the representative benchmark application assigned to the
	// VM (production applications are opaque; §V samples assignments
	// from class core-hour shares).
	App string
	// MaxMemFrac is the maximum fraction of allocated memory the VM
	// touches over its lifetime, as reported in the paper's traces.
	MaxMemFrac float64
	// Deferrable marks delay-tolerant work (batch, dev/test, ML
	// training): the carbon-aware scheduler may delay its start, or
	// suspend and resume it, to chase low-carbon windows.
	Deferrable bool
	// SlackHours is the deferrable VM's scheduling deadline: its
	// completion may slip by at most this many hours past the traced
	// departure. Must be zero for non-deferrable VMs.
	SlackHours float64
}

// Lifetime returns the VM's duration in hours.
func (v VM) Lifetime() float64 { return v.Depart - v.Arrive }

// Trace is a time-ordered VM workload.
type Trace struct {
	Name    string
	VMs     []VM // sorted by arrival time
	Horizon float64
}

// Validate checks trace invariants.
func (t Trace) Validate() error {
	prev := math.Inf(-1)
	for i, v := range t.VMs {
		if err := CheckVM(t.Name, i, prev, v); err != nil {
			return err
		}
		prev = v.Arrive
	}
	return nil
}

// CheckVM validates one VM the way Trace.Validate does, so streaming
// consumers (the binary decoder, the columnar simulator) can harden
// each event at the moment it is produced instead of requiring a
// materialized trace. prevArrive is the previous event's arrival time
// (math.Inf(-1) for the first event); i indexes the event within its
// stream for the error message.
func CheckVM(name string, i int, prevArrive float64, v VM) error {
	// Reject non-finite fields first: NaN slips through every
	// ordering comparison below (all NaN comparisons are false),
	// and infinite times would stall the allocation simulator's
	// snapshot clock.
	if !finite(v.Arrive) || !finite(v.Depart) || !finite(float64(v.Memory)) || !finite(v.MaxMemFrac) || !finite(v.SlackHours) {
		return fmt.Errorf("trace %s: VM %d has a non-finite field", name, i)
	}
	if v.Depart <= v.Arrive {
		return fmt.Errorf("trace %s: VM %d departs before arriving", name, i)
	}
	if v.Cores <= 0 || v.Memory <= 0 {
		return fmt.Errorf("trace %s: VM %d has empty resource request", name, i)
	}
	if v.Arrive < prevArrive {
		return fmt.Errorf("trace %s: VMs not sorted by arrival at %d", name, i)
	}
	if v.MaxMemFrac < 0 || v.MaxMemFrac > 1 {
		return fmt.Errorf("trace %s: VM %d MaxMemFrac %v out of [0,1]", name, i, v.MaxMemFrac)
	}
	if v.Gen < 1 || v.Gen > 3 {
		return fmt.Errorf("trace %s: VM %d has generation %d", name, i, v.Gen)
	}
	if v.SlackHours < 0 {
		return fmt.Errorf("trace %s: VM %d has negative slack %v", name, i, v.SlackHours)
	}
	if !v.Deferrable && v.SlackHours != 0 {
		return fmt.Errorf("trace %s: VM %d is not deferrable but has slack %v", name, i, v.SlackHours)
	}
	return nil
}

// Source streams a trace's VMs in arrival order without requiring the
// whole event set in memory — the contract the columnar allocation
// simulator replays 100M-event traces through. Implementations must
// yield validated events (CheckVM) in non-decreasing arrival order;
// the binary decoder enforces this at decode time.
type Source interface {
	// Next returns the next VM, or ok=false when the stream is
	// exhausted or failed (distinguish with Err).
	Next() (vm VM, ok bool)
	// Err reports the first stream error, or nil after clean EOF.
	Err() error
	// Name labels the trace in error messages and results.
	Name() string
	// Horizon is the trace horizon in hours (the snapshot clock's end).
	Horizon() float64
}

// SliceSource adapts a materialized Trace to the Source interface.
type SliceSource struct {
	t Trace
	i int
}

// NewSliceSource returns a Source over an already-validated Trace.
func NewSliceSource(t Trace) *SliceSource { return &SliceSource{t: t} }

func (s *SliceSource) Next() (VM, bool) {
	if s.i >= len(s.t.VMs) {
		return VM{}, false
	}
	vm := s.t.VMs[s.i]
	s.i++
	return vm, true
}

func (s *SliceSource) Err() error       { return nil }
func (s *SliceSource) Name() string     { return s.t.Name }
func (s *SliceSource) Horizon() float64 { return s.t.Horizon }

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// GenParams parameterises the synthetic generator.
type GenParams struct {
	Name string
	Seed uint64
	// ArrivalsPerHour is the mean VM arrival rate.
	ArrivalsPerHour float64
	// HorizonHours is the trace length.
	HorizonHours float64
	// MeanLifetimeHours sets the lifetime distribution's scale
	// (bounded Pareto, alpha ~1.2: most VMs are short, some span the
	// trace).
	MeanLifetimeHours float64
	// CoreSizes and CoreWeights define the VM size mix.
	CoreSizes   []int
	CoreWeights []float64
	// MemPerCoreGB is the mean memory:core ratio of VM requests.
	MemPerCoreGB float64
	// FullNodeFrac is the fraction of arrivals that are full-node VMs.
	FullNodeFrac float64
	// GenWeights is the distribution over server generations 1..3.
	GenWeights [3]float64
	// MeanMaxMemFrac is the mean of the per-VM maximum memory
	// utilisation fraction.
	MeanMaxMemFrac float64
	// DeferrableFrac is the fraction of non-full-node arrivals marked
	// delay-tolerant. Zero (the default) leaves the generator's RNG
	// draw sequence untouched, so every pre-existing seeded trace is
	// byte-identical with the annotation machinery in place.
	DeferrableFrac float64
	// MeanSlackHours is the mean scheduling slack (exponential) given
	// to deferrable VMs. Must be positive when DeferrableFrac > 0.
	MeanSlackHours float64
}

// DefaultParams returns a production-like parameterisation.
func DefaultParams(name string, seed uint64) GenParams {
	return GenParams{
		Name:              name,
		Seed:              seed,
		ArrivalsPerHour:   24,
		HorizonHours:      24 * 14,
		MeanLifetimeHours: 30,
		CoreSizes:         []int{2, 4, 8, 16, 32},
		CoreWeights:       []float64{0.38, 0.30, 0.20, 0.09, 0.03},
		MemPerCoreGB:      6,
		FullNodeFrac:      0.004,
		GenWeights:        [3]float64{0.25, 0.35, 0.40},
		MeanMaxMemFrac:    0.52,
	}
}

// Generate produces a synthetic trace.
func Generate(p GenParams) (Trace, error) {
	if p.ArrivalsPerHour <= 0 || p.HorizonHours <= 0 || p.MeanLifetimeHours <= 0 {
		return Trace{}, fmt.Errorf("trace: rates and horizon must be positive")
	}
	if len(p.CoreSizes) == 0 || len(p.CoreSizes) != len(p.CoreWeights) {
		return Trace{}, fmt.Errorf("trace: core size/weight mismatch")
	}
	if p.DeferrableFrac < 0 || p.DeferrableFrac > 1 {
		return Trace{}, fmt.Errorf("trace: deferrable fraction %v out of [0,1]", p.DeferrableFrac)
	}
	if p.DeferrableFrac > 0 && p.MeanSlackHours <= 0 {
		return Trace{}, fmt.Errorf("trace: deferrable VMs need a positive mean slack")
	}
	r := stats.NewRNG(p.Seed)
	appsByClass := apps.ByClass()
	classes := []apps.Class{apps.BigData, apps.WebApp, apps.RTC, apps.MLInference, apps.WebProxy, apps.DevOps}
	classWeights := make([]float64, len(classes))
	for i, c := range classes {
		classWeights[i] = apps.ClassShares[c]
	}

	var tr Trace
	tr.Name = p.Name
	tr.Horizon = p.HorizonHours
	// Poisson arrivals over the horizon average ArrivalsPerHour *
	// HorizonHours VMs; pre-sizing to that expectation (plus a small
	// margin for upward fluctuation) keeps the generator from growing
	// the slice a dozen times per trace.
	expected := p.ArrivalsPerHour * p.HorizonHours
	tr.VMs = make([]VM, 0, int(expected+4*math.Sqrt(expected))+1)
	now := 0.0
	id := 0
	// Pareto shape 1.2 over [0.5h, horizon]; rescale to the requested
	// mean lifetime.
	const alpha = 1.2
	rawMean := boundedParetoMean(alpha, 0.5, p.HorizonHours)
	scale := p.MeanLifetimeHours / rawMean
	for {
		now += r.Exp(1 / p.ArrivalsPerHour)
		if now >= p.HorizonHours {
			break
		}
		life := r.BoundedPareto(alpha, 0.5, p.HorizonHours) * scale
		if life < 0.25 {
			life = 0.25
		}
		cores := p.CoreSizes[r.Pick(p.CoreWeights)]
		memPerCore := p.MemPerCoreGB * (0.75 + 0.5*r.Float64())
		class := classes[r.Pick(classWeights)]
		pool := appsByClass[class]
		app := pool[r.Intn(len(pool))]
		full := r.Float64() < p.FullNodeFrac
		if full {
			// Full-node VMs request a whole baseline server's
			// resources and live several times longer than average.
			cores = 80
			memPerCore = 9.6
			life *= 3
			if life > p.HorizonHours {
				life = p.HorizonHours
			}
		}
		frac := p.MeanMaxMemFrac + r.Normal(0, 0.18)
		frac = math.Max(0.05, math.Min(1, frac))
		// Deferrable annotation draws are gated behind the parameter so
		// a zero DeferrableFrac consumes no RNG state: every trace
		// generated before the annotation existed stays byte-identical.
		deferrable := false
		slack := 0.0
		if p.DeferrableFrac > 0 {
			deferrable = r.Float64() < p.DeferrableFrac && !full
			if deferrable {
				slack = r.Exp(p.MeanSlackHours)
			}
		}
		tr.VMs = append(tr.VMs, VM{
			ID:         id,
			Arrive:     now,
			Depart:     now + life,
			Cores:      cores,
			Memory:     units.GB(float64(cores) * memPerCore),
			Gen:        1 + r.Pick([]float64{p.GenWeights[0], p.GenWeights[1], p.GenWeights[2]}),
			FullNode:   full,
			App:        app.Name,
			MaxMemFrac: frac,
			Deferrable: deferrable,
			SlackHours: slack,
		})
		id++
	}
	sort.Slice(tr.VMs, func(i, j int) bool { return tr.VMs[i].Arrive < tr.VMs[j].Arrive })
	return tr, tr.Validate()
}

func boundedParetoMean(alpha, lo, hi float64) float64 {
	la := math.Pow(lo, alpha)
	return la / (1 - math.Pow(lo/hi, alpha)) * alpha / (alpha - 1) *
		(1/math.Pow(lo, alpha-1) - 1/math.Pow(hi, alpha-1))
}

// ProductionSuite generates the 35-trace suite standing in for the
// paper's 35 production VM traces (§VI). Each trace varies load, VM
// size mix, lifetime, and memory-touch behaviour.
func ProductionSuite() ([]Trace, error) {
	const n = 35
	out := make([]Trace, 0, n)
	for i := 0; i < n; i++ {
		p := DefaultParams(fmt.Sprintf("prod-%02d", i), 1000+uint64(i)*7919)
		// Vary the operating point across the suite.
		p.ArrivalsPerHour = 16 + float64(i%7)*4
		p.MeanLifetimeHours = 20 + float64(i%5)*8
		p.MeanMaxMemFrac = 0.42 + 0.02*float64(i%9)
		p.FullNodeFrac = 0.002 + 0.002*float64(i%3)
		if i%4 == 0 { // some clusters skew to larger VMs
			p.CoreWeights = []float64{0.25, 0.28, 0.25, 0.15, 0.07}
		}
		tr, err := Generate(p)
		if err != nil {
			return nil, err
		}
		out = append(out, tr)
	}
	return out, nil
}

// Stats summarises a trace.
type Stats struct {
	VMs           int
	FullNodeVMs   int
	DeferrableVMs int
	MeanCores     float64
	MeanMemoryGB  float64
	MeanLifetime  float64
	MeanMaxMem    float64
	PeakCoreDmd   int // peak concurrently requested cores
	PeakMemoryDmd units.GB
}

// demandEvent is one arrival (+cores/+mem) or departure (-cores/-mem)
// edge of the concurrent-demand profile Summarise sweeps.
type demandEvent struct {
	at    float64
	cores int
	mem   float64
}

// cmpDemand orders the sweep by time, departures (negative cores)
// before arrivals at the same instant. Equal events may land in either
// order, and the memory running sum is order-sensitive in its last
// bits; TestSummariseMatchesSortSlice pins the order the sort yields.
func cmpDemand(a, b demandEvent) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	return cmp.Compare(a.cores, b.cores)
}

// peakSweep tracks running and peak demand over a sweep of edges.
type peakSweep struct {
	cores, peakCores int
	mem, peakMem     float64
}

func (p *peakSweep) add(e demandEvent) {
	p.cores += e.cores
	p.mem += e.mem
	if p.cores > p.peakCores {
		p.peakCores = p.cores
	}
	if p.mem > p.peakMem {
		p.peakMem = p.mem
	}
}

// sweepMerged sweeps the merge of sorted arrivals and departures. It
// stops and reports false when the merge is not strictly ordered:
// two edges tie under cmpDemand with different memory, or a time is
// NaN. Sorting all edges together then fixes their order.
func (p *peakSweep) sweepMerged(arrivals, departures []demandEvent) bool {
	var prev demandEvent
	for a, d := 0, 0; a < len(arrivals) || d < len(departures); {
		var e demandEvent
		if a == len(arrivals) || (d < len(departures) && cmpDemand(departures[d], arrivals[a]) <= 0) {
			e = departures[d]
			d++
		} else {
			e = arrivals[a]
			a++
		}
		if a+d > 1 {
			if c := cmpDemand(prev, e); c > 0 || c == 0 && prev.mem != e.mem {
				return false
			}
		}
		p.add(e)
		prev = e
	}
	return true
}

// eventPool recycles Summarise's event buffer: the 35-trace suite
// summarises tens of thousands of VMs per call, and the 2-events-per-VM
// scratch slice is pure garbage between calls.
var eventPool sync.Pool

// Summarise computes trace statistics, including peak concurrent
// demand (the lower bound for any cluster that hosts the trace).
//
// The peak sweep visits every arrival and departure edge in cmpDemand
// order. Arrivals and departures are sorted apart and merged: trace
// order already sorts the arrivals, so their sort is near-linear, and
// only the departures need a full sort. The merge is the one order
// cmpDemand admits unless two edges tie with different memory; only
// then does the order within the tie move the memory peak's last bits,
// and the edges are sorted together as the reference sweep sorts them
// (TestSummariseMatchesSortSlice).
func Summarise(t Trace) Stats {
	var s Stats
	n := len(t.VMs)
	s.VMs = n
	var events []demandEvent
	if p, _ := eventPool.Get().(*[]demandEvent); p != nil && cap(*p) >= 2*n {
		events = (*p)[:2*n]
	} else {
		events = make([]demandEvent, 2*n)
	}
	defer func() {
		events = events[:0]
		eventPool.Put(&events)
	}()
	arrivals, departures := events[:n], events[n:]
	for i, v := range t.VMs {
		s.MeanCores += float64(v.Cores)
		s.MeanMemoryGB += float64(v.Memory)
		s.MeanLifetime += v.Lifetime()
		s.MeanMaxMem += v.MaxMemFrac
		if v.FullNode {
			s.FullNodeVMs++
		}
		if v.Deferrable {
			s.DeferrableVMs++
		}
		arrivals[i] = demandEvent{v.Arrive, v.Cores, float64(v.Memory)}
		departures[i] = demandEvent{v.Depart, -v.Cores, -float64(v.Memory)}
	}
	if s.VMs > 0 {
		n := float64(s.VMs)
		s.MeanCores /= n
		s.MeanMemoryGB /= n
		s.MeanLifetime /= n
		s.MeanMaxMem /= n
	}
	slices.SortFunc(arrivals, cmpDemand)
	slices.SortFunc(departures, cmpDemand)
	var pk peakSweep
	if !pk.sweepMerged(arrivals, departures) {
		for i, v := range t.VMs {
			events[2*i] = demandEvent{v.Arrive, v.Cores, float64(v.Memory)}
			events[2*i+1] = demandEvent{v.Depart, -v.Cores, -float64(v.Memory)}
		}
		slices.SortFunc(events, cmpDemand)
		pk = peakSweep{}
		for _, e := range events {
			pk.add(e)
		}
	}
	s.PeakCoreDmd, s.PeakMemoryDmd = pk.peakCores, units.GB(pk.peakMem)
	return s
}
