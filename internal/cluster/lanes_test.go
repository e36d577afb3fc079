package cluster

// MixedSizeContext runs its searches on two goroutines (lanes). These
// tests pin the lanes' lifecycle — no lane outlives the call, errors
// and panics surface on the caller — and that a join whose premise
// fails falls back to the serial searches with the same answer.

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/greensku/gsf/internal/alloc"
	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/engine"
	"github.com/greensku/gsf/internal/trace"
)

// weekTrace is long enough (~4,000 VMs) that every full replay polls
// its context several times.
func weekTrace(t *testing.T) trace.Trace {
	t.Helper()
	p := trace.DefaultParams("cluster-lanes", 11)
	p.HorizonHours = 24 * 7
	tr, err := trace.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// settleGoroutines fails the test unless the goroutine count falls back
// to want within a second.
func settleGoroutines(t *testing.T, want int) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for runtime.NumGoroutine() > want {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after MixedSizeContext returned, want %d: a lane outlived the call",
				runtime.NumGoroutine(), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// setLane installs testLane until the test ends.
func setLane(t *testing.T, f func(context.Context)) {
	testLane = f
	t.Cleanup(func() { testLane = nil })
}

func TestMixedSizeCancelledLeavesNoLane(t *testing.T) {
	withoutAudit(t)
	tr := weekTrace(t)
	before := runtime.NumGoroutine()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	s := &Sizer{Base: baseClass(), Green: greenClass(), Policy: alloc.BestFit, Decide: alloc.AdoptAll}
	if _, err := s.MixedSizeContext(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled context: err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, before)

	// Cancel mid-flight: the 100th decision falls inside both lanes'
	// first replays, which run past event 1024 and poll there.
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var calls atomic.Int64
	s.Decide = func(vm trace.VM) alloc.Decision {
		if calls.Add(1) == 100 {
			cancel()
		}
		return alloc.AdoptAll(vm)
	}
	if _, err := s.MixedSizeContext(ctx, tr); !errors.Is(err, context.Canceled) {
		t.Fatalf("context cancelled mid-search: err = %v, want context.Canceled", err)
	}
	settleGoroutines(t, before)
}

// TestMixedSizeUnhostableCancelsLane holds lane 2 until its context is
// cancelled: the baseline-only search's error must come back without
// waiting for the lane, and the lane must be cancelled.
func TestMixedSizeUnhostableCancelsLane(t *testing.T) {
	withoutAudit(t)
	tr := testTrace(t, 7)
	before := runtime.NumGoroutine()
	var cancelled atomic.Bool
	setLane(t, func(ctx context.Context) {
		<-ctx.Done()
		cancelled.Store(true)
	})
	s := &Sizer{Base: baseClass(), Green: greenClass(), Policy: alloc.BestFit, Decide: alloc.AdoptAll, MaxServers: 1}
	_, err := s.MixedSize(tr)
	want := "cluster: workload does not fit within 1 servers"
	if err == nil || err.Error() != want {
		t.Fatalf("unhostable trace: err = %v, want %q", err, want)
	}
	if !cancelled.Load() {
		t.Fatal("MixedSize returned before lane 2 was cancelled")
	}
	settleGoroutines(t, before)
}

// TestMixedSizeLanePanicReachesCaller panics lane 2, then a Decider
// that panics in both lanes: the panic must reach MixedSizeContext's
// caller, so engine.Map reports it as that job's error and the other
// jobs still size.
func TestMixedSizeLanePanicReachesCaller(t *testing.T) {
	withoutAudit(t)
	tr := testTrace(t, 8)
	before := runtime.NumGoroutine()
	s := &Sizer{Base: baseClass(), Green: greenClass(), Policy: alloc.BestFit, Decide: alloc.AdoptAll}

	setLane(t, func(context.Context) { panic("lane 2 boom") })
	func() {
		defer func() {
			if r := recover(); r != "lane 2 boom" {
				t.Fatalf("recovered %v on the caller, want lane 2's panic", r)
			}
		}()
		s.MixedSize(tr)
		t.Fatal("MixedSize returned after lane 2 panicked")
	}()
	settleGoroutines(t, before)
	testLane = nil

	bad := &Sizer{Base: baseClass(), Green: greenClass(), Policy: alloc.BestFit, Decide: func(vm trace.VM) alloc.Decision {
		if vm.ID == 5 {
			panic("decider boom")
		}
		return alloc.AdoptAll(vm)
	}}
	sizers := []*Sizer{s, bad, s}
	res := engine.Map(context.Background(), 2, len(sizers), func(ctx context.Context, i int) (Mix, error) {
		return sizers[i].MixedSizeContext(ctx, tr)
	})
	var pe *engine.PanicError
	if !errors.As(res[1].Err, &pe) || pe.Value != "decider boom" {
		t.Fatalf("job 1: err = %v, want the decider's panic", res[1].Err)
	}
	if res[0].Err != nil || res[2].Err != nil || res[0].Value != res[2].Value || res[0].Value.NGreen == 0 {
		t.Fatalf("healthy jobs beside a panicking one: %+v %+v", res[0], res[2])
	}
	settleGoroutines(t, before)
}

// probeLog records the pool sizes of every replay the sizing runs and
// applies tamper to the upper-bound replay U only.
type probeLog struct {
	mu   sync.Mutex
	seen map[[2]int]bool
}

func logProbes(t *testing.T, hi int, tamper func(*alloc.Probe)) *probeLog {
	l := &probeLog{seen: map[[2]int]bool{}}
	testTamper = func(nBase, nGreen int, p *alloc.Probe) {
		l.mu.Lock()
		l.seen[[2]int{nBase, nGreen}] = true
		l.mu.Unlock()
		if nBase == hi && nGreen == hi {
			tamper(p)
		}
	}
	t.Cleanup(func() { testTamper = nil })
	return l
}

func (l *probeLog) ran(nBase, nGreen int) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.seen[[2]int{nBase, nGreen}]
}

// padBase pads a record's baseline openings to n with unforced
// entries, which the search must replay rather than answer, so only
// the join's premise changes.
func padBase(n int) func(*alloc.Probe) {
	return func(p *alloc.Probe) {
		for len(p.BaseOpened) < n {
			p.BaseOpened = append(p.BaseOpened, false)
		}
	}
}

// TestMixedSizePremiseMissMatchesFullReplay forces each way the join
// can miss — U opening more baseline servers than n0, and the NBase
// search settling below U's high-water mark — and requires the serial
// fallback's replay and the full-replay oracle's answer.
func TestMixedSizePremiseMissMatchesFullReplay(t *testing.T) {
	withoutAudit(t)
	ctx := context.Background()
	tr := testTrace(t, 9)
	s := &Sizer{Base: baseClass(), Green: greenClass(), Policy: alloc.BestFit, Decide: halfScaled}
	hi := s.maxServers(tr)
	want, err := fullReplayPacking(ctx, s, tr)
	if err != nil {
		t.Fatal(err)
	}
	u, err := s.probe(ctx, tr, hi, hi)
	if err != nil {
		t.Fatal(err)
	}
	n0, nBase := want.Mix.BaselineOnly, want.Mix.NBase
	if !u.Hosts || len(u.BaseOpened) >= n0 {
		t.Fatalf("trace's upper-bound replay hosts=%v opens %d baseline servers of n0 = %d; pick another",
			u.Hosts, len(u.BaseOpened), n0)
	}
	for _, c := range []struct {
		name   string
		kb     int
		replay int // the baseline size the fallback must replay at
	}{{"kb>n0", n0 + 1, n0}, {"NBase<kb", n0, nBase}} {
		t.Run(c.name, func(t *testing.T) {
			log := logProbes(t, hi, padBase(c.kb))
			got, err := s.ComparePackingContext(ctx, tr)
			if err != nil {
				t.Fatal(err)
			}
			if fmt.Sprint(got) != fmt.Sprint(want) {
				t.Fatalf("after a premise miss:\ngot  %+v\nwant %+v", got, want)
			}
			if !log.ran(c.replay, hi) {
				t.Fatalf("no fallback replay at (%d, %d)", c.replay, hi)
			}
		})
	}
}

// TestUpperBoundSharedCanary tampers with the upper-bound replay U
// alone, so it no longer matches the replay at (n0, greenCap) it stands
// in for: the audited search must report cluster/upper-bound-shared
// and still size from the real replay.
func TestUpperBoundSharedCanary(t *testing.T) {
	ctx := context.Background()
	tr := testTrace(t, 10)
	s := &Sizer{Base: baseClass(), Green: greenClass(), Policy: alloc.WorstFit, Decide: alloc.AdoptAll}
	want, err := fullReplayPacking(ctx, s, tr)
	if err != nil {
		t.Fatal(err)
	}
	logProbes(t, s.maxServers(tr), func(p *alloc.Probe) {
		p.GreenOpened = append(p.GreenOpened, -1)
	})
	rec := audit.NewRecorder()
	s.Audit = rec
	got, err := s.MixedSizeContext(ctx, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got != want.Mix {
		t.Fatalf("audited sizing from a tampered U = %+v, want %+v", got, want.Mix)
	}
	if rec.Counts()["cluster/upper-bound-shared"] == 0 {
		t.Fatalf("a tampered upper-bound replay went unreported: %v", rec.Counts())
	}
}
