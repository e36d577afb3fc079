package perf

// Determinism and memoization tests for the sweep machinery: the
// parallel TableIII must be indistinguishable from the serial one, and
// the SLO memo must change cost, never answers.

import (
	"context"
	"reflect"
	"testing"

	"github.com/greensku/gsf/internal/apps"
	"github.com/greensku/gsf/internal/hw"
)

func TestTableIIIParallelMatchesSerial(t *testing.T) {
	green := hw.GreenSKUFull()

	serial := DefaultOptions()
	serial.Workers = 1
	serial.Requests = 8000
	ResetSLOCache()
	want, err := TableIII(green, serial)
	if err != nil {
		t.Fatal(err)
	}

	par := serial
	par.Workers = 8
	ResetSLOCache()
	got, err := TableIII(green, par)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("parallel TableIII differs from serial:\nserial:   %v\nparallel: %v", want, got)
	}
}

func TestSLOMemoHitsOnRepeat(t *testing.T) {
	opt := DefaultOptions()
	opt.Requests = 8000
	a := apps.All()[0]
	base := hw.BaselineGen3()

	ResetSLOCache()
	p1, l1, err := SLO(a, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	h0, m0 := SLOCacheStats()
	if h0 != 0 || m0 != 1 {
		t.Fatalf("after first SLO call: hits=%d misses=%d, want 0/1", h0, m0)
	}
	p2, l2, err := SLO(a, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	if h1, m1 := SLOCacheStats(); h1 != 1 || m1 != 1 {
		t.Fatalf("after repeat SLO call: hits=%d misses=%d, want 1/1", h1, m1)
	}
	if p1 != p2 || l1 != l2 {
		t.Fatalf("memoized SLO point differs: (%v,%v) vs (%v,%v)", p1, l1, p2, l2)
	}
}

func TestSLOMemoDisabledMatchesEnabled(t *testing.T) {
	opt := DefaultOptions()
	opt.Requests = 8000
	a := apps.All()[0]
	base := hw.BaselineGen2()

	ResetSLOCache()
	p1, l1, err := SLO(a, base, opt)
	if err != nil {
		t.Fatal(err)
	}
	raw := opt
	raw.DisableSLOMemo = true
	p2, l2, err := SLO(a, base, raw)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 || l1 != l2 {
		t.Fatalf("memoized (%v,%v) vs unmemoized (%v,%v) SLO differ", p1, l1, p2, l2)
	}
	if _, m := SLOCacheStats(); m != 1 {
		t.Fatalf("DisableSLOMemo run touched the cache: misses=%d, want 1", m)
	}
}

func TestTableIIICancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	ResetSLOCache()
	if _, err := TableIIIContext(ctx, hw.GreenSKUFull(), DefaultOptions()); err == nil {
		t.Fatal("TableIIIContext ignored a cancelled context")
	}
}

func BenchmarkTableIII(b *testing.B) {
	opt := DefaultOptions()
	green := hw.GreenSKUFull()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ResetSLOCache()
		if _, err := TableIII(green, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableIIIUnmemoized(b *testing.B) {
	opt := DefaultOptions()
	opt.DisableSLOMemo = true
	opt.Workers = 1
	green := hw.GreenSKUFull()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := TableIII(green, opt); err != nil {
			b.Fatal(err)
		}
	}
}
