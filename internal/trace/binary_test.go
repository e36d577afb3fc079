package trace

import (
	"bytes"
	"encoding/binary"
	"io"
	"math"
	"strings"
	"testing"
)

// binBuilder hand-assembles GSFB byte streams so the decode-hardening
// tests can express exactly one defect per case.
type binBuilder struct{ buf []byte }

func (b *binBuilder) uvarint(v uint64) { b.buf = binary.AppendUvarint(b.buf, v) }
func (b *binBuilder) raw(p ...byte)    { b.buf = append(b.buf, p...) }
func (b *binBuilder) str(s string)     { b.buf = append(b.buf, s...) }
func (b *binBuilder) f64bits(f float64) {
	b.buf = binary.LittleEndian.AppendUint64(b.buf, math.Float64bits(f))
}

func (b *binBuilder) header(name string, horizon float64, count uint64) {
	b.str(binaryMagic)
	b.uvarint(binaryVersion)
	b.uvarint(uint64(len(name)))
	b.str(name)
	b.f64bits(horizon)
	b.uvarint(count)
}

// record appends one record introducing app fresh (index == table len).
func (b *binBuilder) record(idDelta int64, flags byte, arrive, departDelta, cores, mem uint64, appIx uint64, app string, frac uint64, slack ...uint64) {
	b.uvarint(zigzag(idDelta))
	b.raw(flags)
	b.uvarint(arrive)
	b.uvarint(departDelta)
	b.uvarint(cores)
	b.uvarint(mem)
	b.uvarint(appIx)
	if app != "" {
		b.uvarint(uint64(len(app)))
		b.str(app)
	}
	b.uvarint(frac)
	for _, s := range slack {
		b.uvarint(s)
	}
}

func testVM() VM {
	return VM{ID: 0, Arrive: 1, Depart: 2, Cores: 4, Memory: 24, Gen: 2, App: "web", MaxMemFrac: 0.5}
}

func TestBinaryRoundTripGenerated(t *testing.T) {
	p := DefaultParams("bin-roundtrip", 17)
	p.DeferrableFrac = 0.2
	p.MeanSlackHours = 12
	tr, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != tr.Name || got.Horizon != tr.Horizon {
		t.Fatalf("header changed: (%q, %v) -> (%q, %v)", tr.Name, tr.Horizon, got.Name, got.Horizon)
	}
	if len(got.VMs) != len(tr.VMs) {
		t.Fatalf("VM count changed: %d -> %d", len(tr.VMs), len(got.VMs))
	}
	for i := range tr.VMs {
		if tr.VMs[i] != got.VMs[i] {
			t.Fatalf("VM %d changed:\n  %+v\n  %+v", i, tr.VMs[i], got.VMs[i])
		}
	}
	// The binary form must be exact where CSV rounds, and still
	// smaller than the CSV it replaces.
	var csv bytes.Buffer
	if err := WriteCSV(&csv, tr); err != nil {
		t.Fatal(err)
	}
	if buf.Len() >= csv.Len() {
		t.Fatalf("binary (%d bytes) not smaller than CSV (%d bytes)", buf.Len(), csv.Len())
	}
}

func TestBinaryReEncodeByteIdentical(t *testing.T) {
	tr, err := Generate(DefaultParams("bin-canon", 23))
	if err != nil {
		t.Fatal(err)
	}
	tr.VMs = tr.VMs[:min(len(tr.VMs), 500)]
	var first bytes.Buffer
	if err := WriteBinary(&first, Trace{Name: tr.Name, VMs: tr.VMs, Horizon: tr.Horizon}); err != nil {
		t.Fatal(err)
	}
	decoded, err := ReadBinary(bytes.NewReader(first.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var second bytes.Buffer
	if err := WriteBinary(&second, decoded); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first.Bytes(), second.Bytes()) {
		t.Fatal("decode ∘ encode is not the identity on the generator's output")
	}
}

func TestBinaryStreamingReader(t *testing.T) {
	tr, err := Generate(DefaultParams("bin-stream", 31))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	br, err := NewBinaryReader(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if br.Name() != tr.Name || br.Horizon() != tr.Horizon || br.Count() != uint64(len(tr.VMs)) {
		t.Fatalf("header: got (%q, %v, %d)", br.Name(), br.Horizon(), br.Count())
	}
	var n int
	for {
		vm, ok := br.Next()
		if !ok {
			break
		}
		if vm != tr.VMs[n] {
			t.Fatalf("VM %d: got %+v want %+v", n, vm, tr.VMs[n])
		}
		n++
	}
	if err := br.Err(); err != nil {
		t.Fatal(err)
	}
	if n != len(tr.VMs) {
		t.Fatalf("streamed %d of %d VMs", n, len(tr.VMs))
	}
	// Next after exhaustion stays exhausted.
	if _, ok := br.Next(); ok {
		t.Fatal("Next returned a VM after the stream ended")
	}
}

// Interface conformance: both the streaming decoder and the slice
// adapter satisfy the Source contract the simulator consumes.
var (
	_ Source = (*BinaryReader)(nil)
	_ Source = (*SliceSource)(nil)
)

func TestSliceSource(t *testing.T) {
	tr := Trace{Name: "s", Horizon: 10, VMs: []VM{testVM()}}
	src := NewSliceSource(tr)
	if src.Name() != "s" || src.Horizon() != 10 {
		t.Fatalf("header: got (%q, %v)", src.Name(), src.Horizon())
	}
	vm, ok := src.Next()
	if !ok || vm != tr.VMs[0] {
		t.Fatalf("Next: got (%+v, %v)", vm, ok)
	}
	if _, ok := src.Next(); ok {
		t.Fatal("Next past the end returned ok")
	}
	if src.Err() != nil {
		t.Fatal(src.Err())
	}
}

// TestBinaryDecodeRejects is the decode-hardening wall: each case is a
// byte stream with exactly one defect, and the decoder must name it.
// This is where the streaming path earns the same validation the CSV
// path gets from Trace.Validate — non-finite fields and non-positive
// durations are rejected as records are read.
func TestBinaryDecodeRejects(t *testing.T) {
	// Canonical one-record stream pieces, reused by most cases.
	arr1 := orderedBits(1)
	dep := orderedBits(2) - orderedBits(1)
	mem24 := swappedBits(24)
	frac := swappedBits(0.5)

	cases := []struct {
		name  string
		build func(b *binBuilder)
		want  string
	}{
		{
			name:  "bad magic",
			build: func(b *binBuilder) { b.str("GSFX"); b.uvarint(1) },
			want:  "bad magic",
		},
		{
			name: "unsupported version",
			build: func(b *binBuilder) {
				b.str(binaryMagic)
				b.uvarint(99)
			},
			want: "unsupported version",
		},
		{
			name:  "truncated header",
			build: func(b *binBuilder) { b.str("GS") },
			want:  "reading magic",
		},
		{
			name: "oversized name",
			build: func(b *binBuilder) {
				b.str(binaryMagic)
				b.uvarint(binaryVersion)
				b.uvarint(maxBinaryName + 1)
			},
			want: "max 4096",
		},
		{
			name: "non-finite horizon",
			build: func(b *binBuilder) {
				b.str(binaryMagic)
				b.uvarint(binaryVersion)
				b.uvarint(1)
				b.str("t")
				b.f64bits(math.NaN())
				b.uvarint(0)
			},
			want: "non-finite horizon",
		},
		{
			name: "non-finite arrive",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift, orderedBits(math.NaN()), dep, 4, mem24, 0, "web", frac)
			},
			want: "non-finite field",
		},
		{
			name: "zero-duration depart",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift, arr1, 0, 4, mem24, 0, "web", frac)
			},
			want: "departs before arriving",
		},
		{
			name: "wrapping depart delta",
			build: func(b *binBuilder) {
				// ordered(arrive) + delta wraps past 2^64, which can only
				// decode to a departure before the arrival (or NaN) —
				// negative durations are structurally unencodable.
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift, arr1, ^uint64(0)-arr1+1, 4, mem24, 0, "web", frac)
			},
			want: "VM 0",
		},
		{
			name: "zero cores",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift, arr1, dep, 0, mem24, 0, "web", frac)
			},
			want: "empty resource request",
		},
		{
			name: "cores over cap",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift, arr1, dep, maxBinaryCores+1, mem24, 0, "web", frac)
			},
			want: "max 1048576",
		},
		{
			name: "negative memory",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift, arr1, dep, 4, swappedBits(-24), 0, "web", frac)
			},
			want: "empty resource request",
		},
		{
			name: "generation bits 3",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 3<<flagGenShift, arr1, dep, 4, mem24, 0, "web", frac)
			},
			want: "has generation 4",
		},
		{
			name: "reserved flag bits",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift|0x10, arr1, dep, 4, mem24, 0, "web", frac)
			},
			want: "reserved flag bits",
		},
		{
			name: "max_mem_frac out of range",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift, arr1, dep, 4, mem24, 0, "web", swappedBits(1.5))
			},
			want: "out of [0,1]",
		},
		{
			name: "negative slack",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift|flagDeferrable, arr1, dep, 4, mem24, 0, "web", frac, swappedBits(-1))
			},
			want: "negative slack",
		},
		{
			name: "app index past table",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift, arr1, dep, 4, mem24, 1, "", frac)
			},
			want: "past table size",
		},
		{
			name: "app interned twice",
			build: func(b *binBuilder) {
				b.header("t", 10, 2)
				b.record(0, 1<<flagGenShift, arr1, dep, 4, mem24, 0, "web", frac)
				b.record(1, 1<<flagGenShift, 0, dep, 4, mem24, 1, "web", frac)
			},
			want: "interned twice",
		},
		{
			name: "non-canonical varint",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.uvarint(zigzag(0))
				b.raw(1 << flagGenShift)
				b.uvarint(arr1)
				b.uvarint(dep)
				b.raw(0x84, 0x00) // cores = 4 padded to two bytes
			},
			want: "non-canonical varint",
		},
		{
			name: "trailing data",
			build: func(b *binBuilder) {
				b.header("t", 10, 1)
				b.record(0, 1<<flagGenShift, arr1, dep, 4, mem24, 0, "web", frac)
				b.raw(0x00)
			},
			want: "trailing data",
		},
		{
			name: "fewer records than declared",
			build: func(b *binBuilder) {
				b.header("t", 10, 2)
				b.record(0, 1<<flagGenShift, arr1, dep, 4, mem24, 0, "web", frac)
			},
			want: "record 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var b binBuilder
			tc.build(&b)
			_, err := ReadBinary(bytes.NewReader(b.buf))
			if err == nil {
				t.Fatal("decoder accepted a defective stream")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// TestBinaryOrderStructurallyEnforced: the delta encoding makes
// out-of-order arrivals unrepresentable — whatever delta bits appear,
// decode yields either a non-decreasing arrival or a validation error,
// never a silently unsorted trace.
func TestBinaryOrderStructurallyEnforced(t *testing.T) {
	for _, delta := range []uint64{0, 1, 1 << 32, ^uint64(0)} {
		var b binBuilder
		b.header("t", 10, 2)
		arr1 := orderedBits(1)
		dep := orderedBits(2) - orderedBits(1)
		b.record(0, 1<<flagGenShift, arr1, dep, 4, swappedBits(24), 0, "web", swappedBits(0.5))
		b.record(1, 1<<flagGenShift, delta, dep, 4, swappedBits(24), 0, "", swappedBits(0.5))
		tr, err := ReadBinary(bytes.NewReader(b.buf))
		if err != nil {
			continue // rejected: fine
		}
		if tr.VMs[1].Arrive < tr.VMs[0].Arrive {
			t.Fatalf("delta %#x decoded to an out-of-order trace", delta)
		}
	}
}

func TestBinaryWriterErrors(t *testing.T) {
	t.Run("oversized name", func(t *testing.T) {
		if _, err := NewBinaryWriter(io.Discard, strings.Repeat("x", maxBinaryName+1), 10, 0); err == nil {
			t.Fatal("accepted an oversized name")
		}
	})
	t.Run("non-finite horizon", func(t *testing.T) {
		if _, err := NewBinaryWriter(io.Discard, "t", math.Inf(1), 0); err == nil {
			t.Fatal("accepted a non-finite horizon")
		}
	})
	t.Run("negative count", func(t *testing.T) {
		if _, err := NewBinaryWriter(io.Discard, "t", 10, -1); err == nil {
			t.Fatal("accepted a negative count")
		}
	})
	t.Run("invalid VM", func(t *testing.T) {
		bw, err := NewBinaryWriter(io.Discard, "t", 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		vm := testVM()
		vm.Depart = vm.Arrive
		if err := bw.Write(vm); err == nil {
			t.Fatal("accepted a zero-duration VM")
		}
		// The writer latches its error.
		if err := bw.Write(testVM()); err == nil {
			t.Fatal("write succeeded after a latched error")
		}
	})
	t.Run("unsorted", func(t *testing.T) {
		bw, err := NewBinaryWriter(io.Discard, "t", 10, 2)
		if err != nil {
			t.Fatal(err)
		}
		first := testVM()
		first.Arrive, first.Depart = 5, 6
		if err := bw.Write(first); err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(testVM()); err == nil {
			t.Fatal("accepted an out-of-order VM")
		}
	})
	t.Run("count mismatch at flush", func(t *testing.T) {
		bw, err := NewBinaryWriter(io.Discard, "t", 10, 2)
		if err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(testVM()); err != nil {
			t.Fatal(err)
		}
		if err := bw.Flush(); err == nil {
			t.Fatal("flush accepted a short stream")
		}
	})
	t.Run("over declared count", func(t *testing.T) {
		bw, err := NewBinaryWriter(io.Discard, "t", 10, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := bw.Write(testVM()); err == nil {
			t.Fatal("accepted a record past the declared count")
		}
	})
	t.Run("cores over cap", func(t *testing.T) {
		bw, err := NewBinaryWriter(io.Discard, "t", 10, 1)
		if err != nil {
			t.Fatal(err)
		}
		vm := testVM()
		vm.Cores = maxBinaryCores + 1
		if err := bw.Write(vm); err == nil {
			t.Fatal("accepted an over-cap core request")
		}
	})
}

func TestBinaryEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{Name: "empty", Horizon: 5}); err != nil {
		t.Fatal(err)
	}
	tr, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Name != "empty" || tr.Horizon != 5 || len(tr.VMs) != 0 {
		t.Fatalf("got %+v", tr)
	}
}

// TestBinaryAppInterning pins the interning win: repeated app names
// cost one varint, not the string.
func TestBinaryAppInterning(t *testing.T) {
	vms := make([]VM, 100)
	for i := range vms {
		vms[i] = VM{ID: i, Arrive: float64(i), Depart: float64(i) + 1, Cores: 2,
			Memory: 8, Gen: 1, App: "a-rather-long-application-name", MaxMemFrac: 0.5}
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, Trace{Name: "intern", VMs: vms, Horizon: 200}); err != nil {
		t.Fatal(err)
	}
	if got := bytes.Count(buf.Bytes(), []byte("a-rather-long-application-name")); got != 1 {
		t.Fatalf("app name appears %d times in the stream, want 1", got)
	}
	tr, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	for i, vm := range tr.VMs {
		if vm.App != vms[i].App {
			t.Fatalf("VM %d app %q", i, vm.App)
		}
	}
}

func TestOrderedBitsMonotoneBijection(t *testing.T) {
	vals := []float64{math.Inf(-1), -1e300, -2, -1, -0.5, math.Copysign(0, -1), 0, 0.5, 1, 2, 1e300, math.Inf(1)}
	for i, v := range vals {
		if got := unorderedBits(orderedBits(v)); math.Float64bits(got) != math.Float64bits(v) {
			t.Fatalf("round trip changed %v to %v", v, got)
		}
		if i > 0 && orderedBits(vals[i-1]) >= orderedBits(v) {
			t.Fatalf("orderedBits not monotone at %v < %v", vals[i-1], v)
		}
	}
	for _, u := range []uint64{0, 1, 1 << 40, ^uint64(0), 0x7ff8000000000001} {
		if got := orderedBits(unorderedBits(u)); got != u {
			t.Fatalf("bits round trip changed %#x to %#x", u, got)
		}
	}
}

func TestSwappedBitsCompact(t *testing.T) {
	// Round values must byte-swap into small varints — that is the
	// whole point of the transform.
	var buf [binary.MaxVarintLen64]byte
	for _, v := range []float64{0, 24, 48, 768, 0.5} {
		n := binary.PutUvarint(buf[:], swappedBits(v))
		if n > 3 {
			t.Fatalf("swappedBits(%v) takes %d varint bytes", v, n)
		}
		if got := unswappedBits(swappedBits(v)); got != v {
			t.Fatalf("swap round trip changed %v to %v", v, got)
		}
	}
}
