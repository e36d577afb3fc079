package alloc

// Fuzz harness for the GSFS checkpoint decoder. Restore rebuilds the
// same simulator state a sizing probe's checkpoints clone, from bytes
// that may be torn or hostile. The properties: Restore never panics,
// an accepted checkpoint re-encodes through Snapshot to exactly its
// input, and a corrupted checksum or payload length is refused. The
// seed corpus in testdata/fuzz/FuzzSnapshotRestore holds real
// mid-replay checkpoints. An accepted checkpoint must also take one
// more arrival, at its next snapshot time, without panicking or
// hanging.

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"math"
	"testing"

	"github.com/greensku/gsf/internal/trace"
)

// frameSnapshot wraps payload in a well-formed GSFS header. Mutations
// of a whole checkpoint almost never survive its checksum, so the
// harness also offers each input to the payload decoder this way.
func frameSnapshot(payload []byte) []byte {
	out := append([]byte(snapMagic), snapVersion)
	out = binary.AppendUvarint(out, uint64(len(payload)))
	out = binary.LittleEndian.AppendUint32(out, crc32.ChecksumIEEE(payload))
	return append(out, payload...)
}

// checkRestore applies the decoder's properties to one input.
func checkRestore(t *testing.T, data []byte) {
	s, err := Restore(bytes.NewReader(data), nil, nil)
	if err != nil {
		return
	}
	var out bytes.Buffer
	if err := s.Snapshot(&out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out.Bytes(), data) {
		t.Fatalf("accepted checkpoint re-encodes differently:\nin  %x\nout %x", data, out.Bytes())
	}
	defer func() {
		vm := trace.VM{ID: s.events, Arrive: s.nextSnap, Depart: s.nextSnap + 1, Cores: 1, Memory: 1, Gen: 1}
		if s.Step(vm) == nil {
			s.Finish(vm.Arrive)
		}
	}()
	plen, n := binary.Uvarint(data[len(snapMagic)+1:])
	head := len(snapMagic) + 1 + n // magic, version, length
	refused := func(what string, bad []byte) {
		if _, err := Restore(bytes.NewReader(bad), nil, nil); err == nil {
			t.Fatalf("checkpoint with a %s accepted", what)
		}
	}
	for bit := 0; bit < 32; bit += 7 {
		bad := bytes.Clone(data)
		bad[head+bit/8] ^= 1 << (bit % 8)
		refused("flipped checksum bit", bad)
	}
	lengths := []uint64{plen + 1}
	if plen > 0 {
		lengths = append(lengths, plen-1)
	}
	for _, l := range lengths {
		bad := append([]byte(snapMagic), snapVersion)
		bad = binary.AppendUvarint(bad, l)
		refused("wrong payload length", append(bad, data[head:]...))
	}
}

func FuzzSnapshotRestore(f *testing.F) {
	f.Add([]byte(snapMagic))
	f.Add(frameSnapshot(nil))
	f.Fuzz(func(t *testing.T, data []byte) {
		checkRestore(t, data)
		checkRestore(t, frameSnapshot(data))
	})
}

// TestRestoreRefusesUnreachableClock: a checkpoint whose snapshot clock
// no replay reaches is refused, since the restored simulator's next
// Step could take arbitrarily many snapshots, or never return.
func TestRestoreRefusesUnreachableClock(t *testing.T) {
	tr := smallTrace()
	sim, err := NewSim(tr.Name, Config{Base: baseClass(), NBase: 4, Green: greenClass(), NGreen: 2}, AdoptAll)
	if err != nil {
		t.Fatal(err)
	}
	for _, vm := range tr.VMs {
		if err := sim.Step(vm); err != nil {
			t.Fatal(err)
		}
	}
	for _, tc := range []struct {
		name      string
		next, int float64
		ok        bool
	}{
		{"as replayed", sim.nextSnap, sim.snapEvery, true},
		{"below the interval", sim.snapEvery / 2, sim.snapEvery, false},
		{"at the last arrival", sim.lastArrive, sim.snapEvery, false},
		{"far behind the last arrival", -1e300, sim.snapEvery, false},
		{"too far ahead to advance", 1e300, sim.snapEvery, false},
		{"infinite", math.Inf(1), sim.snapEvery, false},
		{"not a number", math.NaN(), sim.snapEvery, false},
		{"zero interval", sim.nextSnap, 0, false},
		{"infinite interval", sim.nextSnap, math.Inf(1), false},
	} {
		s := sim.clone()
		s.nextSnap, s.snapEvery = tc.next, tc.int
		var buf bytes.Buffer
		if err := s.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if _, err := Restore(&buf, AdoptAll, nil); (err == nil) != tc.ok {
			t.Errorf("%s: Restore error %v, want accepted=%v", tc.name, err, tc.ok)
		}
	}
}
