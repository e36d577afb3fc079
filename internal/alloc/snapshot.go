package alloc

// Simulator checkpoints: the GSFS binary codec.
//
// Between Steps, a Sim's entire state is flat data — columns, running
// sums, the departure heap's backing array, a few scalars. Snapshot
// serializes exactly that and Restore rebuilds it, so a restored
// simulator continues bit-identically to one that never paused: same
// placements, same Result bits (the property suite proves this at
// every event boundary). That makes checkpoints two things at once —
// a resume point for long replays, and a fork point for what-if
// placement runs (gsfd's replay endpoint restores one snapshot many
// times under different deciders).
//
// Layout: "GSFS" magic, a uvarint version, a uvarint payload length,
// an IEEE CRC32 of the payload, then the payload. The CRC turns any
// torn write or bit flip into a refusal rather than a silently wrong
// continuation. Within the payload, floats travel as raw IEEE bits
// (checkpoint state is drifted mid-computation data, where exactness
// matters and round-number compression does not), counts as uvarints.
// The departure heap is written in backing-array order and restored
// verbatim, preserving the pop order of equal-time departures. Every
// state has exactly one encoding: Restore refuses overlong varints, so
// an accepted checkpoint re-encodes to the same bytes.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"github.com/greensku/gsf/internal/audit"
	"github.com/greensku/gsf/internal/units"
)

const (
	snapMagic   = "GSFS"
	snapVersion = 1
	// maxSnapName caps decoded string lengths. Slice lengths are
	// bounded by the declared pool sizes and the payload length, so a
	// corrupted count cannot demand an absurd allocation.
	maxSnapName = 1 << 12
)

type snapWriter struct {
	buf bytes.Buffer
	tmp [binary.MaxVarintLen64]byte
}

func (w *snapWriter) uvarint(v uint64) {
	n := binary.PutUvarint(w.tmp[:], v)
	w.buf.Write(w.tmp[:n])
}

func (w *snapWriter) f64(v float64) {
	binary.LittleEndian.PutUint64(w.tmp[:8], math.Float64bits(v))
	w.buf.Write(w.tmp[:8])
}

func (w *snapWriter) str(s string) {
	w.uvarint(uint64(len(s)))
	w.buf.WriteString(s)
}

func (w *snapWriter) bool(b bool) {
	if b {
		w.buf.WriteByte(1)
	} else {
		w.buf.WriteByte(0)
	}
}

func (w *snapWriter) class(c *ServerClass) {
	w.str(c.Name)
	w.uvarint(uint64(c.Cores))
	w.f64(float64(c.Memory))
	w.f64(float64(c.LocalMemory))
	w.bool(c.Green)
}

func (w *snapWriter) fleet(f *fleet) {
	w.uvarint(uint64(f.frontier))
	for id := int32(0); id < f.frontier; id++ {
		w.f64(f.coresFree[id])
		w.f64(f.memFree[id])
		w.uvarint(uint64(f.vms[id]))
		w.f64(f.touched[id])
	}
}

func (w *snapWriter) agg(a *aggregator) {
	w.f64(a.corePackSum)
	w.f64(a.memPackSum)
	w.uvarint(uint64(a.packObs))
	w.f64(a.maxMemUtilSum)
	w.f64(a.cxlFracSum)
	w.uvarint(uint64(a.cxlObs))
	w.uvarint(uint64(a.localFits))
	w.uvarint(uint64(a.observed))
}

// Snapshot writes a GSFS checkpoint of the simulator's current state.
// Call it only between Steps (or before Finish); a finished simulator
// has drained its audit state and is not resumable. The codec carries
// the two pools NewSim and Restore build.
func (s *Sim) Snapshot(w io.Writer) error {
	var p snapWriter
	p.str(s.name)
	p.uvarint(uint64(s.cfg.Policy))
	p.bool(s.cfg.PreferNonEmpty)
	p.uvarint(uint64(s.cfg.NBase))
	p.uvarint(uint64(s.cfg.NGreen))
	p.f64(s.snapEvery)
	p.class(&s.cfg.Base)
	p.class(&s.cfg.Green)

	p.f64(s.lastArrive)
	p.uvarint(uint64(s.events))
	p.f64(s.nextSnap)
	p.uvarint(uint64(s.res.Placed))
	p.uvarint(uint64(s.res.Rejected))
	p.uvarint(uint64(s.res.DeferrablePlaced))
	p.uvarint(uint64(s.res.DeferrableRejected))
	p.uvarint(uint64(s.res.Snapshots))

	p.fleet(&s.pools[0])
	p.fleet(&s.pools[1])
	p.agg(&s.aggs[0])
	p.agg(&s.aggs[1])

	p.uvarint(uint64(len(s.deps)))
	for i := range s.deps {
		d := &s.deps[i]
		p.f64(d.at)
		p.f64(d.cores)
		p.f64(d.mem)
		p.f64(d.touched)
		p.uvarint(uint64(d.id))
		p.bool(d.pool != 0)
	}

	payload := p.buf.Bytes()
	var hdr snapWriter
	hdr.buf.WriteString(snapMagic)
	hdr.uvarint(snapVersion)
	hdr.uvarint(uint64(len(payload)))
	binary.LittleEndian.PutUint32(hdr.tmp[:4], crc32.ChecksumIEEE(payload))
	hdr.buf.Write(hdr.tmp[:4])
	if _, err := w.Write(hdr.buf.Bytes()); err != nil {
		return fmt.Errorf("alloc: writing snapshot header: %w", err)
	}
	if _, err := w.Write(payload); err != nil {
		return fmt.Errorf("alloc: writing snapshot payload: %w", err)
	}
	return nil
}

type snapReader struct {
	b   []byte
	off int
}

func (r *snapReader) fail(what string) error {
	return fmt.Errorf("alloc: corrupt snapshot: %s at offset %d", what, r.off)
}

func (r *snapReader) uvarint(what string) (uint64, error) {
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || (n > 1 && r.b[r.off+n-1] == 0) { // malformed or overlong
		return 0, r.fail(what)
	}
	r.off += n
	return v, nil
}

func (r *snapReader) f64(what string) (float64, error) {
	if r.off+8 > len(r.b) {
		return 0, r.fail(what)
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b[r.off:]))
	r.off += 8
	return v, nil
}

func (r *snapReader) str(what string) (string, error) {
	n, err := r.uvarint(what)
	if err != nil {
		return "", err
	}
	if n > maxSnapName || r.off+int(n) > len(r.b) {
		return "", r.fail(what)
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s, nil
}

func (r *snapReader) bool(what string) (bool, error) {
	if r.off >= len(r.b) {
		return false, r.fail(what)
	}
	b := r.b[r.off]
	r.off++
	if b > 1 {
		return false, r.fail(what)
	}
	return b == 1, nil
}

func (r *snapReader) class(c *ServerClass) error {
	name, err := r.str("class name")
	if err != nil {
		return err
	}
	cores, err := r.uvarint("class cores")
	if err != nil {
		return err
	}
	mem, err := r.f64("class memory")
	if err != nil {
		return err
	}
	local, err := r.f64("class local memory")
	if err != nil {
		return err
	}
	green, err := r.bool("class green")
	if err != nil {
		return err
	}
	*c = ServerClass{Name: name, Cores: int(cores), Green: green,
		Memory: units.GB(mem), LocalMemory: units.GB(local)}
	return nil
}

func (r *snapReader) fleet(f *fleet) error {
	frontier, err := r.uvarint("fleet frontier")
	if err != nil {
		return err
	}
	if frontier > uint64(f.n) {
		return r.fail("frontier past pool size")
	}
	// Each server takes at least 25 payload bytes, so a corrupted
	// frontier cannot demand more columns than the payload holds.
	if frontier > uint64(len(r.b)-r.off)/25 {
		return r.fail("fleet frontier")
	}
	n := int32(frontier)
	f.coresFree = make([]float64, n)
	f.memFree = make([]float64, n)
	f.vms = make([]int32, n)
	f.touched = make([]float64, n)
	for id := int32(0); id < n; id++ {
		if f.coresFree[id], err = r.f64("server cores"); err != nil {
			return err
		}
		if f.memFree[id], err = r.f64("server memory"); err != nil {
			return err
		}
		vms, err := r.uvarint("server vm count")
		if err != nil {
			return err
		}
		if vms > math.MaxInt32 {
			return r.fail("server vm count")
		}
		f.vms[id] = int32(vms)
		if f.touched[id], err = r.f64("server touched memory"); err != nil {
			return err
		}
	}
	// Rebuild the index and the whole-node bitset from the restored
	// columns. Treap shapes can differ from the writer's when
	// priorities collide, but every index query is key-deterministic,
	// so decisions are unaffected.
	f.frontier = n
	f.whole = make([]uint64, (n+63)>>6)
	if n > 0 {
		f.ix.initCore(int(n))
		for id := int32(0); id < n; id++ {
			f.ix.attachID(id, f.coresFree[id], f.memFree[id], f.vms[id] > 0)
			f.markWhole(id)
		}
	}
	return nil
}

func (r *snapReader) agg(a *aggregator) error {
	var err error
	if a.corePackSum, err = r.f64("aggregator sums"); err != nil {
		return err
	}
	if a.memPackSum, err = r.f64("aggregator sums"); err != nil {
		return err
	}
	packObs, err := r.uvarint("aggregator counts")
	if err != nil {
		return err
	}
	if a.maxMemUtilSum, err = r.f64("aggregator sums"); err != nil {
		return err
	}
	if a.cxlFracSum, err = r.f64("aggregator sums"); err != nil {
		return err
	}
	cxlObs, err := r.uvarint("aggregator counts")
	if err != nil {
		return err
	}
	localFits, err := r.uvarint("aggregator counts")
	if err != nil {
		return err
	}
	observed, err := r.uvarint("aggregator counts")
	if err != nil {
		return err
	}
	a.packObs, a.cxlObs = int(packObs), int(cxlObs)
	a.localFits, a.observed = int(localFits), int(observed)
	return nil
}

// Restore reads a GSFS checkpoint and returns a simulator that
// continues bit-identically from where Snapshot was taken. The decider
// and audit checker are live code, not data, so the caller supplies
// them again; nil means AdoptNone and the process-default checker, as
// in NewSim. Corruption anywhere — header, length, payload — is
// rejected, never partially applied.
func Restore(rd io.Reader, decide Decider, chk audit.Checker) (*Sim, error) {
	var magic [4]byte
	if _, err := io.ReadFull(rd, magic[:]); err != nil {
		return nil, fmt.Errorf("alloc: reading snapshot magic: %w", err)
	}
	if string(magic[:]) != snapMagic {
		return nil, fmt.Errorf("alloc: not a GSFS snapshot (magic %q)", magic[:])
	}
	br := byteReaderOf(rd)
	version, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("alloc: reading snapshot version: %w", err)
	}
	if version != snapVersion {
		return nil, fmt.Errorf("alloc: unsupported snapshot version %d (have %d)", version, snapVersion)
	}
	plen, err := readUvarint(br)
	if err != nil {
		return nil, fmt.Errorf("alloc: reading snapshot length: %w", err)
	}
	if plen > 1<<34 {
		return nil, fmt.Errorf("alloc: snapshot payload length %d implausible", plen)
	}
	var crcBuf [4]byte
	if _, err := io.ReadFull(rd, crcBuf[:]); err != nil {
		return nil, fmt.Errorf("alloc: reading snapshot checksum: %w", err)
	}
	wantCRC := binary.LittleEndian.Uint32(crcBuf[:])
	// Read rather than allocate the declared length: a corrupted
	// length must not cost more memory than the bytes actually there.
	payload, err := io.ReadAll(io.LimitReader(rd, int64(plen)))
	if err == nil && uint64(len(payload)) != plen {
		err = io.ErrUnexpectedEOF
	}
	if err != nil {
		return nil, fmt.Errorf("alloc: reading snapshot payload: %w", err)
	}
	if got := crc32.ChecksumIEEE(payload); got != wantCRC {
		return nil, fmt.Errorf("alloc: snapshot checksum mismatch: payload %08x, header %08x", got, wantCRC)
	}

	r := &snapReader{b: payload}
	if decide == nil {
		decide = AdoptNone
	}
	s := &Sim{decide: []Decider{decide}, chk: audit.Resolve(chk)}
	if s.name, err = r.str("name"); err != nil {
		return nil, err
	}
	pol, err := r.uvarint("policy")
	if err != nil {
		return nil, err
	}
	s.cfg.Policy = Policy(pol)
	if s.cfg.PreferNonEmpty, err = r.bool("prefer-non-empty"); err != nil {
		return nil, err
	}
	nBase, err := r.uvarint("base pool size")
	if err != nil {
		return nil, err
	}
	nGreen, err := r.uvarint("green pool size")
	if err != nil {
		return nil, err
	}
	if nBase > math.MaxInt32 || nGreen > math.MaxInt32 {
		return nil, r.fail("pool size")
	}
	s.cfg.NBase, s.cfg.NGreen = int(nBase), int(nGreen)
	if s.snapEvery, err = r.f64("snapshot interval"); err != nil {
		return nil, err
	}
	// The snapshot clock must advance, or the next Step never returns.
	if !(s.snapEvery > 0) || math.IsInf(s.snapEvery, 1) {
		return nil, r.fail("snapshot interval")
	}
	s.cfg.SnapshotEvery = s.snapEvery
	if err := r.class(&s.cfg.Base); err != nil {
		return nil, err
	}
	if err := r.class(&s.cfg.Green); err != nil {
		return nil, err
	}

	if s.lastArrive, err = r.f64("last arrival"); err != nil {
		return nil, err
	}
	events, err := r.uvarint("event count")
	if err != nil {
		return nil, err
	}
	s.events = int(events)
	if s.nextSnap, err = r.f64("next snapshot time"); err != nil {
		return nil, err
	}
	// A replay's snapshot clock starts at the interval, stays past its
	// last arrival, and advances by the interval. A clock that breaks
	// any of these no replay reaches, and one that does not advance
	// would hang the next Step; a restored clock that keeps them costs
	// the next Step no more snapshots than the original replay's.
	if !(s.nextSnap >= s.snapEvery && s.nextSnap > s.lastArrive) || s.nextSnap+s.snapEvery == s.nextSnap {
		return nil, r.fail("next snapshot time")
	}
	for _, c := range []*int{&s.res.Placed, &s.res.Rejected, &s.res.DeferrablePlaced, &s.res.DeferrableRejected, &s.res.Snapshots} {
		v, err := r.uvarint("result counter")
		if err != nil {
			return nil, err
		}
		*c = int(v)
	}

	s.pools = []fleet{newFleet(s.cfg.Base, s.cfg.NBase, s.cfg.Policy), newFleet(s.cfg.Green, s.cfg.NGreen, s.cfg.Policy)}
	s.aggs = make([]aggregator, 2)
	for i := range s.pools {
		if err := r.fleet(&s.pools[i]); err != nil {
			return nil, err
		}
	}
	for i := range s.aggs {
		if err := r.agg(&s.aggs[i]); err != nil {
			return nil, err
		}
	}

	nDeps, err := r.uvarint("departure count")
	if err != nil {
		return nil, err
	}
	if nDeps > uint64(len(payload)) { // each departure is >= 34 bytes
		return nil, r.fail("departure count")
	}
	s.deps = make(depHeap, nDeps)
	for i := range s.deps {
		d := &s.deps[i]
		if d.at, err = r.f64("departure time"); err != nil {
			return nil, err
		}
		if d.cores, err = r.f64("departure cores"); err != nil {
			return nil, err
		}
		if d.mem, err = r.f64("departure memory"); err != nil {
			return nil, err
		}
		if d.touched, err = r.f64("departure touched memory"); err != nil {
			return nil, err
		}
		id, err := r.uvarint("departure server id")
		if err != nil {
			return nil, err
		}
		green, err := r.bool("departure pool")
		if err != nil {
			return nil, err
		}
		if green {
			d.pool = 1
		}
		f := &s.pools[d.pool]
		if id >= uint64(f.frontier) {
			return nil, r.fail("departure names an untouched server")
		}
		d.id = int32(id)
	}
	if r.off != len(payload) {
		return nil, fmt.Errorf("alloc: corrupt snapshot: %d trailing payload bytes", len(payload)-r.off)
	}
	// A snapshot is a complete artifact, not a stream element: anything
	// after the declared payload is corruption.
	var one [1]byte
	if _, err := io.ReadFull(rd, one[:]); err != io.EOF {
		return nil, fmt.Errorf("alloc: corrupt snapshot: trailing data after payload")
	}
	return s, nil
}

// readUvarint is binary.ReadUvarint refusing overlong encodings.
func readUvarint(br io.ByteReader) (uint64, error) {
	c := countingByteReader{ByteReader: br}
	v, err := binary.ReadUvarint(&c)
	var min [binary.MaxVarintLen64]byte
	if err == nil && c.n != binary.PutUvarint(min[:], v) {
		err = errors.New("overlong uvarint")
	}
	return v, err
}

type countingByteReader struct {
	io.ByteReader
	n int
}

func (c *countingByteReader) ReadByte() (byte, error) {
	c.n++
	return c.ByteReader.ReadByte()
}

// byteReaderOf adapts any reader for binary.ReadUvarint without
// over-reading: one byte at a time unless the reader already is one.
func byteReaderOf(r io.Reader) io.ByteReader {
	if br, ok := r.(io.ByteReader); ok {
		return br
	}
	return &oneByteReader{r: r}
}

type oneByteReader struct {
	r   io.Reader
	buf [1]byte
}

func (o *oneByteReader) ReadByte() (byte, error) {
	_, err := io.ReadFull(o.r, o.buf[:1])
	return o.buf[0], err
}
