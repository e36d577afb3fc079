package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// module is the import path prefix of GSF's own packages.
const module = "github.com/greensku/gsf"

// packageLayers maps a GSF package, as a path below the module root, to
// the layer its CPU time is reported under. Other GSF packages report
// as gsf_other; CPU time with no GSF frame on its stack (the Go runtime
// and garbage collector, net/http outside the service's handlers, the
// benchmark's own client) reports as outside.
var packageLayers = map[string]string{
	"internal/queueing":   "queueing",
	"internal/stats":      "stats",
	"internal/perf":       "perf",
	"internal/alloc":      "alloc",
	"internal/carbon":     "carbon",
	"internal/carbondata": "carbon",
	"internal/design":     "design",
	"internal/trace":      "trace",
	"internal/server":     "server",
	"internal/server/api": "server",
}

// layers are the per-layer shares a traced run reports, as <layer>_pct.
var layers = []string{
	"queueing", "stats", "perf", "alloc", "carbon", "design", "trace", "server",
	"gsf_other", "outside",
}

// profileShares runs fn under the Go CPU profiler and returns each
// layer's percentage of the CPU samples taken. A sample belongs to the
// layer of the innermost GSF function on its stack, so time a GSF
// function spends in the standard library counts toward its layer.
func profileShares(fn func()) (map[string]float64, error) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		return nil, err
	}
	fn()
	pprof.StopCPUProfile()
	counts, err := layerSamples(&buf)
	if err != nil {
		return nil, err
	}
	var total int64
	for _, n := range counts {
		total += n
	}
	if total == 0 {
		return nil, errors.New("the CPU profile holds no samples")
	}
	shares := map[string]float64{}
	for l, n := range counts {
		shares[l] = 100 * float64(n) / float64(total)
	}
	return shares, nil
}

// layerOf returns the layer of a profiled function name such as
// "github.com/greensku/gsf/internal/queueing.(*calendar).insert", or
// false for a function outside GSF.
func layerOf(fn string) (string, bool) {
	rest, ok := strings.CutPrefix(fn, module)
	if !ok || rest == "" || (rest[0] != '.' && rest[0] != '/') {
		return "", false
	}
	// Package path elements hold no dots, so the first one ends the path.
	pkg := strings.TrimPrefix(rest[:strings.IndexByte(rest+".", '.')], "/")
	if l, ok := packageLayers[pkg]; ok {
		return l, true
	}
	return "gsf_other", true
}

var errProfile = errors.New("malformed CPU profile")

// layerSamples decodes a gzipped pprof CPU profile (profile.proto) and
// counts its samples per layer. It reads only the messages the count
// needs: samples, locations, functions and the string table.
func layerSamples(r io.Reader) (map[string]int64, error) {
	zr, err := gzip.NewReader(r)
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	top, err := fields(raw)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64 // leaf first
		n    int64
	}
	var (
		samples  []sample
		strs     []string
		funcName = map[uint64]uint64{}   // function id -> string index
		locFuncs = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	for _, f := range top {
		var sub []field
		if f.num >= 2 && f.num <= 5 {
			if sub, err = fields(f.data); err != nil {
				return nil, err
			}
		}
		switch f.num {
		case 2: // Sample: location_id = 1, value = 2
			var s sample
			var vals []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					s.locs, err = g.uints(s.locs)
				case 2:
					vals, err = g.uints(vals)
				}
				if err != nil {
					return nil, err
				}
			}
			if len(vals) == 0 {
				return nil, errProfile
			}
			s.n = int64(vals[0]) // CPU profiles count samples first
			samples = append(samples, s)
		case 4: // Location: id = 1, line = 4 (Line: function_id = 1)
			var id uint64
			var fns []uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.val
				case 4:
					line, err := fields(g.data)
					if err != nil {
						return nil, err
					}
					for _, h := range line {
						if h.num == 1 {
							fns = append(fns, h.val)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function: id = 1, name = 2
			var id, name uint64
			for _, g := range sub {
				switch g.num {
				case 1:
					id = g.val
				case 2:
					name = g.val
				}
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(f.data))
		}
	}

	counts := map[string]int64{}
	for _, s := range samples {
		layer := "outside"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				i := funcName[fn]
				if i >= uint64(len(strs)) {
					return nil, errProfile
				}
				if l, ok := layerOf(strs[i]); ok {
					layer = l
					break stack
				}
			}
		}
		counts[layer] += s.n
	}
	return counts, nil
}

// field is one protocol-buffer field: a varint value, or the bytes of a
// length-delimited one.
type field struct {
	num       int
	delimited bool
	val       uint64
	data      []byte
}

// fields splits one protocol-buffer message into its varint and
// length-delimited fields, skipping fixed-width ones.
func fields(b []byte) ([]field, error) {
	var out []field
	for len(b) > 0 {
		key, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		b = b[n:]
		f := field{num: int(key >> 3)}
		switch key & 7 {
		case 0:
			if f.val, n = binary.Uvarint(b); n <= 0 {
				return nil, errProfile
			}
			b = b[n:]
		case 2:
			l, n := binary.Uvarint(b)
			if n <= 0 || l > uint64(len(b)-n) {
				return nil, errProfile
			}
			f.delimited, f.data, b = true, b[n:n+int(l)], b[n+int(l):]
		case 1, 5:
			w := 8
			if key&7 == 5 {
				w = 4
			}
			if len(b) < w {
				return nil, errProfile
			}
			b = b[w:]
			continue
		default:
			return nil, errProfile
		}
		out = append(out, f)
	}
	return out, nil
}

// uints appends a repeated integer field's values, packed or not.
func (f field) uints(dst []uint64) ([]uint64, error) {
	if !f.delimited {
		return append(dst, f.val), nil
	}
	for b := f.data; len(b) > 0; {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return nil, errProfile
		}
		dst, b = append(dst, v), b[n:]
	}
	return dst, nil
}
