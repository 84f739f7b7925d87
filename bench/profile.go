package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// This file reads the CPU profiles runtime/pprof writes (gzipped
// profile.proto) with a minimal protobuf reader, so the benchmark needs no
// module beyond the standard library, and books every sample's CPU time to
// one layer by the Go package of its leaf frame.

// profLayers are the layers a sample can be booked to, in report order.
var profLayers = []string{
	"sim", "traffic", "router", "sbus", "noc", "stats", "power", "core",
	"topology", "photonic", "wireless", "fabric", "probe", "flightrec",
	"check", "report", "harness", "runtime.malloc_gc", "runtime.other",
}

// layerMetric is the per-layer metric name of a profile layer.
func layerMetric(layer string) string {
	if strings.HasPrefix(layer, "runtime.") {
		return layer + "_cpu_s"
	}
	return layer + ".cpu_s"
}

// layerOfPackage maps a repository package to its layer; rf and dsp are
// only reached through the claim ledger and are booked to report.
var layerOfPackage = map[string]string{"rf": "report", "dsp": "report"}

// gcFrames mark a runtime sample as allocation or collection work when
// any frame of its stack starts with one of them.
var gcFrames = []string{
	"runtime.mallocgc", "runtime.gc", "runtime.bgsweep", "runtime.bgscavenge",
	"runtime.sweepone", "runtime.(*mheap).alloc", "runtime.(*mcache).refill",
}

// packageOf returns the import path of a symbol such as
// "ownsim/internal/router.(*Router).Tick".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// layerOf books one sample, given its stack's function names leaf
// first.
func layerOf(stack []string) string {
	if len(stack) == 0 {
		return "runtime.other"
	}
	pkg := packageOf(stack[0])
	if rest, ok := strings.CutPrefix(pkg, "ownsim/internal/"); ok {
		name, _, _ := strings.Cut(rest, "/")
		if l, ok := layerOfPackage[name]; ok {
			return l
		}
		for _, l := range profLayers {
			if l == name {
				return l
			}
		}
		return "harness"
	}
	if pkg == "main" || strings.HasPrefix(pkg, "ownsim/") {
		return "harness"
	}
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		for _, fn := range stack {
			for _, p := range gcFrames {
				if strings.HasPrefix(fn, p) {
					return "runtime.malloc_gc"
				}
			}
		}
	}
	return "runtime.other"
}

// aggregateProfiles parses gzipped pprof CPU profiles and returns CPU
// seconds per layer and their total. Every sample lands in exactly one
// layer, so the layers sum to the total.
func aggregateProfiles(profiles [][]byte) (byLayer map[string]float64, total float64, err error) {
	byLayer = map[string]float64{}
	for _, gz := range profiles {
		zr, err := gzip.NewReader(bytes.NewReader(gz))
		if err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
		raw, err := io.ReadAll(zr)
		if err != nil {
			return nil, 0, fmt.Errorf("profile: %w", err)
		}
		p, err := parseProfile(raw)
		if err != nil {
			return nil, 0, err
		}
		for _, s := range p.samples {
			stack := make([]string, 0, len(s.locs))
			for _, id := range s.locs {
				for _, fid := range p.locFuncs[id] {
					stack = append(stack, p.funcName[fid])
				}
			}
			sec := float64(s.cpuNS) / 1e9
			byLayer[layerOf(stack)] += sec
			total += sec
		}
	}
	return byLayer, total, nil
}

type profSample struct {
	locs  []uint64
	cpuNS int64
}

// profile holds the parts of a profile.proto the aggregation needs.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]uint64 // location id -> function ids, innermost first
	funcName map[uint64]string
}

var errTruncated = errors.New("profile: truncated protobuf")

// pbuf is a cursor over protobuf wire format.
type pbuf []byte

func (b *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(*b) == 0 {
			return 0, errTruncated
		}
		c := (*b)[0]
		*b = (*b)[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("profile: varint overflows 64 bits")
}

// field reads one field: its number, and either its varint value or its
// length-delimited bytes. Fixed-width fields are skipped (profile.proto
// has none the aggregation reads).
func (b *pbuf) field() (num int, val uint64, data pbuf, err error) {
	key, err := b.varint()
	if err != nil {
		return 0, 0, nil, err
	}
	num = int(key >> 3)
	switch key & 7 {
	case 0:
		val, err = b.varint()
	case 2:
		var n uint64
		if n, err = b.varint(); err != nil {
			break
		}
		if n > uint64(len(*b)) {
			return 0, 0, nil, errTruncated
		}
		data, *b = (*b)[:n], (*b)[n:]
	case 1, 5:
		n := 8
		if key&7 == 5 {
			n = 4
		}
		if n > len(*b) {
			return 0, 0, nil, errTruncated
		}
		*b = (*b)[n:]
	default:
		err = fmt.Errorf("profile: unsupported wire type %d", key&7)
	}
	return num, val, data, err
}

// repeated appends a repeated integer field, packed or not.
func repeated(dst []uint64, val uint64, data pbuf) ([]uint64, error) {
	if data == nil {
		return append(dst, val), nil
	}
	for len(data) > 0 {
		v, err := data.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, v)
	}
	return dst, nil
}

func parseProfile(raw []byte) (*profile, error) {
	p := &profile{locFuncs: map[uint64][]uint64{}, funcName: map[uint64]string{}}
	var strs []string
	funcNameIdx := map[uint64]uint64{}
	for b := pbuf(raw); len(b) > 0; {
		num, _, data, err := b.field()
		if err != nil {
			return nil, err
		}
		switch num {
		case 2: // Sample
			var s profSample
			var values []uint64
			for len(data) > 0 {
				n, v, d, err := data.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					s.locs, err = repeated(s.locs, v, d)
				case 2:
					values, err = repeated(values, v, d)
				}
				if err != nil {
					return nil, err
				}
			}
			// A CPU profile's values are [samples, cpu nanoseconds].
			if len(values) > 0 {
				s.cpuNS = int64(values[len(values)-1])
			}
			p.samples = append(p.samples, s)
		case 4: // Location
			var id uint64
			var funcs []uint64
			for len(data) > 0 {
				n, v, d, err := data.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line; the first entry is the innermost inlined frame
					for len(d) > 0 {
						ln, lv, _, err := d.field()
						if err != nil {
							return nil, err
						}
						if ln == 1 {
							funcs = append(funcs, lv)
						}
					}
				}
			}
			p.locFuncs[id] = funcs
		case 5: // Function
			var id, name uint64
			for len(data) > 0 {
				n, v, _, err := data.field()
				if err != nil {
					return nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcNameIdx[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for id, idx := range funcNameIdx {
		if idx >= uint64(len(strs)) {
			return nil, fmt.Errorf("profile: function %d names string %d of %d", id, idx, len(strs))
		}
		p.funcName[id] = strs[idx]
	}
	return p, nil
}
