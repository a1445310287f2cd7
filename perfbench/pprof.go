package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"strings"
)

// simPackages are the simulator's packages whose CPU share the traced
// run reports, besides "gc".
var simPackages = []string{"browser", "simclock", "qtag", "adtag", "campaign", "beacon", "dom", "geom"}

// profile is the part of a pprof CPU profile the shares need: each
// sample's stack as function names, leaf first.
type profile struct {
	stacks  [][]string
	weights []int64
}

// protobuf wire reading, enough for profile.proto.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	v, n := binary.Uvarint(r.b)
	if n <= 0 {
		r.err = errors.New("pprof: bad varint")
		r.b = nil
		return 0
	}
	r.b = r.b[n:]
	return v
}

// field returns the next field's number, wire type, and its varint value
// or length-delimited bytes.
func (r *pbReader) field() (num int, wt int, v uint64, data []byte) {
	key := r.varint()
	num, wt = int(key>>3), int(key&7)
	switch wt {
	case 0:
		v = r.varint()
	case 1:
		if len(r.b) < 8 {
			r.err = errors.New("pprof: short fixed64")
			r.b = nil
			return
		}
		v, r.b = binary.LittleEndian.Uint64(r.b), r.b[8:]
	case 2:
		n := r.varint()
		if n > uint64(len(r.b)) {
			r.err = errors.New("pprof: short bytes")
			r.b = nil
			return
		}
		data, r.b = r.b[:n], r.b[n:]
	case 5:
		if len(r.b) < 4 {
			r.err = errors.New("pprof: short fixed32")
			r.b = nil
			return
		}
		v, r.b = uint64(binary.LittleEndian.Uint32(r.b)), r.b[4:]
	default:
		r.err = fmt.Errorf("pprof: wire type %d", wt)
		r.b = nil
	}
	return
}

// uints reads a repeated uint64 field that may be packed or not.
func uints(wt int, v uint64, data []byte) []uint64 {
	if wt == 0 {
		return []uint64{v}
	}
	var out []uint64
	r := &pbReader{b: data}
	for len(r.b) > 0 && r.err == nil {
		out = append(out, r.varint())
	}
	return out
}

// parseProfile decodes a gzipped pprof profile.
func parseProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type sample struct {
		locs []uint64
		vals []uint64
	}
	var samples []sample
	locFuncs := map[uint64][]uint64{} // location id → function ids, innermost first
	funcName := map[uint64]uint64{}   // function id → string index
	var strs []string
	r := &pbReader{b: raw}
	for len(r.b) > 0 && r.err == nil {
		num, wt, _, data := r.field()
		switch num {
		case 2: // Sample
			var s sample
			sr := &pbReader{b: data}
			for len(sr.b) > 0 && sr.err == nil {
				n, w, v, d := sr.field()
				switch n {
				case 1:
					s.locs = append(s.locs, uints(w, v, d)...)
				case 2:
					s.vals = append(s.vals, uints(w, v, d)...)
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			lr := &pbReader{b: data}
			for len(lr.b) > 0 && lr.err == nil {
				n, _, v, d := lr.field()
				switch n {
				case 1:
					id = v
				case 4: // Line
					ln := &pbReader{b: d}
					for len(ln.b) > 0 && ln.err == nil {
						if m, _, fv, _ := ln.field(); m == 1 {
							fns = append(fns, fv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // Function
			var id, name uint64
			fr := &pbReader{b: data}
			for len(fr.b) > 0 && fr.err == nil {
				n, _, v, _ := fr.field()
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6:
			if wt == 2 {
				strs = append(strs, string(data))
			}
		}
	}
	if r.err != nil {
		return nil, r.err
	}
	p := &profile{}
	for _, s := range samples {
		var stack []string
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				if idx := funcName[fn]; idx < uint64(len(strs)) {
					stack = append(stack, strs[idx])
				}
			}
		}
		var w int64 = 1
		if len(s.vals) > 0 {
			w = int64(s.vals[0])
		}
		p.stacks = append(p.stacks, stack)
		p.weights = append(p.weights, w)
	}
	return p, nil
}

// packageOf returns the last path element of a function's package:
// "qtag/internal/browser.(*Page).frame" → "browser"; "runtime.mallocgc"
// → "runtime".
func packageOf(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	rest := fn[slash+1:]
	if dot := strings.IndexByte(rest, '.'); dot >= 0 {
		rest = rest[:dot]
	}
	return rest
}

func isGC(fn string) bool {
	return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" || fn == "runtime.bgscavenge"
}

// cpuShares groups samples by package: a sample in garbage collection
// counts as "gc"; any other counts for the innermost frame that belongs
// to a repository package in simPackages, and as "other" when none does.
func (p *profile) cpuShares() map[string]float64 {
	counts := map[string]int64{}
	var total int64
	tracked := map[string]bool{}
	for _, s := range simPackages {
		tracked[s] = true
	}
	for i, stack := range p.stacks {
		cat := "other"
		for _, fn := range stack {
			if isGC(fn) {
				cat = "gc"
				break
			}
		}
		if cat == "other" {
			for _, fn := range stack {
				if strings.HasPrefix(fn, "qtag/internal/") && tracked[packageOf(fn)] {
					cat = packageOf(fn)
					break
				}
			}
		}
		counts[cat] += p.weights[i]
		total += p.weights[i]
	}
	shares := map[string]float64{}
	for k, v := range counts {
		if total > 0 {
			shares[k] = float64(v) / float64(total)
		}
	}
	return shares
}
