package main

import (
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"strings"
)

// The CPU profile runtime/pprof writes is a gzipped protocol buffer
// (github.com/google/pprof/proto/profile.proto). The standard library ships
// the writer but no reader, so this file decodes the few fields the
// per-layer attribution needs: sample stacks and values, locations, and
// function names.

// pbReader walks the fields of one protocol-buffer message.
type pbReader struct {
	b   []byte
	err error
}

func (r *pbReader) varint() uint64 {
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(r.b) == 0 {
			r.err = io.ErrUnexpectedEOF
			return 0
		}
		c := r.b[0]
		r.b = r.b[1:]
		x |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return x
		}
	}
	r.err = fmt.Errorf("profile: varint overflow")
	return 0
}

// next returns the next field's number, wire type, and — for varint fields —
// value, or — for length-delimited fields — payload. ok is false at the end
// of the message or on a decoding error (r.err says which).
func (r *pbReader) next() (num int, wire int, val uint64, payload []byte, ok bool) {
	if len(r.b) == 0 || r.err != nil {
		return 0, 0, 0, nil, false
	}
	key := r.varint()
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		val = r.varint()
	case 1:
		r.skip(8)
	case 2:
		n := r.varint()
		if n > uint64(len(r.b)) {
			r.err = io.ErrUnexpectedEOF
			return 0, 0, 0, nil, false
		}
		payload, r.b = r.b[:n], r.b[n:]
	case 5:
		r.skip(4)
	default:
		r.err = fmt.Errorf("profile: unsupported wire type %d", wire)
	}
	return num, wire, val, payload, r.err == nil
}

func (r *pbReader) skip(n int) {
	if n > len(r.b) {
		r.err = io.ErrUnexpectedEOF
		return
	}
	r.b = r.b[n:]
}

// uints appends a repeated integer field, which the encoder writes either
// packed (one length-delimited payload) or as one varint per element.
func uints(dst []uint64, wire int, val uint64, payload []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, val), nil
	}
	r := pbReader{b: payload}
	for len(r.b) > 0 && r.err == nil {
		dst = append(dst, r.varint())
	}
	return dst, r.err
}

// cpuProfile is the decoded subset of a profile: every sample's stack as
// function names, innermost frame first, and its CPU nanoseconds.
type cpuProfile struct {
	stacks [][]string
	nanos  []int64
}

func decodeProfile(gz []byte) (*cpuProfile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		strs      []string
		valueType []uint64 // string index of each sample value's type
		samples   []sample
		funcName  = map[uint64]uint64{}   // function id -> name string index
		locFuncs  = map[uint64][]uint64{} // location id -> function ids, innermost first
	)
	top := pbReader{b: data}
	for {
		num, wire, _, payload, ok := top.next()
		if !ok {
			break
		}
		if wire != 2 {
			continue
		}
		m := pbReader{b: payload}
		switch num {
		case 1: // sample_type
			for {
				f, _, v, _, ok := m.next()
				if !ok {
					break
				}
				if f == 1 {
					valueType = append(valueType, v)
				}
			}
		case 2: // sample
			var s sample
			for {
				f, w, v, p, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					s.locs, err = uints(s.locs, w, v, p)
				case 2:
					s.vals, err = uints(s.vals, w, v, p)
				}
				if err != nil {
					return nil, err
				}
			}
			samples = append(samples, s)
		case 4: // location
			var id uint64
			var fns []uint64
			for {
				f, _, v, p, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 4: // line
					l := pbReader{b: p}
					for {
						lf, _, lv, _, ok := l.next()
						if !ok {
							break
						}
						if lf == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFuncs[id] = fns
		case 5: // function
			var id, name uint64
			for {
				f, _, v, _, ok := m.next()
				if !ok {
					break
				}
				switch f {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			funcName[id] = name
		case 6: // string_table
			strs = append(strs, string(payload))
		}
		if m.err != nil {
			return nil, fmt.Errorf("profile: %w", m.err)
		}
	}
	if top.err != nil {
		return nil, fmt.Errorf("profile: %w", top.err)
	}
	str := func(i uint64) string {
		if i < uint64(len(strs)) {
			return strs[i]
		}
		return ""
	}
	vi := len(valueType) - 1
	for i, t := range valueType {
		if str(t) == "cpu" {
			vi = i
		}
	}
	p := &cpuProfile{}
	for _, s := range samples {
		if vi < 0 || vi >= len(s.vals) {
			continue
		}
		var stack []string
		for _, l := range s.locs {
			for _, fn := range locFuncs[l] {
				stack = append(stack, str(funcName[fn]))
			}
		}
		p.stacks = append(p.stacks, stack)
		p.nanos = append(p.nanos, int64(s.vals[vi]))
	}
	return p, nil
}

const repoPrefix = "repro/internal/"

// gcFrame reports whether a runtime function does garbage-collection work:
// the background mark workers, mark assists charged to allocating code, and
// the sweeper and scavenger.
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.markroot", "runtime.scanobject",
		"runtime.greyobject", "runtime.bgsweep", "runtime.bgscavenge", "runtime.sweepone"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// switchFrame reports whether a runtime function belongs to the scheduler's
// goroutine switch, which runs on the system stack with no caller above it.
func switchFrame(fn string) bool {
	switch fn {
	case "runtime.mcall", "runtime.park_m", "runtime.schedule", "runtime.goschedImpl", "runtime.findRunnable":
		return true
	}
	return false
}

// sampleLayer names the bucket a stack's CPU time belongs to: "gc" when the
// frames below the nearest repository caller do garbage collection,
// otherwise the layer of that caller, so runtime work on a goroutine's own
// stack is charged to the code that caused it. A stack with no repository
// frame is "goswitch" when it is the scheduler switching goroutines, else
// "other".
func sampleLayer(stack []string) string {
	for _, fn := range stack {
		if gcFrame(fn) {
			return "gc"
		}
		if rest, ok := strings.CutPrefix(fn, repoPrefix); ok {
			pkg, _, _ := strings.Cut(rest, ".")
			pkg, _, _ = strings.Cut(pkg, "/")
			if l, ok := layerOf[pkg]; ok {
				return l
			}
			return "other"
		}
	}
	for _, fn := range stack {
		if switchFrame(fn) {
			return "goswitch"
		}
	}
	return "other"
}

// layerShares attributes a profile's CPU time to hostLayers and returns each
// layer's share together with the total CPU seconds sampled.
func layerShares(p *cpuProfile) (map[string]float64, float64) {
	byLayer := map[string]int64{}
	var total int64
	for i, st := range p.stacks {
		byLayer[sampleLayer(st)] += p.nanos[i]
		total += p.nanos[i]
	}
	shares := make(map[string]float64, len(hostLayers))
	for _, l := range hostLayers {
		if total > 0 {
			shares[l] = float64(byLayer[l]) / float64(total)
		}
	}
	return shares, float64(total) / 1e9
}
