package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"strings"
)

// The benchmark splits CPU time by layer from a runtime/pprof CPU
// profile. The standard library writes profiles but cannot read them,
// so this file decodes the few fields of the profile.proto format the
// split needs: each sample's sample count and call stack.

// layerOfPkg maps a portland/internal package to the layer whose
// cpu.<layer> metric its samples feed. Packages absent from the map
// are charged to "other".
var layerOfPkg = map[string]string{
	"sim":       "sim",
	"ldp":       "ldp",
	"pswitch":   "pswitch",
	"flowtable": "flowtable",
	"fabricmgr": "fabricmgr",
	"ctrlnet":   "ctrl",
	"ctrlmsg":   "ctrl",
	"host":      "host",
	"tcplite":   "host",
	"workload":  "workload",
	"metrics":   "workload",
	"faults":    "obs",
	"obs":       "obs",
	"core":      "core",
	"topo":      "core",
	"ether":     "wire",
	"ippkt":     "wire",
	"arppkt":    "wire",
	"dhcppkt":   "wire",
	"grouppkt":  "wire",
	"codec":     "wire",
	"pmac":      "wire",
}

// cpuLayers lists every layer a sample can be charged to, in report
// order. "runtime" holds samples with no portland/internal frame (GC
// workers, the scheduler, the benchmark's own loop).
var cpuLayers = []string{"sim", "ldp", "pswitch", "flowtable", "fabricmgr", "ctrl",
	"host", "workload", "obs", "core", "wire", "other", "runtime"}

// tracerFrame is the benchmark's per-step counter snapshot. Samples
// taken inside it are tracing overhead, not work of any layer, and are
// left out of the split.
const tracerFrame = "main.(*tracer).step"

// layerOf charges one call stack, innermost frame first, to the layer
// of its innermost portland/internal frame, so allocation and map
// iteration count against the layer that asked for them. It returns
// "" for a tracing sample.
func layerOf(stack []string) string {
	for _, fn := range stack {
		if fn == tracerFrame {
			return ""
		}
	}
	for _, fn := range stack {
		rest, ok := strings.CutPrefix(fn, "portland/internal/")
		if !ok {
			continue
		}
		pkg := rest
		if i := strings.IndexAny(rest, "./"); i >= 0 {
			pkg = rest[:i]
		}
		if l, ok := layerOfPkg[pkg]; ok {
			return l
		}
		return "other"
	}
	return "runtime"
}

// cpuSplit accumulates profile samples per layer.
type cpuSplit struct {
	samples map[string]int64
	traced  int64 // samples inside the tracer, excluded from shares
}

func newCPUSplit() *cpuSplit { return &cpuSplit{samples: make(map[string]int64)} }

// addProfile decodes one gzipped CPU profile and charges its samples.
func (c *cpuSplit) addProfile(gz []byte) error {
	stacks, counts, err := decodeProfile(gz)
	if err != nil {
		return err
	}
	for i, st := range stacks {
		if l := layerOf(st); l != "" {
			c.samples[l] += counts[i]
		} else {
			c.traced += counts[i]
		}
	}
	return nil
}

// share returns the fraction of non-tracing samples charged to layer.
func (c *cpuSplit) share(layer string) float64 {
	var total int64
	for _, n := range c.samples {
		total += n
	}
	if total == 0 {
		return 0
	}
	return float64(c.samples[layer]) / float64(total)
}

// total returns every sample taken, tracing included.
func (c *cpuSplit) total() int64 {
	n := c.traced
	for _, v := range c.samples {
		n += v
	}
	return n
}

// pbuf is a cursor over protobuf wire-format bytes.
type pbuf struct {
	b []byte
}

var errTruncated = errors.New("truncated protobuf")

func (p *pbuf) varint() (uint64, error) {
	var v uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if len(p.b) == 0 {
			return 0, errTruncated
		}
		c := p.b[0]
		p.b = p.b[1:]
		v |= uint64(c&0x7f) << shift
		if c < 0x80 {
			return v, nil
		}
	}
	return 0, errors.New("varint overflow")
}

// field reads one field: its number, wire type, and either its varint
// value or its length-delimited payload.
func (p *pbuf) field() (num int, wire int, v uint64, data []byte, err error) {
	key, err := p.varint()
	if err != nil {
		return 0, 0, 0, nil, err
	}
	num, wire = int(key>>3), int(key&7)
	switch wire {
	case 0:
		v, err = p.varint()
	case 1:
		if len(p.b) < 8 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[8:]
	case 2:
		var n uint64
		if n, err = p.varint(); err != nil {
			break
		}
		if n > uint64(len(p.b)) {
			return 0, 0, 0, nil, errTruncated
		}
		data, p.b = p.b[:n], p.b[n:]
	case 5:
		if len(p.b) < 4 {
			return 0, 0, 0, nil, errTruncated
		}
		p.b = p.b[4:]
	default:
		err = fmt.Errorf("unsupported wire type %d", wire)
	}
	return num, wire, v, data, err
}

// uints appends a repeated integer field that may be packed (wire type
// 2) or written one element per field (wire type 0).
func uints(dst []uint64, wire int, v uint64, data []byte) ([]uint64, error) {
	if wire == 0 {
		return append(dst, v), nil
	}
	p := pbuf{data}
	for len(p.b) > 0 {
		x, err := p.varint()
		if err != nil {
			return nil, err
		}
		dst = append(dst, x)
	}
	return dst, nil
}

// decodeProfile returns each sample's function names, innermost
// first (inlined callees before their callers), and its sample count.
func decodeProfile(gz []byte) (stacks [][]string, counts []int64, err error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, fmt.Errorf("profile: %w", err)
	}
	type sample struct{ locs, vals []uint64 }
	var (
		samples []sample
		strs    []string
		locFns  = map[uint64][]uint64{} // location id -> function ids, innermost first
		fnName  = map[uint64]uint64{}   // function id -> string index
	)
	p := pbuf{raw}
	for len(p.b) > 0 {
		num, _, _, data, err := p.field()
		if err != nil {
			return nil, nil, err
		}
		switch num {
		case 2: // Sample
			var s sample
			q := pbuf{data}
			for len(q.b) > 0 {
				n, w, v, d, err := q.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					s.locs, err = uints(s.locs, w, v, d)
				case 2:
					s.vals, err = uints(s.vals, w, v, d)
				}
				if err != nil {
					return nil, nil, err
				}
			}
			samples = append(samples, s)
		case 4: // Location
			var id uint64
			var fns []uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, d, err := q.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					id = v
				case 4: // Line
					r := pbuf{d}
					for len(r.b) > 0 {
						ln, _, lv, _, err := r.field()
						if err != nil {
							return nil, nil, err
						}
						if ln == 1 {
							fns = append(fns, lv)
						}
					}
				}
			}
			locFns[id] = fns
		case 5: // Function
			var id, name uint64
			q := pbuf{data}
			for len(q.b) > 0 {
				n, _, v, _, err := q.field()
				if err != nil {
					return nil, nil, err
				}
				switch n {
				case 1:
					id = v
				case 2:
					name = v
				}
			}
			fnName[id] = name
		case 6: // string_table
			strs = append(strs, string(data))
		}
	}
	for _, s := range samples {
		var st []string
		for _, loc := range s.locs {
			for _, fn := range locFns[loc] {
				if i := fnName[fn]; i < uint64(len(strs)) {
					st = append(st, strs[i])
				}
			}
		}
		var n int64 = 1
		if len(s.vals) > 0 {
			n = int64(s.vals[0])
		}
		stacks = append(stacks, st)
		counts = append(counts, n)
	}
	return stacks, counts, nil
}
