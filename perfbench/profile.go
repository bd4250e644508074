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

// selfShareBuckets are the host.self_share.* metric suffixes: one per
// simulator package, the Go garbage collector, and everything else.
var selfShareBuckets = []string{"sim", "sched", "irq", "kernel", "nvme", "nand", "pcie",
	"fio", "raid", "health", "stats", "rng", "gc", "other"}

// selfShares attributes each CPU-profile sample to one bucket and returns
// the buckets' shares of the profile's total CPU time. A sample belongs
// to gc when a GC worker or assist is on its stack; otherwise to the
// innermost frame in a repro/internal package, so a leaf in the runtime
// or math library (an allocation, a log for a distribution) is charged to
// the simulator package that called it; otherwise to other.
func selfShares(profiles [][]byte) (map[string]float64, error) {
	cpu := map[string]int64{}
	var total int64
	for _, raw := range profiles {
		p, err := parseProfile(raw)
		if err != nil {
			return nil, err
		}
		for _, s := range p.samples {
			b := p.bucket(s.locs)
			cpu[b] += s.value
			total += s.value
		}
	}
	out := make(map[string]float64, len(selfShareBuckets))
	for _, b := range selfShareBuckets {
		out[b] = ratio(float64(cpu[b]), float64(total))
	}
	return out, nil
}

// profile is the part of a pprof profile selfShares needs: per sample,
// its stack (leaf first) and its last value (CPU nanoseconds); per
// location, its function names (innermost inlined frame first).
type profile struct {
	samples []sample
	locFns  map[uint64][]string
}

type sample struct {
	locs  []uint64
	value int64
}

func (p *profile) bucket(locs []uint64) string {
	for _, id := range locs {
		for _, fn := range p.locFns[id] {
			if strings.HasPrefix(fn, "runtime.gcBgMarkWorker") || strings.HasPrefix(fn, "runtime.gcAssistAlloc") ||
				strings.HasPrefix(fn, "runtime.bgsweep") || strings.HasPrefix(fn, "runtime.bgscavenge") {
				return "gc"
			}
		}
	}
	for _, id := range locs {
		for _, fn := range p.locFns[id] {
			if pkg, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
				pkg, _, _ = strings.Cut(pkg, ".")
				for _, b := range selfShareBuckets {
					if b == pkg {
						return b
					}
				}
				return "other"
			}
		}
	}
	return "other"
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof
// writes. Only the fields selfShares reads are kept: Profile.sample (2),
// Profile.location (4), Profile.function (5), Profile.string_table (6);
// Sample.location_id (1) and Sample.value (2); Location.id (1) and
// Location.line (4); Line.function_id (1); Function.id (1) and
// Function.name (2).
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	var strs []string
	fnName := map[uint64]int64{}      // function id → string index
	locLines := map[uint64][]uint64{} // location id → function ids
	p := &profile{locFns: map[uint64][]string{}}
	err = eachField(data, func(f int, v uint64, b []byte) error {
		switch f {
		case 2:
			var s sample
			var vals []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendVarints(&s.locs, v, b)
				case 2:
					return appendVarints(&vals, v, b)
				}
				return nil
			}); err != nil {
				return err
			}
			if len(vals) > 0 {
				s.value = int64(vals[len(vals)-1])
			}
			p.samples = append(p.samples, s)
		case 4:
			var id uint64
			var fns []uint64
			if err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4:
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locLines[id] = fns
		case 5:
			var id uint64
			var name int64
			if err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			}); err != nil {
				return err
			}
			fnName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	for id, fns := range locLines {
		names := make([]string, 0, len(fns))
		for _, fn := range fns {
			if i := fnName[fn]; i >= 0 && i < int64(len(strs)) {
				names = append(names, strs[i])
			}
		}
		p.locFns[id] = names
	}
	return p, nil
}

var errTruncated = errors.New("truncated protobuf")

// eachField walks one protobuf message, calling fn with each field
// number and either its varint value or its length-delimited bytes.
// Fixed-width fields are skipped.
func eachField(data []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errTruncated
		}
		data = data[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errTruncated
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errTruncated
			}
			data = data[8:]
			continue
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errTruncated
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errTruncated
			}
			data = data[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed (b set) or not.
func appendVarints(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errTruncated
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
