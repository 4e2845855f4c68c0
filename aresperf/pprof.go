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

// A minimal reader for the gzipped profile.proto that runtime/pprof
// writes: just enough to walk each CPU sample's stack by function name and
// file. The module takes no dependencies, so this replaces
// github.com/google/pprof/profile.

// cpuShares is CPU time split by the categories the benchmark reports.
// A sample counts toward every category with a frame on its stack.
type cpuShares struct {
	total    int64
	category map[string]int64
}

// cpuCategories decide which stack frames count toward which category.
var cpuCategories = map[string]func(fn, file string) bool{
	"codec": func(fn, _ string) bool {
		return strings.HasPrefix(fn, "encoding/gob.") ||
			strings.HasPrefix(fn, "github.com/ares-storage/ares/internal/transport.Marshal") ||
			strings.HasPrefix(fn, "github.com/ares-storage/ares/internal/transport.Unmarshal")
	},
	"erasure": func(fn, _ string) bool {
		return strings.HasPrefix(fn, "github.com/ares-storage/ares/internal/erasure.") ||
			strings.HasPrefix(fn, "github.com/ares-storage/ares/internal/gf256.")
	},
	"wal": func(_, file string) bool { return strings.HasSuffix(file, "internal/keystate/wal.go") },
	"gc": func(fn, _ string) bool {
		return strings.HasPrefix(fn, "runtime.gc") || fn == "runtime.bgsweep" ||
			fn == "runtime.sweepone" || fn == "runtime.bgscavenge"
	},
}

func (c *cpuShares) frac(category string) float64 {
	if c.total == 0 {
		return 0
	}
	return float64(c.category[category]) / float64(c.total)
}

// addProfile folds one gzipped CPU profile into c, weighting each sample
// by its CPU nanoseconds (the profile's last sample value).
func (c *cpuShares) addProfile(gz []byte) error {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return fmt.Errorf("profile: %w", err)
	}
	type fnInfo struct{ name, file int64 }
	var (
		strs    []string
		funcs   = map[uint64]fnInfo{}
		locs    = map[uint64][]uint64{} // location id -> function ids, inlined frames included
		samples [][]byte
	)
	err = protoFields(raw, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			samples = append(samples, b)
		case 4: // location
			var id uint64
			var fns []uint64
			err := protoFields(b, func(f, _ int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return protoFields(b, func(f, _ int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locs[id] = fns
			return err
		case 5: // function
			var id uint64
			var fi fnInfo
			err := protoFields(b, func(f, _ int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					fi.name = int64(v)
				case 4:
					fi.file = int64(v)
				}
				return nil
			})
			funcs[id] = fi
			return err
		case 6: // string table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return err
	}
	str := func(i int64) string {
		if i < 0 || int(i) >= len(strs) {
			return ""
		}
		return strs[i]
	}
	if c.category == nil {
		c.category = make(map[string]int64)
	}
	for _, s := range samples {
		var locIDs, values []uint64
		err := protoFields(s, func(f, wire int, v uint64, b []byte) error {
			var dst *[]uint64
			switch f {
			case 1:
				dst = &locIDs
			case 2:
				dst = &values
			default:
				return nil
			}
			if wire == wireBytes { // packed
				return unpackVarints(b, dst)
			}
			*dst = append(*dst, v)
			return nil
		})
		if err != nil {
			return err
		}
		if len(values) == 0 {
			continue
		}
		weight := int64(values[len(values)-1])
		c.total += weight
		for name, match := range cpuCategories {
		stack:
			for _, l := range locIDs {
				for _, f := range locs[l] {
					fi := funcs[f]
					if match(str(fi.name), str(fi.file)) {
						c.category[name] += weight
						break stack
					}
				}
			}
		}
	}
	return nil
}

const (
	wireVarint = 0
	wire64     = 1
	wireBytes  = 2
	wire32     = 5
)

var errProto = errors.New("profile: malformed protobuf")

// protoFields calls fn for each field of one protobuf message: v holds a
// varint or fixed-width value, b a length-delimited one.
func protoFields(msg []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errProto
		}
		msg = msg[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case wireVarint:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errProto
			}
			msg = msg[n:]
		case wire64:
			if len(msg) < 8 {
				return errProto
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case wire32:
			if len(msg) < 4 {
				return errProto
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		case wireBytes:
			l, n := binary.Uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errProto
			}
			b, msg = msg[n:n+int(l)], msg[n+int(l):]
		default:
			return errProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

func unpackVarints(b []byte, dst *[]uint64) error {
	for len(b) > 0 {
		v, n := binary.Uvarint(b)
		if n <= 0 {
			return errProto
		}
		*dst = append(*dst, v)
		b = b[n:]
	}
	return nil
}
