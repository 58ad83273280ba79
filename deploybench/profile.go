package main

import (
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
)

// The traced replica runs the Go CPU profiler and labels its goroutine with
// the open top-level span's name (pprof label "span") for the span's
// duration, so CPU samples taken inside any span carry a label. The share
// of CPU samples without one is the replica CPU no layer span covers.
//
// runtime/pprof writes the profile.proto format, gzipped; cpuCoverage reads
// only what it needs from it — the sample types, the samples' values and
// labels, and the string table — with a minimal protobuf reader.

// cpuCoverage returns the CPU time of all samples of a profile and of the
// samples carrying a "span" label, in nanoseconds.
func cpuCoverage(path string) (total, labeled int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, 0, err
	}
	defer f.Close()
	zr, err := gzip.NewReader(f)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	total, labeled, err = parseCoverage(raw)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: %w", path, err)
	}
	return total, labeled, nil
}

type pbSample struct {
	values    []int64
	labelKeys []int64 // string-table indices of the labels' keys
}

// parseCoverage decodes an uncompressed profile.proto message.
func parseCoverage(raw []byte) (total, labeled int64, err error) {
	var (
		types   []int64 // string-table index of each sample type
		samples []pbSample
		strs    []string
	)
	err = pbFields(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type: ValueType{type = 1}
			var t int64
			err := pbFields(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					t = int64(v)
				}
				return nil
			})
			types = append(types, t)
			return err
		case 2: // sample: {value = 2, label = 3 {key = 1}}
			var s pbSample
			err := pbFields(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 2:
					if b == nil {
						s.values = append(s.values, int64(v))
						return nil
					}
					return pbPacked(b, func(v uint64) { s.values = append(s.values, int64(v)) })
				case 3:
					return pbFields(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							s.labelKeys = append(s.labelKeys, int64(v))
						}
						return nil
					})
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return 0, 0, err
	}
	cpu := -1
	for i, t := range types {
		if t >= 0 && int(t) < len(strs) && strs[t] == "cpu" {
			cpu = i
		}
	}
	if cpu < 0 {
		return 0, 0, errors.New("profile has no cpu sample type")
	}
	for _, s := range samples {
		if cpu >= len(s.values) {
			continue
		}
		total += s.values[cpu]
		for _, k := range s.labelKeys {
			if k >= 0 && int(k) < len(strs) && strs[k] == "span" {
				labeled += s.values[cpu]
				break
			}
		}
	}
	return total, labeled, nil
}

// pbFields calls fn for every field of a protobuf message: varint fields
// with b == nil, length-delimited fields with their bytes. Fixed-width
// fields are skipped.
func pbFields(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := pbVarint(msg)
		if n <= 0 {
			return errors.New("malformed protobuf key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := pbVarint(msg)
			if n <= 0 {
				return errors.New("malformed protobuf varint")
			}
			msg = msg[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 1, 5:
			w := 8
			if wire == 5 {
				w = 4
			}
			if len(msg) < w {
				return errors.New("truncated protobuf fixed field")
			}
			msg = msg[w:]
		case 2:
			l, n := pbVarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("truncated protobuf field")
			}
			b := msg[n : n+int(l)]
			msg = msg[n+int(l):]
			if err := fn(field, 0, b); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unsupported protobuf wire type %d", wire)
		}
	}
	return nil
}

// pbPacked calls fn for every varint of a packed repeated field.
func pbPacked(b []byte, fn func(uint64)) error {
	for len(b) > 0 {
		v, n := pbVarint(b)
		if n <= 0 {
			return errors.New("malformed packed varint")
		}
		fn(v)
		b = b[n:]
	}
	return nil
}

// pbVarint decodes a base-128 varint; n <= 0 reports malformed input.
func pbVarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
