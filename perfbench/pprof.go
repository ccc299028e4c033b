package main

// CPU-profile attribution: a minimal reader for the gzipped
// profile.proto that runtime/pprof writes, and the rule that charges
// each sample to a layer.

import (
	"bytes"
	"compress/gzip"
	"errors"
	"io"
	"runtime/pprof"
	"strings"
)

// Attribution buckets, one per repro/internal package that does work on
// the benchmarked paths; "other" takes the remaining repro packages and
// the benchmark's own code, "runtime" the samples with no repro frame.
var profileBuckets = []string{
	"sim", "event", "driver", "fddi", "ip", "tcp", "udp", "app",
	"chksum", "msg", "xmap", "steer", "workload", "other", "runtime",
}

// cpuProfile is one profiling session.
type cpuProfile struct{ buf bytes.Buffer }

func startProfile() (*cpuProfile, error) {
	p := &cpuProfile{}
	if err := pprof.StartCPUProfile(&p.buf); err != nil {
		return nil, err
	}
	return p, nil
}

// attribution is the profile's CPU time per bucket.
type attribution struct {
	samples int64
	ns      map[string]int64
	totalNs int64
}

// share is the bucket's fraction of all sampled CPU time.
func (a attribution) share(bucket string) float64 {
	if a.totalNs == 0 {
		return 0
	}
	return float64(a.ns[bucket]) / float64(a.totalNs)
}

// stop ends the session and attributes every sample to the innermost
// repro/internal/<pkg> frame of its stack.
func (p *cpuProfile) stop() (attribution, error) {
	pprof.StopCPUProfile()
	zr, err := gzip.NewReader(&p.buf)
	if err != nil {
		return attribution{}, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return attribution{}, err
	}
	return attribute(raw)
}

// bucketOf maps a function name to its attribution bucket ("" when
// the frame is not repro code).
func bucketOf(fn string) string {
	if rest, ok := strings.CutPrefix(fn, "repro/internal/"); ok {
		pkg, _, _ := strings.Cut(rest, ".")
		for _, b := range profileBuckets[:len(profileBuckets)-2] {
			if b == pkg {
				return b
			}
		}
		return "other"
	}
	if strings.HasPrefix(fn, "main.") {
		return "other"
	}
	return ""
}

func attribute(raw []byte) (attribution, error) {
	type sample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []sample
		locFuncs  = map[uint64][]uint64{} // location -> function IDs, innermost first
		funcNames = map[uint64]int64{}    // function -> string index
		strs      []string
		valueIdx  = -1
		typeNames []int64
	)
	err := walk(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 1: // sample_type
			return walk(b, func(f int, v uint64, _ []byte) error {
				if f == 1 {
					typeNames = append(typeNames, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s sample
			err := walk(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, v, bb)
				case 2:
					for _, x := range appendVarints(nil, v, bb) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := walk(b, func(f int, v uint64, bb []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return walk(bb, func(lf int, lv uint64, _ []byte) error {
						if lf == 1 {
							fns = append(fns, lv)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := walk(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return attribution{}, err
	}
	for i, n := range typeNames {
		if n >= 0 && int(n) < len(strs) && strs[n] == "cpu" {
			valueIdx = i
		}
	}
	if valueIdx < 0 {
		return attribution{}, errors.New("perfbench: profile has no cpu sample type")
	}
	a := attribution{ns: map[string]int64{}}
	for _, s := range samples {
		if valueIdx >= len(s.values) {
			continue
		}
		bucket := "runtime"
	stack:
		for _, loc := range s.locs {
			for _, fn := range locFuncs[loc] {
				name := funcNames[fn]
				if name < 0 || int(name) >= len(strs) {
					continue
				}
				if b := bucketOf(strs[name]); b != "" {
					bucket = b
					break stack
				}
			}
		}
		a.samples += s.values[0]
		a.ns[bucket] += s.values[valueIdx]
		a.totalNs += s.values[valueIdx]
	}
	return a, nil
}

// walk calls fn for each field of one protobuf message: varint fields
// pass their value, length-delimited fields their bytes.
func walk(b []byte, fn func(field int, v uint64, bytes []byte) error) error {
	for len(b) > 0 {
		key, n := varint(b)
		if n <= 0 {
			return errors.New("perfbench: bad profile key")
		}
		b = b[n:]
		field, wire := int(key>>3), key&7
		switch wire {
		case 0:
			v, n := varint(b)
			if n <= 0 {
				return errors.New("perfbench: bad profile varint")
			}
			b = b[n:]
			if err := fn(field, v, nil); err != nil {
				return err
			}
		case 2:
			l, n := varint(b)
			if n <= 0 || uint64(len(b)-n) < l {
				return errors.New("perfbench: bad profile length")
			}
			if err := fn(field, 0, b[n:n+int(l)]); err != nil {
				return err
			}
			b = b[n+int(l):]
		case 1:
			if len(b) < 8 {
				return errors.New("perfbench: short fixed64")
			}
			b = b[8:]
		case 5:
			if len(b) < 4 {
				return errors.New("perfbench: short fixed32")
			}
			b = b[4:]
		default:
			return errors.New("perfbench: unknown wire type")
		}
	}
	return nil
}

// appendVarints appends a repeated varint field's values, packed (bb)
// or not (v).
func appendVarints(dst []uint64, v uint64, bb []byte) []uint64 {
	if bb == nil {
		return append(dst, v)
	}
	for len(bb) > 0 {
		x, n := varint(bb)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		bb = bb[n:]
	}
	return dst
}

func varint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}
