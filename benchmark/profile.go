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

// layerOf maps a firm/internal package to the bucket its self time is
// reported under; a package that is absent goes to "other".
var layerOf = map[string]string{
	"sim": "sim", "app": "app", "cluster": "cluster", "workload": "workload",
	"trace": "trace", "tracedb": "tracedb", "telemetry": "telemetry",
	"detect": "detect", "cpath": "detect", "svm": "detect", "stats": "detect",
	"core": "core", "agent": "core",
	"rl": "rl", "nn": "rl",
	"rollout":  "rollout",
	"injector": "injector", "scenario": "injector",
	"topology": "topology",
	"harness":  "harness", "deploy": "harness", "autoscale": "harness",
}

// bucketOf attributes one CPU sample, given its stack's function names
// leaf first: collector work wherever it runs is runtime.gc, allocation
// under any caller is runtime.malloc, and everything else belongs to the
// leaf function's package — the layer's self time.
func bucketOf(stack []string) string {
	for _, fn := range stack {
		if strings.Contains(fn, "gcBgMarkWorker") || strings.Contains(fn, "gcAssistAlloc") || strings.Contains(fn, "bgsweep") {
			return "runtime.gc_cpu_share"
		}
	}
	for _, fn := range stack {
		if strings.Contains(fn, "mallocgc") {
			return "runtime.malloc_cpu_share"
		}
	}
	if len(stack) == 0 {
		return "other.cpu_share"
	}
	pkg := packageOf(stack[0])
	if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") || strings.HasPrefix(pkg, "internal/runtime/") {
		return "runtime.other_cpu_share"
	}
	if rest, ok := strings.CutPrefix(pkg, "firm/internal/"); ok {
		if layer, ok := layerOf[rest]; ok {
			return layer + ".cpu_share"
		}
	}
	return "other.cpu_share"
}

// packageOf returns the import path of a symbol such as
// "firm/internal/sim.(*Engine).Step" or "sort.pdqsort[go.shape.float64]".
func packageOf(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// cpuShares buckets a runtime/pprof CPU profile into the share of samples
// per layer. Every bucket is present; they sum to 1 unless the profile is
// empty.
func cpuShares(profile []byte) (shares map[string]float64, samples int64, err error) {
	stacks, err := parseProfile(profile)
	if err != nil {
		return nil, 0, err
	}
	counts := map[string]int64{}
	for _, s := range stacks {
		counts[bucketOf(s.funcs)] += s.count
		samples += s.count
	}
	shares = map[string]float64{}
	for _, m := range layerMetrics {
		if strings.HasSuffix(m.Name, "cpu_share") {
			shares[m.Name] = 0
			if samples > 0 {
				shares[m.Name] = float64(counts[m.Name]) / float64(samples)
			}
		}
	}
	return shares, samples, nil
}

// stackSample is one profile sample: its call stack as function names,
// leaf first, and how many times it was seen.
type stackSample struct {
	funcs []string
	count int64
}

// parseProfile decodes the gzipped profile.proto that runtime/pprof writes
// — only the fields needed to name each sample's stack. (The standard
// library's decoder is internal to it.)
func parseProfile(data []byte) ([]stackSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, err
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	type location struct{ funcIDs []uint64 }
	var (
		strs      []string
		funcName  = map[uint64]uint64{} // function id → string-table index
		locations = map[uint64]location{}
		rawSample [][]byte
	)
	// Profile: 2 sample, 4 location, 5 function, 6 string_table.
	err = eachField(raw, func(num int, v uint64, b []byte) error {
		switch num {
		case 2:
			rawSample = append(rawSample, b)
		case 4:
			var id uint64
			var loc location
			// Location: 1 id, 4 line; Line: 1 function_id. Lines run from
			// the innermost inlined call outward.
			if err := eachField(b, func(num int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4:
					return eachField(b, func(num int, v uint64, _ []byte) error {
						if num == 1 {
							loc.funcIDs = append(loc.funcIDs, v)
						}
						return nil
					})
				}
				return nil
			}); err != nil {
				return err
			}
			locations[id] = loc
		case 5:
			var id, name uint64
			// Function: 1 id, 2 name.
			if err := eachField(b, func(num int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = v
				}
				return nil
			}); err != nil {
				return err
			}
			funcName[id] = name
		case 6:
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out := make([]stackSample, 0, len(rawSample))
	for _, b := range rawSample {
		var s stackSample
		var values []uint64
		// Sample: 1 location_id (leaf first), 2 value; value[0] is the
		// sample count.
		var locIDs []uint64
		if err := eachField(b, func(num int, v uint64, b []byte) error {
			switch num {
			case 1:
				locIDs = appendVarints(locIDs, v, b)
			case 2:
				values = appendVarints(values, v, b)
			}
			return nil
		}); err != nil {
			return nil, err
		}
		if len(values) == 0 {
			return nil, errors.New("profile sample without a value")
		}
		s.count = int64(values[0])
		for _, id := range locIDs {
			for _, fid := range locations[id].funcIDs {
				idx := funcName[fid]
				if idx >= uint64(len(strs)) {
					return nil, fmt.Errorf("profile string index %d out of range", idx)
				}
				s.funcs = append(s.funcs, strs[idx])
			}
		}
		out = append(out, s)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and its varint value (wire type 0) or its bytes (wire type 2).
func eachField(msg []byte, fn func(num int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("profile: bad field key")
		}
		msg = msg[n:]
		var v uint64
		var b []byte
		switch key & 7 {
		case 0:
			if v, n = binary.Uvarint(msg); n <= 0 {
				return errors.New("profile: bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("profile: short fixed64")
			}
			msg = msg[8:]
		case 2:
			size, n := binary.Uvarint(msg)
			if n <= 0 || size > uint64(len(msg)-n) {
				return errors.New("profile: bad length")
			}
			b = msg[n : n+int(size)]
			msg = msg[n+int(size):]
		case 5:
			if len(msg) < 4 {
				return errors.New("profile: short fixed32")
			}
			msg = msg[4:]
		default:
			return fmt.Errorf("profile: unsupported wire type %d", key&7)
		}
		if err := fn(int(key>>3), v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated integer field's payload: the packed
// bytes when present, else the single unpacked value.
func appendVarints(dst []uint64, v uint64, packed []byte) []uint64 {
	if packed == nil {
		return append(dst, v)
	}
	for len(packed) > 0 {
		x, n := binary.Uvarint(packed)
		if n <= 0 {
			return dst
		}
		dst = append(dst, x)
		packed = packed[n:]
	}
	return dst
}
