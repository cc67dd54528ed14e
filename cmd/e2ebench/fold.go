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

// This file folds a runtime/pprof CPU profile into host seconds per
// simulator layer. It decodes the gzip-compressed profile.proto itself
// (only the fields the fold needs), so the benchmark adds no module
// dependency.

// layers lists every layer a sample can be charged to, in report order.
var layers = []string{
	"cache", "prefetch", "imc", "dram", "optane", "xpline", "machine", "sim", "mem",
	"trace", "pmem", "index", "workload", "crash", "fault", "replay", "calib",
	"telemetry", "bench", "rt_alloc", "rt_sched", "rt_other",
}

// pkgLayer maps each optanesim/internal package to its layer.
var pkgLayer = map[string]string{
	"cache": "cache", "prefetch": "prefetch", "imc": "imc", "dram": "dram",
	"optane": "optane", "xpline": "xpline", "machine": "machine", "sim": "sim",
	"mem": "mem", "trace": "trace", "pmem": "pmem",
	"btree": "index", "cceh": "index", "radix": "index", "kvstore": "index",
	"workload": "workload", "crash": "crash", "fault": "fault", "replay": "replay",
	"script": "workload", "calib": "calib", "telemetry": "telemetry",
	"bench": "bench", "runner": "bench", "stats": "bench", "plot": "bench", "simbench": "bench",
}

// Runtime functions are matched by substrings of their name after
// "runtime.". Allocation covers zeroing, malloc, the garbage collector
// and returning memory to the OS; scheduling covers channel operations,
// parking and readying goroutines, the scheduler loop and futexes.
var (
	rtAllocMarks = []string{
		"malloc", "memclr", "newobject", "newarray", "makeslice", "makemap", "growslice",
		"gc", "GC", "mark", "scan", "sweep", "scaveng", "madvise", "sysUnused", "sysUsed",
		"sysAlloc", "sysFree", "sysMap", "sysHugePage", "mheap", "mcentral", "mcache",
		"mspan", "pageAlloc", "heapBits", "wbBuf", "greyobject", "findObject",
		"bulkBarrier", "nextFreeFast", "largeAlloc", "persistentalloc", "fixalloc",
	}
	rtSchedMarks = []string{
		"chansend", "chanrecv", "closechan", "selectgo", "selectnb", "sellock", "selunlock",
		"gopark", "goready", "ready", "schedule", "findRunnable", "findrunnable", "park_m",
		"mcall", "futex", "notesleep", "notewakeup", "notetsleep", "casgstatus",
		"runqget", "runqput", "runqgrab", "runqsteal", "globrunq", "stealWork", "wakep",
		"startm", "stopm", "handoffp", "acquirep", "releasep", "gosched", "Gosched",
		"goexit", "gogo", "execute", "newproc", "lock2", "unlock2", "semacquire",
		"semrelease", "netpoll", "usleep", "osyield", "procyield", "mPark",
		"resetspinning", "checkTimers", "entersyscall", "exitsyscall", "TheWorld",
		"preempt", "sysmon", "retake", "mstart",
	}
)

// frameLayer classifies one function name. ok is false for frames that
// belong to no layer (the standard library, or runtime code that is
// neither allocation nor scheduling); the fold then charges the nearest
// caller that does.
func frameLayer(fn string) (layer string, ok bool) {
	if rest, isRT := strings.CutPrefix(fn, "runtime."); isRT {
		if rest == "_GC" {
			return "rt_alloc", true
		}
		for _, m := range rtAllocMarks {
			if strings.Contains(rest, m) {
				return "rt_alloc", true
			}
		}
		for _, m := range rtSchedMarks {
			if strings.Contains(rest, m) {
				return "rt_sched", true
			}
		}
		return "", false
	}
	if strings.HasPrefix(fn, "main.") {
		return "bench", true // this harness
	}
	pkg := funcPackage(fn)
	if pkg != "optanesim" && !strings.HasPrefix(pkg, "optanesim/") {
		return "", false
	}
	if rest, ok := strings.CutPrefix(pkg, "optanesim/internal/"); ok {
		top, _, _ := strings.Cut(rest, "/")
		if l, ok := pkgLayer[top]; ok {
			return l, true
		}
	}
	return "bench", true // the root package, other commands and new packages
}

// funcPackage returns the import path of a symbol such as
// "optanesim/internal/cache.(*Cache).Insert": everything before the
// first dot after the last slash.
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// sampleLayer walks one stack from the leaf (frames[0]) to the root and
// returns the first frame's layer; a stack with no layer frame is
// runtime overhead of its own (the profiler, signal handling).
func sampleLayer(frames []string) string {
	for _, fn := range frames {
		if l, ok := frameLayer(fn); ok {
			return l
		}
	}
	return "rt_other"
}

// fold is a CPU profile folded by layer.
type fold struct {
	seconds map[string]float64
	total   float64 // seconds over all samples
	samples int64
}

// foldProfile decodes a gzip-compressed pprof CPU profile and charges
// each sample's CPU time to its layer.
func foldProfile(gz []byte) (fold, error) {
	prof, err := decodeProfile(gz)
	if err != nil {
		return fold{}, err
	}
	vi := -1
	for i, t := range prof.sampleTypes {
		if prof.str(t) == "cpu" {
			vi = i
		}
	}
	if vi < 0 {
		return fold{}, errors.New("profile has no cpu sample type")
	}
	f := fold{seconds: make(map[string]float64, len(layers))}
	var frames []string
	for _, s := range prof.samples {
		if vi >= len(s.values) {
			return fold{}, errors.New("profile sample is missing its cpu value")
		}
		frames = frames[:0]
		for _, loc := range s.locations {
			for _, fid := range prof.locations[loc] {
				frames = append(frames, prof.str(prof.functions[fid]))
			}
		}
		sec := float64(s.values[vi]) / 1e9
		f.seconds[sampleLayer(frames)] += sec
		f.total += sec
		f.samples += s.values[0]
	}
	return f, nil
}

// profile holds the parts of profile.proto the fold reads.
type profile struct {
	sampleTypes []int64 // string index of each sample type's name
	samples     []profSample
	locations   map[uint64][]uint64 // location id -> function ids, leaf first (inlining)
	functions   map[uint64]int64    // function id -> name string index
	strings     []string
}

type profSample struct {
	locations []uint64 // leaf first
	values    []int64
}

func (p *profile) str(i int64) string {
	if i < 0 || i >= int64(len(p.strings)) {
		return ""
	}
	return p.strings[i]
}

func decodeProfile(gz []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(gz))
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	p := &profile{locations: make(map[uint64][]uint64), functions: make(map[uint64]int64)}
	err = eachField(raw, func(num int, wire int, v uint64, b []byte) error {
		switch num {
		case 1: // sample_type
			return eachField(b, func(num, _ int, v uint64, _ []byte) error {
				if num == 1 {
					p.sampleTypes = append(p.sampleTypes, int64(v))
				}
				return nil
			})
		case 2: // sample
			var s profSample
			err := eachField(b, func(num, wire int, v uint64, b []byte) error {
				switch num {
				case 1:
					return appendVarints(&s.locations, wire, v, b)
				case 2:
					var vals []uint64
					if err := appendVarints(&vals, wire, v, b); err != nil {
						return err
					}
					for _, x := range vals {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			p.samples = append(p.samples, s)
			return err
		case 4: // location
			var id uint64
			var funcs []uint64
			err := eachField(b, func(num, _ int, v uint64, b []byte) error {
				switch num {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(num, _ int, v uint64, _ []byte) error {
						if num == 1 {
							funcs = append(funcs, v)
						}
						return nil
					})
				}
				return nil
			})
			p.locations[id] = funcs
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(num, _ int, v uint64, _ []byte) error {
				switch num {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			p.functions[id] = name
			return err
		case 6: // string_table
			p.strings = append(p.strings, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("profile: %w", err)
	}
	return p, nil
}

// eachField calls fn for every field of a protobuf message: v holds a
// varint or fixed-width value, b a length-delimited payload.
func eachField(msg []byte, fn func(num, wire int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := binary.Uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		num, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("truncated fixed64 field")
			}
			v, msg = binary.LittleEndian.Uint64(msg), msg[8:]
		case 5:
			if len(msg) < 4 {
				return errors.New("truncated fixed32 field")
			}
			v, msg = uint64(binary.LittleEndian.Uint32(msg)), msg[4:]
		case 2:
			l, n := binary.Uvarint(msg)
			if n <= 0 || l > uint64(len(msg)-n) {
				return errors.New("bad length-delimited field")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(num, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendVarints appends a repeated varint field, packed or not.
func appendVarints(dst *[]uint64, wire int, v uint64, b []byte) error {
	if wire == 0 {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}
