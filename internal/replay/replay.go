// Package replay parses external memory-access traces into the
// simulator's operation stream and executes them on the machine layer,
// so workloads captured on real systems (pin tools, Cori's collector,
// Ramulator trace suites) can be driven through the simulated Optane
// testbed with the same determinism guarantees as the built-in
// experiments.
//
// Two line formats are supported, auto-detected by default:
//
// Cori-style (field-based; commas or whitespace separate fields):
//
//	<op> <addr> [size] [thread]
//
// where op is R/L/LD/READ/LOAD (cacheable load), W/S/ST/WRITE/STORE
// (cacheable store), NT/NTS/NTSTORE (non-temporal store), F/FL/FLUSH/
// CLWB (cacheline write-back), CLFLUSH/CLFLUSHOPT (write-back and
// invalidate), SFENCE/FENCE or MFENCE (ordering markers; addr is
// omitted and an optional thread may follow). addr is hexadecimal with
// a 0x prefix or decimal without; size is in bytes (default 64) and is
// expanded into per-cacheline operations; thread is a non-negative
// trace thread ID.
//
// Ramulator-style (two tokens per line):
//
//	<addr> <R|W>        (DRAM request traces)
//	LD|ST <addr>        (load/store instruction traces)
//
// Blank lines and lines starting with '#' or "//" are skipped in both
// formats. Lines are terminated by '\n' with an optional preceding
// '\r', so Unix, DOS, and mixed-ending files all parse.
//
// A Reader streams operations without materializing the file; ReadAll
// collects them. In strict mode any malformed line aborts parsing with
// a ParseError carrying the line number; in lenient mode malformed
// lines are counted in Stats.Skipped and parsing continues. The parser
// never panics on malformed input — overflowing addresses, truncated
// files, absurd sizes, and binary garbage all surface as errors or
// skips.
package replay

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"optanesim/internal/mem"
)

// Format selects the trace line format.
type Format int

const (
	// FormatAuto detects the format from the first data line: lines
	// whose first token is LD/ST or a number are Ramulator-style,
	// anything else Cori-style.
	FormatAuto Format = iota
	// FormatCori is the field-based format: op, addr, [size], [thread].
	FormatCori
	// FormatRamulator is the two-token format: "<addr> R|W" or
	// "LD|ST <addr>".
	FormatRamulator
)

func (f Format) String() string {
	switch f {
	case FormatCori:
		return "cori"
	case FormatRamulator:
		return "ramulator"
	default:
		return "auto"
	}
}

// ParseFormat maps a format name ("auto", "cori", "ramulator") to its
// Format value.
func ParseFormat(s string) (Format, error) {
	switch strings.ToLower(s) {
	case "", "auto":
		return FormatAuto, nil
	case "cori":
		return FormatCori, nil
	case "ramulator", "ram":
		return FormatRamulator, nil
	}
	return FormatAuto, fmt.Errorf("replay: unknown trace format %q", s)
}

// MaxOpSize caps the byte size of a single trace record; larger sizes
// are malformed. It bounds the per-line expansion into cacheline
// operations (16384 lines), so a corrupt size field cannot make the
// executor spin.
const MaxOpSize = 1 << 20

// Op is one parsed trace record, in raw trace coordinates (the
// executor folds addresses into the simulated PM region).
type Op struct {
	// Kind is the machine operation the record executes: OpLoad,
	// OpStore, OpNTStore, OpCLWB, OpCLFlushOpt, OpSFence or OpMFence.
	Kind mem.OpKind
	// Addr is the raw trace address. Zero for fences.
	Addr uint64
	// Size is the access footprint in bytes (1..MaxOpSize); the
	// executor expands it into per-cacheline operations. Zero for
	// fences.
	Size int
	// Thread is the explicit trace thread ID, or -1 when the line did
	// not carry one.
	Thread int
	// SrcLine is the 1-based line number of the record in its file.
	SrcLine int
}

// Options configures parsing.
type Options struct {
	// Format forces a line format; FormatAuto detects it.
	Format Format
	// Strict aborts on the first malformed line instead of skipping it.
	Strict bool
	// MaxOps stops parsing after this many records (0 = unlimited).
	MaxOps int
}

// Stats summarizes a parse.
type Stats struct {
	// Lines is the number of physical lines consumed.
	Lines int
	// Ops is the number of records parsed.
	Ops int
	// Skipped is the number of malformed lines dropped (lenient mode
	// only; strict mode errors instead).
	Skipped int
	// Format is the format actually used (resolved from FormatAuto).
	Format Format
}

// ParseError reports a malformed trace line.
type ParseError struct {
	Line int
	Text string
	Err  error
}

func (e *ParseError) Error() string {
	text := e.Text
	if len(text) > 80 {
		text = text[:80] + "..."
	}
	return fmt.Sprintf("replay: line %d: %v: %q", e.Line, e.Err, text)
}

func (e *ParseError) Unwrap() error { return e.Err }

// maxLineBytes bounds a single trace line; longer lines are a parse
// error (bufio.ErrTooLong), not an allocation hazard.
const maxLineBytes = 1 << 16

// Reader streams operations from a trace. Create with NewReader, call
// Next until io.EOF.
type Reader struct {
	s    *bufio.Scanner
	o    Options
	st   Stats
	done bool
}

// NewReader returns a streaming parser over r.
func NewReader(r io.Reader, o Options) *Reader {
	s := bufio.NewScanner(r)
	s.Buffer(make([]byte, 0, 4096), maxLineBytes)
	return &Reader{s: s, o: o, st: Stats{Format: o.Format}}
}

// Stats returns the counts accumulated so far.
func (r *Reader) Stats() Stats { return r.st }

// Next returns the next record. It returns io.EOF at the end of the
// trace (or once Options.MaxOps records have been returned), and a
// *ParseError in strict mode when a line is malformed.
func (r *Reader) Next() (Op, error) {
	if r.done || (r.o.MaxOps > 0 && r.st.Ops >= r.o.MaxOps) {
		return Op{}, io.EOF
	}
	for r.s.Scan() {
		r.st.Lines++
		line := strings.TrimSuffix(r.s.Text(), "\r")
		trimmed := strings.TrimSpace(line)
		if trimmed == "" || strings.HasPrefix(trimmed, "#") || strings.HasPrefix(trimmed, "//") {
			continue
		}
		if r.st.Format == FormatAuto {
			r.st.Format = detectFormat(trimmed)
		}
		op, err := parseLine(r.st.Format, trimmed)
		if err != nil {
			if r.o.Strict {
				r.done = true
				return Op{}, &ParseError{Line: r.st.Lines, Text: trimmed, Err: err}
			}
			r.st.Skipped++
			continue
		}
		op.SrcLine = r.st.Lines
		r.st.Ops++
		return op, nil
	}
	r.done = true
	if err := r.s.Err(); err != nil {
		return Op{}, fmt.Errorf("replay: reading trace: %w", err)
	}
	return Op{}, io.EOF
}

// ReadAll parses a whole trace, honoring Options the same way a Reader
// does. In lenient mode the error is always nil unless the underlying
// reader fails.
func ReadAll(r io.Reader, o Options) ([]Op, Stats, error) {
	rd := NewReader(r, o)
	var ops []Op
	for {
		op, err := rd.Next()
		if errors.Is(err, io.EOF) {
			return ops, rd.Stats(), nil
		}
		if err != nil {
			return ops, rd.Stats(), err
		}
		ops = append(ops, op)
	}
}

// detectFormat classifies the first data line: Ramulator lines begin
// with LD/ST or a bare address, Cori lines with an op mnemonic.
func detectFormat(line string) Format {
	f := fields(line)
	if len(f) == 0 {
		return FormatCori
	}
	switch strings.ToUpper(f[0]) {
	case "LD", "ST":
		return FormatRamulator
	}
	if _, err := parseAddr(f[0]); err == nil {
		return FormatRamulator
	}
	return FormatCori
}

// fields splits a line on commas and whitespace.
func fields(line string) []string {
	return strings.FieldsFunc(line, func(r rune) bool {
		return r == ',' || r == ' ' || r == '\t'
	})
}

// parseAddr accepts 0x-prefixed hexadecimal or decimal addresses.
func parseAddr(tok string) (uint64, error) {
	if len(tok) > 2 && (tok[:2] == "0x" || tok[:2] == "0X") {
		return strconv.ParseUint(tok[2:], 16, 64)
	}
	return strconv.ParseUint(tok, 10, 64)
}

func parseLine(f Format, line string) (Op, error) {
	if f == FormatRamulator {
		return parseRamulator(line)
	}
	return parseCori(line)
}

var (
	errFields = errors.New("unrecognized fields")
	errOp     = errors.New("unknown op mnemonic")
	errAddr   = errors.New("bad address")
	errSize   = errors.New("bad size")
	errThread = errors.New("bad thread")
)

// parseCori parses "<op> <addr> [size] [thread]" (fences:
// "<fence> [thread]").
func parseCori(line string) (Op, error) {
	f := fields(line)
	if len(f) == 0 {
		return Op{}, errFields
	}
	op := Op{Size: 64, Thread: -1}
	switch strings.ToUpper(f[0]) {
	case "R", "L", "LD", "READ", "LOAD":
		op.Kind = mem.OpLoad
	case "W", "S", "ST", "WRITE", "STORE":
		op.Kind = mem.OpStore
	case "NT", "NTS", "NTSTORE":
		op.Kind = mem.OpNTStore
	case "F", "FL", "FLUSH", "CLWB":
		op.Kind = mem.OpCLWB
	case "CLFLUSH", "CLFLUSHOPT":
		op.Kind = mem.OpCLFlushOpt
	case "SFENCE", "FENCE":
		return parseFence(mem.OpSFence, f[1:])
	case "MFENCE":
		return parseFence(mem.OpMFence, f[1:])
	default:
		return Op{}, errOp
	}
	if len(f) < 2 || len(f) > 4 {
		return Op{}, errFields
	}
	addr, err := parseAddr(f[1])
	if err != nil {
		return Op{}, errAddr
	}
	op.Addr = addr
	if len(f) >= 3 {
		size, err := strconv.Atoi(f[2])
		if err != nil || size < 1 || size > MaxOpSize {
			return Op{}, errSize
		}
		op.Size = size
	}
	if len(f) == 4 {
		tid, err := strconv.Atoi(f[3])
		if err != nil || tid < 0 {
			return Op{}, errThread
		}
		op.Thread = tid
	}
	return op, nil
}

// parseFence parses the optional thread field of a fence marker.
func parseFence(kind mem.OpKind, rest []string) (Op, error) {
	op := Op{Kind: kind, Thread: -1}
	switch len(rest) {
	case 0:
		return op, nil
	case 1:
		tid, err := strconv.Atoi(rest[0])
		if err != nil || tid < 0 {
			return Op{}, errThread
		}
		op.Thread = tid
		return op, nil
	}
	return Op{}, errFields
}

// parseRamulator parses "<addr> R|W" and "LD|ST <addr>".
func parseRamulator(line string) (Op, error) {
	f := fields(line)
	if len(f) != 2 {
		return Op{}, errFields
	}
	op := Op{Size: 64, Thread: -1}
	switch strings.ToUpper(f[0]) {
	case "LD":
		op.Kind = mem.OpLoad
	case "ST":
		op.Kind = mem.OpStore
	default:
		addr, err := parseAddr(f[0])
		if err != nil {
			return Op{}, errAddr
		}
		switch strings.ToUpper(f[1]) {
		case "R":
			op.Kind = mem.OpLoad
		case "W":
			op.Kind = mem.OpStore
		default:
			return Op{}, errOp
		}
		op.Addr = addr
		return op, nil
	}
	addr, err := parseAddr(f[1])
	if err != nil {
		return Op{}, errAddr
	}
	op.Addr = addr
	return op, nil
}
