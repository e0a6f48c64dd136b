// Package mm reads and writes Matrix Market files, the interchange
// format of SuiteSparse and most sparse solver test collections. It is
// the ingestion layer of the solve service and the fault-injection
// command: general SPD operators from real collections, not only the
// five-point stencils the repository generates, flow through here into
// the unprotected CSR substrate and from there into any protected
// format.
//
// The reader is deliberately minimal: `%%MatrixMarket matrix coordinate
// real|integer|pattern general|symmetric` headers, 1-based indices,
// comment and blank lines anywhere after the header. Symmetric inputs
// are expanded to general storage (both triangles), which every solver
// and protected format in this repository expects.
//
// Every reader feeds one line grammar: Read from a bufio.Scanner, and
// ReadString, ReadStringLimit and ReadBytesLimit from lines cut where
// they lie in memory, the way the Scanner would cut them. The header
// and the size line are read once per document (strings.Fields,
// fmt.Sscan). An entry line takes a fast path when it is ASCII up to
// the end of the last field its type reads, its indices are runs of
// decimal digits short enough that no int overflows on them (1 to 18
// digits where int is 64 bits, 1 to 9 where it is 32), and its value is
// anything strconv.ParseFloat accepts. Any other line — blank, comment,
// a sign on an index, a non-ASCII byte, a number the fast path cannot
// vouch for — falls back to the general path: Unicode whitespace,
// strconv.Atoi and strconv.ParseFloat. The accepted language and every
// error text are the general path's.
package mm

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unsafe"

	"abft/internal/csr"
)

// Read parses a MatrixMarket coordinate stream into an unprotected CSR
// matrix. Real and integer fields are accepted; pattern entries get
// value 1. Symmetric matrices are expanded to general storage.
func Read(r io.Reader) (*csr.Matrix, error) {
	sc := bufio.NewScanner(r)
	// The buffer starts small and grows to maxLine only for a line that
	// needs it.
	sc.Buffer(make([]byte, 64<<10), maxLine)
	var p parser
	for sc.Scan() {
		if err := p.line(sc.Bytes()); err != nil {
			return nil, err
		}
	}
	err := sc.Err()
	if err == bufio.ErrTooLong {
		err = errLongLine
	}
	return p.finish(err)
}

// ReadString parses a MatrixMarket document held in memory, the form
// solve requests carry it in.
func ReadString(s string) (*csr.Matrix, error) { return ReadStringLimit(s, 0) }

// ReadStringLimit is ReadString refusing a size line that declares more
// than maxDim rows or columns before anything of that size is
// allocated: the bound a server puts on what a short document may ask
// it to build.
func ReadStringLimit(s string, maxDim int) (*csr.Matrix, error) {
	// The parser reads a line and keeps nothing of it, so the string's
	// bytes are viewed, not copied.
	return ReadBytesLimit(unsafe.Slice(unsafe.StringData(s), len(s)), maxDim)
}

// ReadBytesLimit is ReadStringLimit over a document in a byte slice,
// which it neither writes nor keeps. It cuts the lines where they lie,
// exactly as Read's bufio.Scanner cuts a stream of the same bytes: at
// '\n', with one trailing '\r' dropped and a last line kept without
// its terminator, and a line too long ends the document with the
// error Read's Scanner stops at.
func ReadBytesLimit(doc []byte, maxDim int) (*csr.Matrix, error) {
	p := parser{maxDim: maxDim}
	for len(doc) > 0 {
		n, next := len(doc), len(doc)
		if i := bytes.IndexByte(doc, '\n'); i >= 0 {
			n, next = i, i+1
		}
		if n >= maxLine {
			return p.finish(errLongLine)
		}
		line := doc[:n]
		if n > 0 && line[n-1] == '\r' {
			line = line[:n-1]
		}
		if err := p.line(line); err != nil {
			return nil, err
		}
		doc = doc[next:]
	}
	return p.finish(nil)
}

// maxLine bounds a line: one of maxLine bytes or more, its terminator
// not counted, fails with errLongLine.
const maxLine = 1 << 20

// errLongLine is the error of a document with a line of maxLine bytes
// or more, wherever the line is; it wraps bufio.ErrTooLong.
var errLongLine = fmt.Errorf("mm: a line reaches the 1 MiB line limit: %w", bufio.ErrTooLong)

// parser is the one line grammar every reader feeds, a line at a time:
// the header line, the size line, entry lines, then finish's count
// check. maxDim 0 bounds nothing.
type parser struct {
	maxDim          int
	state           int // the line wanted next
	grammar         grammar
	rows, cols, nnz int
	found           int // entry lines
	entries         []csr.Entry
}

const (
	wantHeader = iota
	wantSize
	wantEntries
)

func (p *parser) line(line []byte) error {
	switch p.state {
	case wantEntries:
		e, ok, err := p.grammar.entry(line)
		if err != nil || !ok {
			return err
		}
		p.found++
		p.entries = append(p.entries, e)
		if p.grammar.symmetric && e.Row != e.Col {
			p.entries = append(p.entries, csr.Entry{Row: e.Col, Col: e.Row, Val: e.Val})
		}
	case wantHeader:
		g, err := header(line)
		if err != nil {
			return err
		}
		p.grammar, p.state = g, wantSize
	case wantSize:
		// Skip comments, read the size line.
		line = bytes.TrimSpace(line)
		if len(line) == 0 || line[0] == '%' {
			return nil
		}
		var err error
		if p.rows, p.cols, p.nnz, err = sizeLine(line, p.maxDim); err != nil {
			return err
		}
		// The declared count sizes the slice only up to a bound, so a
		// short document cannot claim gigabytes; past it the entries
		// that actually arrive grow it.
		p.entries, p.state = make([]csr.Entry, 0, min(p.nnz, 1<<20)), wantEntries
	}
	return nil
}

// finish ends a document whose lines stopped with err (nil at its
// end): the count check, then CSR assembly.
func (p *parser) finish(err error) (*csr.Matrix, error) {
	if err != nil {
		return nil, err
	}
	if p.state == wantHeader {
		return nil, fmt.Errorf("mm: empty MatrixMarket input")
	}
	// Entry lines, not stored entries: a symmetric document's mirrored
	// entries do not make up for lines it lacks.
	if p.found < p.nnz {
		return nil, fmt.Errorf("mm: expected %d entries, found %d", p.nnz, p.found)
	}
	return csr.New(p.rows, p.cols, p.entries)
}

// grammar is what a header line says of the entry lines after it.
type grammar struct {
	pattern, symmetric bool
}

// header parses the banner line.
func header(line []byte) (grammar, error) {
	var g grammar
	f := strings.Fields(strings.ToLower(string(line)))
	if len(f) < 4 || f[0] != "%%matrixmarket" || f[1] != "matrix" {
		return g, fmt.Errorf("mm: not a MatrixMarket file: %q", line)
	}
	if f[2] != "coordinate" {
		return g, fmt.Errorf("mm: only coordinate format supported, got %q", f[2])
	}
	if len(f) > 4 {
		switch f[4] {
		case "general":
		case "symmetric":
			g.symmetric = true
		default:
			return g, fmt.Errorf("mm: unsupported symmetry %q", f[4])
		}
	}
	switch f[3] {
	case "real", "integer":
	case "pattern":
		g.pattern = true
	default:
		return g, fmt.Errorf("mm: unsupported field type %q", f[3])
	}
	return g, nil
}

// sizeLine parses the trimmed size line, once per document, with
// fmt.Sscan's integer grammar.
func sizeLine(line []byte, maxDim int) (rows, cols, nnz int, err error) {
	if _, err := fmt.Sscan(string(line), &rows, &cols, &nnz); err != nil {
		return 0, 0, 0, fmt.Errorf("mm: bad size line %q: %w", line, err)
	}
	if nnz < 0 {
		return 0, 0, 0, fmt.Errorf("mm: bad size line %q: negative entry count", line)
	}
	if maxDim > 0 && (rows > maxDim || cols > maxDim) {
		return 0, 0, 0, fmt.Errorf("mm: size line declares %dx%d, over the limit of %d rows or columns", rows, cols, maxDim)
	}
	return rows, cols, nnz, nil
}

// entry parses an entry line into the 0-based entry it lists; ok is
// false for a blank or comment line. The fast path takes the line as it
// lies; wherever it is unsure, the general path below decides, so the
// accepted language and every error text are the general path's.
func (g grammar) entry(raw []byte) (e csr.Entry, ok bool, err error) {
	if e, ok = g.fastEntry(raw); ok {
		return e, true, nil
	}
	line := bytes.TrimSpace(raw)
	if len(line) == 0 || line[0] == '%' {
		return e, false, nil
	}
	var f [3][]byte
	n := copy(f[:], bytes.Fields(line))
	if n < 2 {
		return e, false, fmt.Errorf("mm: bad entry line %q", line)
	}
	row, err := strconv.Atoi(string(f[0]))
	if err != nil {
		return e, false, fmt.Errorf("mm: bad row in %q: %w", line, err)
	}
	col, err := strconv.Atoi(string(f[1]))
	if err != nil {
		return e, false, fmt.Errorf("mm: bad col in %q: %w", line, err)
	}
	val := 1.0
	if !g.pattern {
		if n < 3 {
			return e, false, fmt.Errorf("mm: missing value in %q", line)
		}
		val, err = strconv.ParseFloat(string(f[2]), 64)
		if err != nil {
			return e, false, fmt.Errorf("mm: bad value in %q: %w", line, err)
		}
	}
	return csr.Entry{Row: row - 1, Col: col - 1, Val: val}, true, nil
}

// fastEntry is entry's fast path (the package doc gives its lines).
// What follows the fields the type reads is ignored, as the general
// path ignores it; ok is false wherever the fast path is unsure.
func (g grammar) fastEntry(line []byte) (e csr.Entry, ok bool) {
	row, i, ok := index(line, skipBlanks(line, 0))
	if !ok {
		return e, false
	}
	col, i, ok := index(line, skipBlanks(line, i))
	if !ok {
		return e, false
	}
	e = csr.Entry{Row: row - 1, Col: col - 1, Val: 1}
	if g.pattern {
		return e, true
	}
	// No number holds a non-ASCII byte, so a field with one, which the
	// general path may split at a Unicode blank, goes there.
	start := skipBlanks(line, i)
	for i = start; i < len(line) && !isBlank(line[i]); i++ {
	}
	v, err := strconv.ParseFloat(string(line[start:i]), 64)
	e.Val = v
	return e, err == nil
}

// index reads a run of 1 to maxDigits decimal digits at line[i:] that
// ends the line or is followed by an ASCII blank: no int overflows on
// it, and strconv.Atoi gives the same value.
func index(line []byte, i int) (v, end int, ok bool) {
	start := i
	for ; i < len(line) && '0' <= line[i] && line[i] <= '9'; i++ {
		v = v*10 + int(line[i]-'0')
	}
	n := i - start
	return v, i, n > 0 && n <= maxDigits && (i == len(line) || isBlank(line[i]))
}

// maxDigits is the longest index the fast path reads: 18 digits where
// int is 64 bits, 9 where it is 32.
const maxDigits = 9 + 9*(strconv.IntSize/64)

func isBlank(c byte) bool { return c == ' ' || '\t' <= c && c <= '\r' }

func skipBlanks(line []byte, i int) int {
	for i < len(line) && isBlank(line[i]) {
		i++
	}
	return i
}

// ReadFile reads a MatrixMarket file from disk; a ".gz" suffix selects
// transparent gzip decompression (SuiteSparse distributes matrices
// compressed).
func ReadFile(path string) (*csr.Matrix, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var r io.Reader = f
	if strings.HasSuffix(path, ".gz") {
		gz, err := gzip.NewReader(f)
		if err != nil {
			return nil, fmt.Errorf("mm: %s: %w", path, err)
		}
		defer gz.Close()
		r = gz
	}
	m, err := Read(r)
	if err != nil {
		return nil, fmt.Errorf("mm: %s: %w", path, err)
	}
	return m, nil
}

// Write serialises the matrix in MatrixMarket coordinate format (real,
// general), each value as %.17g, enough to round-trip a float64 exactly.
// Lines are appended into one buffer, which is handed to w whenever it
// is nearly full.
func Write(w io.Writer, m *csr.Matrix) error {
	buf := make([]byte, 0, 16<<10)
	buf = append(buf, "%%MatrixMarket matrix coordinate real general\n"...)
	buf = strconv.AppendInt(buf, int64(m.Rows()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(m.Cols32()), 10)
	buf = append(buf, ' ')
	buf = strconv.AppendInt(buf, int64(m.NNZ()), 10)
	buf = append(buf, '\n')
	for r := 0; r < m.Rows(); r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			// MatrixMarket indices are 1-based.
			buf = strconv.AppendInt(buf, int64(r)+1, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendInt(buf, int64(m.Cols[k])+1, 10)
			buf = append(buf, ' ')
			buf = strconv.AppendFloat(buf, m.Vals[k], 'g', 17, 64)
			buf = append(buf, '\n')
			// An entry line is at most 56 bytes.
			if len(buf) > cap(buf)-64 {
				if _, err := w.Write(buf); err != nil {
					return err
				}
				buf = buf[:0]
			}
		}
	}
	_, err := w.Write(buf)
	return err
}
