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
	"unicode/utf8"

	"abft/internal/csr"
)

// Read parses a MatrixMarket coordinate stream into an unprotected CSR
// matrix. Real and integer fields are accepted; pattern entries get
// value 1. Symmetric matrices are expanded to general storage.
func Read(r io.Reader) (*csr.Matrix, error) { return read(r, 0) }

// ReadStringLimit is ReadString refusing a size line that declares more
// than maxDim rows or columns before anything of that size is
// allocated: the bound a server puts on what a short document may ask
// it to build.
func ReadStringLimit(s string, maxDim int) (*csr.Matrix, error) {
	return read(strings.NewReader(s), maxDim)
}

// read is Read with ReadStringLimit's bound; maxDim 0 is none.
func read(r io.Reader, maxDim int) (*csr.Matrix, error) {
	sc := bufio.NewScanner(r)
	// Lines of up to 1 MiB; the buffer starts small and grows to that
	// only for a line that needs it.
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	if !sc.Scan() {
		return nil, fmt.Errorf("mm: empty MatrixMarket input")
	}
	header := strings.Fields(strings.ToLower(sc.Text()))
	if len(header) < 4 || header[0] != "%%matrixmarket" || header[1] != "matrix" {
		return nil, fmt.Errorf("mm: not a MatrixMarket file: %q", sc.Text())
	}
	if header[2] != "coordinate" {
		return nil, fmt.Errorf("mm: only coordinate format supported, got %q", header[2])
	}
	field := header[3]
	symmetric := false
	if len(header) > 4 {
		switch header[4] {
		case "general":
		case "symmetric":
			symmetric = true
		default:
			return nil, fmt.Errorf("mm: unsupported symmetry %q", header[4])
		}
	}
	switch field {
	case "real", "integer", "pattern":
	default:
		return nil, fmt.Errorf("mm: unsupported field type %q", field)
	}

	// Skip comments, read the size line.
	var rows, cols, nnz int
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		if _, err := fmt.Sscan(string(line), &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("mm: bad size line %q: %w", line, err)
		}
		if nnz < 0 {
			return nil, fmt.Errorf("mm: bad size line %q: negative entry count", line)
		}
		if maxDim > 0 && (rows > maxDim || cols > maxDim) {
			return nil, fmt.Errorf("mm: size line declares %dx%d, over the limit of %d rows or columns", rows, cols, maxDim)
		}
		break
	}
	// The declared count sizes the slice only up to a bound, so a short
	// document cannot claim gigabytes; past it the entries that actually
	// arrive grow it.
	entries := make([]csr.Entry, 0, min(nnz, 1<<20))
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 || line[0] == '%' {
			continue
		}
		// Two or three fields, cut where they lie: no string per line, no
		// slice of fields.
		var f [3][]byte
		n := cutFields(line, f[:])
		if n < 0 {
			n = copy(f[:], bytes.Fields(line))
		}
		if n < 2 {
			return nil, fmt.Errorf("mm: bad entry line %q", line)
		}
		row, err := strconv.Atoi(string(f[0]))
		if err != nil {
			return nil, fmt.Errorf("mm: bad row in %q: %w", line, err)
		}
		col, err := strconv.Atoi(string(f[1]))
		if err != nil {
			return nil, fmt.Errorf("mm: bad col in %q: %w", line, err)
		}
		val := 1.0
		if field != "pattern" {
			if n < 3 {
				return nil, fmt.Errorf("mm: missing value in %q", line)
			}
			val, err = strconv.ParseFloat(string(f[2]), 64)
			if err != nil {
				return nil, fmt.Errorf("mm: bad value in %q: %w", line, err)
			}
		}
		entries = append(entries, csr.Entry{Row: row - 1, Col: col - 1, Val: val})
		if symmetric && row != col {
			entries = append(entries, csr.Entry{Row: col - 1, Col: row - 1, Val: val})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) < nnz {
		return nil, fmt.Errorf("mm: expected %d entries, found %d", nnz, len(entries))
	}
	return csr.New(rows, cols, entries)
}

// cutFields stores the leading whitespace-separated fields of an ASCII
// line in f, as many as fit, and returns how many the line has (capped
// at len(f)). It returns -1 on a non-ASCII byte: whitespace is Unicode's
// in this format's accepted language (strings.Fields), so such a line
// goes through bytes.Fields.
func cutFields(line []byte, f [][]byte) int {
	n, start := 0, -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			return -1
		case c == ' ' || '\t' <= c && c <= '\r':
			if start >= 0 && n < len(f) {
				f[n] = line[start:i]
				n++
			}
			start = -1
		case start < 0:
			start = i
		}
	}
	if start >= 0 && n < len(f) {
		f[n] = line[start:]
		n++
	}
	return n
}

// ReadString parses a MatrixMarket document held in memory, the form
// solve requests carry it in.
func ReadString(s string) (*csr.Matrix, error) {
	return Read(strings.NewReader(s))
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
// general), with enough precision to round-trip float64 exactly.
func Write(w io.Writer, m *csr.Matrix) error {
	bw := bufio.NewWriter(w)
	if _, err := fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n"); err != nil {
		return err
	}
	if _, err := fmt.Fprintf(bw, "%d %d %d\n", m.Rows(), m.Cols32(), m.NNZ()); err != nil {
		return err
	}
	for r := 0; r < m.Rows(); r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			// MatrixMarket indices are 1-based.
			if _, err := fmt.Fprintf(bw, "%d %d %.17g\n", r+1, m.Cols[k]+1, m.Vals[k]); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// WriteFile writes the matrix to path in MatrixMarket format.
func WriteFile(path string, m *csr.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := Write(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
