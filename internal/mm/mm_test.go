package mm

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"abft/internal/csr"
)

func randomTestMatrix(t *testing.T, rng *rand.Rand, rows, cols, n int) *csr.Matrix {
	t.Helper()
	entries := make([]csr.Entry, n)
	seen := map[[2]int]bool{}
	for i := range entries {
		for {
			r, c := rng.Intn(rows), rng.Intn(cols)
			if !seen[[2]int{r, c}] {
				seen[[2]int{r, c}] = true
				entries[i] = csr.Entry{Row: r, Col: c, Val: rng.NormFloat64()}
				break
			}
		}
	}
	m, err := csr.New(rows, cols, entries)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func assertSameMatrix(t *testing.T, a, b *csr.Matrix) {
	t.Helper()
	if a.Rows() != b.Rows() || a.Cols32() != b.Cols32() || a.NNZ() != b.NNZ() {
		t.Fatalf("dims differ: %dx%d/%d vs %dx%d/%d",
			a.Rows(), a.Cols32(), a.NNZ(), b.Rows(), b.Cols32(), b.NNZ())
	}
	for i := range a.RowPtr {
		if a.RowPtr[i] != b.RowPtr[i] {
			t.Fatalf("rowptr[%d] differs", i)
		}
	}
	for i := range a.Cols {
		// Values as bit patterns: NaN equals itself, -0 is not 0.
		if a.Cols[i] != b.Cols[i] || math.Float64bits(a.Vals[i]) != math.Float64bits(b.Vals[i]) {
			t.Fatalf("entry %d differs: (%d,%g) vs (%d,%g)",
				i, a.Cols[i], a.Vals[i], b.Cols[i], b.Vals[i])
		}
	}
}

func TestRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	src := randomTestMatrix(t, rng, 13, 9, 40)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, src, back)
}

func TestLaplacianRoundTrip(t *testing.T) {
	src := csr.Laplacian2D(6, 5)
	var buf bytes.Buffer
	if err := Write(&buf, src); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, src, back)
}

func TestSymmetricExpansion(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate real symmetric
% a comment
3 3 4
1 1 2.0
2 1 -1.0
3 2 -1.0
3 3 2.0
`
	m, err := ReadString(in)
	if err != nil {
		t.Fatal(err)
	}
	if m.NNZ() != 6 { // two off-diagonal entries mirrored
		t.Fatalf("nnz %d want 6", m.NNZ())
	}
	if !m.IsSymmetric(0) {
		t.Fatal("expanded matrix not symmetric")
	}
}

func TestPattern(t *testing.T) {
	in := `%%MatrixMarket matrix coordinate pattern general
2 2 2
1 1
2 2
`
	m, err := ReadString(in)
	if err != nil {
		t.Fatal(err)
	}
	if m.Vals[0] != 1 || m.Vals[1] != 1 {
		t.Fatal("pattern entries should have value 1")
	}
}

func TestErrors(t *testing.T) {
	cases := []string{
		"",
		"hello world",
		"%%MatrixMarket matrix array real general\n2 2 4\n",
		"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
		"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
		"%%MatrixMarket matrix coordinate real general\nnot a size line\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1.0\n", // short
		"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 y 1.0\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 z\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
		"%%MatrixMarket matrix coordinate real general\n2 2 1\n5 5 1.0\n", // out of range
	}
	for i, in := range cases {
		if _, err := ReadString(in); err == nil {
			t.Errorf("case %d accepted:\n%s", i, in)
		}
	}
}

func TestReadWriteFile(t *testing.T) {
	dir := t.TempDir()
	src := csr.Laplacian2D(4, 4)
	path := filepath.Join(dir, "lap.mtx")
	var doc bytes.Buffer
	if err := Write(&doc, src); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, doc.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, src, back)

	if _, err := ReadFile(filepath.Join(dir, "missing.mtx")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestReadFileGzip(t *testing.T) {
	dir := t.TempDir()
	src := csr.Laplacian2D(5, 3)
	var plain bytes.Buffer
	if err := Write(&plain, src); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "lap.mtx.gz")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	gz := gzip.NewWriter(f)
	if _, err := gz.Write(plain.Bytes()); err != nil {
		t.Fatal(err)
	}
	if err := gz.Close(); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	back, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	assertSameMatrix(t, src, back)

	// A .gz suffix with non-gzip bytes must fail loudly, not parse.
	bad := filepath.Join(dir, "bad.mtx.gz")
	if err := os.WriteFile(bad, plain.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(bad); err == nil {
		t.Fatal("plain text with .gz suffix accepted")
	}
}

// readReference is Read as it stood before it stopped allocating per
// line (a string per line, a slice of fields per entry): the accepted
// language and the error texts Read must keep. The one change since is
// the count check, which counts entry lines: a symmetric document's
// mirrored entries once made up for lines it lacked
// (TestTruncatedSymmetricRejected), and a line over the 1 MiB limit,
// which reports the limit wherever it is: a first line over it was once
// reported as empty input.
func readReference(r io.Reader) (*csr.Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if sc.Err() == bufio.ErrTooLong {
			return nil, errLongLine
		}
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
	var rows, cols, nnz int
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if _, err := fmt.Sscan(line, &rows, &cols, &nnz); err != nil {
			return nil, fmt.Errorf("mm: bad size line %q: %w", line, err)
		}
		break
	}
	var entries []csr.Entry
	found := 0
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		found++
		f := strings.Fields(line)
		if len(f) < 2 {
			return nil, fmt.Errorf("mm: bad entry line %q", line)
		}
		row, err := strconv.Atoi(f[0])
		if err != nil {
			return nil, fmt.Errorf("mm: bad row in %q: %w", line, err)
		}
		col, err := strconv.Atoi(f[1])
		if err != nil {
			return nil, fmt.Errorf("mm: bad col in %q: %w", line, err)
		}
		val := 1.0
		if field != "pattern" {
			if len(f) < 3 {
				return nil, fmt.Errorf("mm: missing value in %q", line)
			}
			val, err = strconv.ParseFloat(f[2], 64)
			if err != nil {
				return nil, fmt.Errorf("mm: bad value in %q: %w", line, err)
			}
		}
		entries = append(entries, csr.Entry{Row: row - 1, Col: col - 1, Val: val})
		if symmetric && row != col {
			entries = append(entries, csr.Entry{Row: col - 1, Col: row - 1, Val: val})
		}
	}
	if err := sc.Err(); err == bufio.ErrTooLong {
		return nil, errLongLine
	} else if err != nil {
		return nil, err
	}
	if found < nnz {
		return nil, fmt.Errorf("mm: expected %d entries, found %d", nnz, found)
	}
	return csr.New(rows, cols, entries)
}

// declaredSize finds the size line the way Read does.
func declaredSize(doc string) (rows, cols, nnz int, ok bool) {
	lines := strings.Split(doc, "\n")
	for _, line := range lines[min(1, len(lines)):] {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		_, err := fmt.Sscan(line, &rows, &cols, &nnz)
		return rows, cols, nnz, err == nil
	}
	return 0, 0, 0, false
}

// checkRead holds every reader — ReadString's and ReadBytesLimit's
// lines cut in memory, Read's bufio.Scanner — to readReference on one
// document: the same verdict, the same error text, the same matrix bit
// for bit — and what is accepted survives Write and a second Read.
func checkRead(t *testing.T, doc string) {
	t.Helper()
	rows, cols, nnz, sized := declaredSize(doc)
	if sized && (rows > 1<<12 || cols > 1<<12 || nnz > 1<<16) {
		t.Skip("declared dimensions too large to allocate in a test")
	}
	readers := []struct {
		name string
		read func(string) (*csr.Matrix, error)
	}{
		{"ReadString", ReadString},
		{"ReadBytesLimit", func(s string) (*csr.Matrix, error) { return ReadBytesLimit([]byte(s), 0) }},
		{"Read", func(s string) (*csr.Matrix, error) { return Read(strings.NewReader(s)) }},
	}
	if sized && nnz < 0 {
		// The reference panics sizing a slice; every reader refuses
		// (unless the header already failed).
		for _, r := range readers {
			if _, err := r.read(doc); err == nil {
				t.Fatalf("%s: negative entry count accepted: %q", r.name, doc)
			}
		}
		return
	}
	want, wantErr := readReference(strings.NewReader(doc))
	var got *csr.Matrix
	for _, r := range readers {
		m, err := r.read(doc)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("%s: %v, reference: %v, on %q", r.name, err, wantErr, doc)
		}
		if err == nil {
			assertSameMatrix(t, m, want)
			got = m
		}
	}
	if got == nil {
		return
	}
	var out bytes.Buffer
	if err := Write(&out, got); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&out)
	if err != nil {
		t.Fatalf("re-reading what Write wrote: %v", err)
	}
	assertSameMatrix(t, back, got)
}

// mmSeeds are documents on both sides of the accepted language.
var mmSeeds = []string{
	"%%MatrixMarket matrix coordinate real general\n2 2 3\n1 1 4\n1 2 -1\n2 2 4\n",
	"%%MatrixMarket matrix coordinate real symmetric\n% comment\n\n3 3 3\n1 1 2\n2 1 -1\n3 3 2\n",
	"%%MatrixMarket matrix coordinate pattern general\n2 2 2\n1 1\n2 2 ignored\n",
	"%%MATRIXMARKET MATRIX COORDINATE INTEGER GENERAL\r\n2 2 1\r\n 2\t2   7   trailing fields\r\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 NaN\n2 2 -0\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 +Inf\n2 2 0x1p-2\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1\u00a01\u00a02.5\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5\u00a0x\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2.5\u2003x\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 \xff\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 1\n1 1 2\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 -1\n1 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 99999999999\n1 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n0 0 0\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n0 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\nx 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 99999999999999999999 1\n",
	"%%MatrixMarket matrix coordinate real general\n2 2\n1 1 1\n",
	"%%MatrixMarket matrix coordinate real general\n",
	"%%MatrixMarket matrix array real general\n2 2 4\n",
	"%%MatrixMarket matrix coordinate complex general\n1 1 1\n1 1 1 0\n",
	"%%MatrixMarket matrix coordinate real hermitian\n1 1 1\n1 1 1\n",
	"hello world",
	"",
	// Added after the list above; appended so earlier seeds keep their
	// subtest numbers.
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 999999999999999\n1 2 -9999999999999999\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 1e3 %\n1 2 -\n",
	"%%MatrixMarket matrix coordinate real general\n2 2 2\n000000000000000001 1 1\n2 0000000000000000002 -1\n",
	"%%MatrixMarket matrix coordinate real general\n1 1 1\n+1 1 1\n",
	"%%MatrixMarket matrix coordinate pattern symmetric\n3 3 2\n2 1\t\n3\t2 x\n",
	"%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n2 1 -1\n3 2 -1\n",
}

func TestReadKeepsItsLanguage(t *testing.T) {
	for _, doc := range mmSeeds {
		t.Run("", func(t *testing.T) { checkRead(t, doc) })
	}
	// A line longer than the starting buffer still reads; one past the
	// 1 MiB cap fails naming the limit.
	long := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2" + strings.Repeat(" ", 200<<10) + "\n"
	checkRead(t, long)
	checkRead(t, strings.Replace(long, " ", strings.Repeat(" ", 1<<20), 1))
	// Lines cut in memory fail where bufio.Scanner's buffer does: at
	// maxLine bytes before the terminator, an unterminated last line
	// included, and with the error the scan stops at.
	head := "%%MatrixMarket matrix coordinate real general\n1 1 1\n"
	for _, n := range []int{maxLine - 1, maxLine, maxLine + 1} {
		entry := "1 1 2" + strings.Repeat(" ", n-5)
		for _, doc := range []string{
			head + entry + "\n", head + entry, head + entry + "\r\n",
			head[:46] + strings.Repeat("%", n) + "\n1 1 1\n1 1 2\n",
			head[:45] + strings.Repeat(" ", n-45) + "\n1 1 1\n1 1 2\n",
		} {
			checkRead(t, doc)
		}
	}
	// A first line over the limit is a long line, not an empty document.
	long = head[:45] + strings.Repeat(" ", maxLine) + "\n1 1 1\n1 1 2\n"
	for name, read := range map[string]func(string) (*csr.Matrix, error){
		"Read":           func(s string) (*csr.Matrix, error) { return Read(strings.NewReader(s)) },
		"ReadString":     ReadString,
		"ReadBytesLimit": func(s string) (*csr.Matrix, error) { return ReadBytesLimit([]byte(s), 0) },
	} {
		if _, err := read(long); !errors.Is(err, bufio.ErrTooLong) || !strings.Contains(err.Error(), "1 MiB line limit") {
			t.Errorf("%s: first line of %d bytes: %v, want the 1 MiB line limit", name, len(head[:45])+maxLine, err)
		}
	}
}

// TestTruncatedSymmetricRejected: a symmetric document declaring four
// entries but listing two lines is short, although mirroring its two
// off-diagonal lines stores four entries.
func TestTruncatedSymmetricRejected(t *testing.T) {
	doc := "%%MatrixMarket matrix coordinate real symmetric\n3 3 4\n2 1 -1\n3 2 -1\n"
	m, err := ReadString(doc)
	if err == nil {
		t.Fatalf("accepted a %d-entry matrix from two of four declared lines", m.NNZ())
	}
	if want := "mm: expected 4 entries, found 2"; err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
}

// TestReadAllocatesPerDocument: no allocation per line or per row. A
// 32x32 Laplacian's 5,000-line document costs what any document costs:
// the header's fields, fmt.Sscan's state for the size line, Read's
// Scanner and its buffer, the entry list, and csr.New's matrix, which
// sorts no row already in column order.
func TestReadAllocatesPerDocument(t *testing.T) {
	const perDocument = 24
	var doc bytes.Buffer
	if err := Write(&doc, csr.Laplacian2D(32, 32)); err != nil {
		t.Fatal(err)
	}
	text := doc.String()
	for name, read := range map[string]func() (*csr.Matrix, error){
		"Read":       func() (*csr.Matrix, error) { return Read(bytes.NewReader(doc.Bytes())) },
		"ReadString": func() (*csr.Matrix, error) { return ReadString(text) },
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := read(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > perDocument {
			t.Errorf("%s: %v allocations reading a %d-line document, over %d", name, allocs, 5*32*32, perDocument)
		}
	}
}

// writeReference is Write as it stood before it appended its lines
// itself: fmt.Fprintf per line through a bufio.Writer.
func writeReference(w io.Writer, m *csr.Matrix) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "%%%%MatrixMarket matrix coordinate real general\n")
	fmt.Fprintf(bw, "%d %d %d\n", m.Rows(), m.Cols32(), m.NNZ())
	for r := 0; r < m.Rows(); r++ {
		for k := m.RowPtr[r]; k < m.RowPtr[r+1]; k++ {
			fmt.Fprintf(bw, "%d %d %.17g\n", r+1, m.Cols[k]+1, m.Vals[k])
		}
	}
	return bw.Flush()
}

// TestWriteMatchesFprintf: Write's text is the %d %d %.17g lines byte
// for byte — for -0, subnormals, the extremes of float64, integers and
// the infinities — and its allocations do not grow with the matrix.
func TestWriteMatchesFprintf(t *testing.T) {
	vals := []float64{math.Copysign(0, -1), 0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
		1e300, -1e300, math.MaxFloat64, 4, -1, 123456789, 1 << 53, 1e21, 1e-7, 0.1, 1.0 / 3, math.Inf(1), math.Inf(-1)}
	entries := make([]csr.Entry, len(vals))
	for i, v := range vals {
		entries[i] = csr.Entry{Row: i % 5, Col: i, Val: v}
	}
	odd, err := csr.New(5, len(vals), entries)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []*csr.Matrix{odd, csr.Laplacian2D(64, 64)} {
		var got, want bytes.Buffer
		if err := Write(&got, m); err != nil {
			t.Fatal(err)
		}
		if err := writeReference(&want, m); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("Write differs from fmt's %%d %%d %%.17g lines:\n%s\nwant\n%s", got.Bytes()[:min(got.Len(), 400)], want.Bytes()[:min(want.Len(), 400)])
		}
	}
	for _, nx := range []int{8, 64} {
		m := csr.Laplacian2D(nx, nx)
		allocs := testing.AllocsPerRun(5, func() {
			if err := Write(io.Discard, m); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 1 {
			t.Errorf("Write of a %d-entry matrix: %v allocations, want 1 (its buffer)", m.NNZ(), allocs)
		}
	}
}

// FuzzMMRead: Read never panics, agrees with its reference on every
// document, and Write ∘ Read round-trips what it accepts.
func FuzzMMRead(f *testing.F) {
	for _, doc := range mmSeeds {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) { checkRead(t, doc) })
}
