package mm

import (
	"bufio"
	"bytes"
	"compress/gzip"
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
	if err := WriteFile(path, src); err != nil {
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
// language and the error texts Read must keep.
func readReference(r io.Reader) (*csr.Matrix, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
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
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
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
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(entries) < nnz {
		return nil, fmt.Errorf("mm: expected %d entries, found %d", nnz, len(entries))
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

// checkRead holds Read to readReference on one document: the same
// verdict, the same error text, the same matrix bit for bit — and what
// is accepted survives Write and a second Read.
func checkRead(t *testing.T, doc string) {
	t.Helper()
	rows, cols, nnz, sized := declaredSize(doc)
	if sized && (rows > 1<<12 || cols > 1<<12 || nnz > 1<<16) {
		t.Skip("declared dimensions too large to allocate in a test")
	}
	got, err := ReadString(doc)
	if sized && nnz < 0 {
		// The reference panics sizing a slice; Read refuses (unless the
		// header already failed).
		if err == nil {
			t.Fatalf("negative entry count accepted: %q", doc)
		}
		return
	}
	want, wantErr := readReference(strings.NewReader(doc))
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("Read: %v, reference: %v, on %q", err, wantErr, doc)
	}
	if err != nil {
		return
	}
	assertSameMatrix(t, got, want)
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
}

func TestReadKeepsItsLanguage(t *testing.T) {
	for _, doc := range mmSeeds {
		t.Run("", func(t *testing.T) { checkRead(t, doc) })
	}
	// A line longer than the starting buffer still reads; one past the
	// 1 MiB cap still fails the way it did.
	long := "%%MatrixMarket matrix coordinate real general\n1 1 1\n1 1 2" + strings.Repeat(" ", 200<<10) + "\n"
	checkRead(t, long)
	checkRead(t, strings.Replace(long, " ", strings.Repeat(" ", 1<<20), 1))
}

// TestReadAllocatesPerDocument: no allocation per entry line (csr.New
// makes one per row, sorting it).
func TestReadAllocatesPerDocument(t *testing.T) {
	const rows = 32 * 32
	var doc bytes.Buffer
	if err := Write(&doc, csr.Laplacian2D(32, 32)); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Read(bytes.NewReader(doc.Bytes())); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > rows+40 {
		t.Fatalf("%v allocations reading a %d-row, %d-line document", allocs, rows, 5*rows)
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
