package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"abft/internal/csr"
	"abft/internal/mm"
)

// checkAgainstEncodingJSON holds decodeSolveRequest to its contract on
// one body: it accepts exactly what decodeStrict accepts (a document
// whose quoting is invalid may be refused later, at its unquoting), with
// the same error text, and what it accepts decodes to the same request,
// bit for bit in b, once the lifted document is unquoted back in.
func checkAgainstEncodingJSON(t *testing.T, body []byte) {
	t.Helper()
	var want SolveRequest
	wantErr := decodeStrict(body, &want)
	got, quoted, err := decodeSolveRequest(body)
	if quoted != nil {
		if got.Matrix.MatrixMarket != "" {
			t.Fatalf("document both lifted and decoded: %q", body)
		}
		if json.Unmarshal(quoted, &got.Matrix.MatrixMarket) != nil {
			if err == nil && wantErr == nil {
				t.Fatalf("encoding/json accepted a document the reader lifted and cannot unquote: %q", body)
			}
			return
		}
	}
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("reader error %v, encoding/json error %v, on %q", err, wantErr, body)
	}
	if err != nil {
		return
	}
	if len(got.B) != len(want.B) {
		t.Fatalf("b has %d entries, want %d, on %q", len(got.B), len(want.B), body)
	}
	for i := range want.B {
		if math.Float64bits(got.B[i]) != math.Float64bits(want.B[i]) {
			t.Fatalf("b[%d] = %x, want %x, on %q", i, math.Float64bits(got.B[i]), math.Float64bits(want.B[i]), body)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %+v, want %+v, on %q", got, want, body)
	}
}

// readerSeeds are bodies the reader must agree with encoding/json on:
// the README's examples, every body of the bad-request tables, and the
// shapes that separate a span finder from a JSON parser.
var readerSeeds = []string{
	// README and the validation tables.
	`{"matrix": {"grid": {"nx": 64, "ny": 64}}, "format": "csr", "scheme": "secded64", "rowptr_scheme": "secded64", "solver": "cg", "tol": 1e-10}`,
	`{"matrix": {"grid": {"nx": 8, "ny": 8}}, "scheme": "secded64", "tol": 1e-8}`,
	`{"matrix": {"operator": "3f0c"}, "b": [1, 2.5, -3e2], "wait": true}`,
	`{`,
	`{"matrx": {}}`,
	`{"matrix": {}}`,
	`{"matrix": {"grid": {"nx":4,"ny":4}, "matrix_market": "x"}}`,
	`{"matrix": {"grid": {"nx":4,"ny":4}}, "scheme": "tmr"}`,
	`{"matrix": {"rows": 2, "cols": 3, "entries": [{"row":0,"col":0,"val":1},{"row":1,"col":1,"val":1}]}}`,
	`{"matrix": {"grid": {"nx":4,"ny":4}}, "b": [1,2,3]}`,
	`{"matrix": {"matrix_market": "hello"}}`,
	`{"matrix": {"grid": {"nx":4,"ny":4}}, "reliability": "selective", "solver": "fgmres", "precond": "jacobi"}`,
	`{"matrix": {"grid": {"nx":4,"ny":4}}, "rhs_batch": [[1,2],[3,4]], "b": [1]}`,
	// The document: escapes, a surrogate pair, a quote after backslash runs.
	`{"matrix": {"matrix_market": "%%MatrixMarket matrix coordinate real general\n2 2 2\n1 1 4\n2 2 4\n"}, "b": [1, 2]}`,
	`{"b":[0.5,-0],"matrix":{"matrix_market":"a\"b\\"}}`,
	`{"matrix":{"matrix_market":"a\\\"b\\\\","rows":0}}`,
	`{"matrix":{"matrix_market":"tab\there \ud83d\ude00 😀 é \/ \b\f\r"}}`,
	`{"matrix":{"matrix_market":"bad escape \q"}}`,
	`{"matrix":{"matrix_market":"lone \ud83d surrogate"}}`,
	"{\"matrix\":{\"matrix_market\":\"raw\nnewline\"}}",
	"{\"matrix\":{\"matrix_market\":\"invalid utf8 \xff\xfe\"}}",
	`{"matrix":{"matrix_market":"unterminated}}`,
	`{"matrix":{"matrix_market":""},"b":[1]}`,
	`{"matrix":{"matrix_market":null}}`,
	`{"matrix":{"matrix_market":12}}`,
	// Names that are not byte-for-byte the two lifted keys.
	`{"matrix":{"grid":{"nx":2,"ny":2}},"B":[1,2,3,4]}`,
	`{"b":[1],"B":[2,3]}`,
	`{"B":[2,3],"b":[1]}`,
	`{"b":[1],"b":[2,3]}`,
	`{"b":[1],"b":null}`,
	`{"b":[1,2]}`,
	`{"Matrix":{"matrix_market":"x"}}`,
	`{"matrix":{"matrix_market":"x"},"matrix":{"grid":{"nx":2,"ny":2}}}`,
	`{"matrix":{"matrix_market":"x","MATRIX_MARKET":"y"}}`,
	"{\"matrix\":{\"matrix_mar\u212aet\":\"kelvin\"}}",
	"{\"matrix\":{\"matrix_market\":\"x\",\"matrix_mar\u212aet\":\"kelvin\"}}",
	`{"matrix":{"matrix":{"matrix_market":"nested"}}}`,
	`{"matrix":[{"matrix_market":"x"}]}`,
	`{"matrix":null,"b":null}`,
	// b: the JSON number grammar, not ParseFloat's.
	`{"b":[]}`,
	`{"b":[ ]}`,
	`{"b":[1,]}`,
	`{"b":[,1]}`,
	`{"b":[1 2]}`,
	`{"b":[Inf]}`,
	`{"b":[NaN]}`,
	`{"b":[0x1p-2]}`,
	`{"b":[+1]}`,
	`{"b":[.5]}`,
	`{"b":[1.]}`,
	`{"b":[01]}`,
	`{"b":[-]}`,
	`{"b":[1e]}`,
	`{"b":[1e+]}`,
	`{"b":[1_000]}`,
	`{"b":[1e999]}`,
	`{"b":[-1e999, 1]}`,
	`{"b":[1e-999, -0.0, 0e0, 1E+2, 123456789012345678901234567890]}`,
	`{"b":[[1]]}`,
	`{"b":["1"]}`,
	`{"b":[null]}`,
	`{"b":[true]}`,
	`{"b":[1,2}`,
	`{"b":[1,2]`,
	`{"b":{"0":1}}`,
	`{"b":"[1]"}`,
	// b at the edges of the reader's exact conversion: 2^53 and 2^53+1
	// as integers and as fractions, 22 and 23 fraction digits, 19 and 20
	// significant digits, exponents at and past 10^±22, the smallest
	// subnormal and both zeros.
	`{"b":[9007199254740992, 9007199254740993, -9007199254740993, 0.9007199254740992, 0.9007199254740993]}`,
	`{"b":[0.0000000000000000000001, 0.00000000000000000000001, 0.1234567890123456789012, 0.12345678901234567890123]}`,
	`{"b":[1234567890123456789, 12345678901234567890, 0.1000000000000000000, 0.10000000000000000000, 1.000000000000000000, 1.0000000000000000000]}`,
	`{"b":[0.000123, -0.000000000000000000000000000001, 0.0000000000000000000000000000000000000000000000001e40]}`,
	`{"b":[-0, -0.0e0, 0, 0.0, 0e999, -0e-999, 0.000e+0]}`,
	`{"b":[1e22, 1e23, -1e22, 1e-22, 1e-23, 4.5e21, 9007199254740992e22, 9007199254740993e-22]}`,
	`{"b":[5e-324, 2e-324, 4.9406564584124654e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 1.8e308]}`,
	`{"b":[1E5, 1e+5, 1e-5, 1e00000000000000000000005, 1e-0000000000000000000022, 1e10000000000000000000]}`,
	`{"b":[123456789e-12, 0.5e1, 10e-1, 100000000000000000000000e-24]}`,
	// The two forms clients write a float64 in: shortest and %.17g.
	floatArrayBody(func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }),
	floatArrayBody(func(v float64) string { return fmt.Sprintf("%.17g", v) }),
	// Whitespace everywhere, trailing bytes, not an object.
	" \t\r\n{ \"matrix\" : { \"matrix_market\" : \"x\" , \"rows\" : 0 } , \"b\" : [ 1 , 2 ] , \"tol\" : 1e-4 } \n",
	`{"b":[1]} trailing`,
	`{"b":[1]}{"b":[2]}`,
	`{"b":[1],}`,
	`{"b":[1] "tol":1}`,
	`{"b":[1],"tol":1,"unknown":[{"b":[2]}]}`,
	`{"tol":tru"e,"b":[1]}`,
	`[{"b":[1]}]`,
	`null`,
	`"b"`,
	``,
	`{}`,
}

// floatArrayBody is a request whose b holds values of every magnitude
// from 1e-30 to 1e30, each sign, written by format.
func floatArrayBody(format func(float64) string) string {
	rng := rand.New(rand.NewSource(49))
	body := []byte(`{"matrix":{"operator":"3f0c"},"b":[`)
	for i := 0; i < 96; i++ {
		if i > 0 {
			body = append(body, ',')
		}
		v := (2*rng.Float64() - 1) * math.Pow(10, float64(rng.Intn(61)-30))
		body = append(body, format(v)...)
	}
	return string(append(body, "]}"...))
}

func TestDecodeSolveRequestMatchesEncodingJSON(t *testing.T) {
	for _, seed := range readerSeeds {
		checkAgainstEncodingJSON(t, []byte(seed))
	}
	// The shape the reader exists for lifts both spans.
	body := []byte(`{"matrix":{"matrix_market":"doc\n"},"format":"csr","b":[1,2.5]}`)
	req, quoted, err := decodeSolveRequest(body)
	if err != nil || string(quoted) != `"doc\n"` || req.Matrix.MatrixMarket != "" ||
		!reflect.DeepEqual(req.B, []float64{1, 2.5}) || req.Format != "csr" {
		t.Fatalf("lifted request: %+v, quoted %q, err %v", req, quoted, err)
	}
}

// FuzzDecodeSolveRequest is the differential test: the reader is
// encoding/json with DisallowUnknownFields, only faster.
func FuzzDecodeSolveRequest(f *testing.F) {
	for _, seed := range readerSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstEncodingJSON(t, body)
	})
}

// TestReadNumberMatchesParseFloat sweeps readNumber across the edges of
// its exact conversion — 1 to 21 significant digits, mantissas on both
// sides of 2^53, leading fraction zeros, exponents from -30 to 30 — and
// holds every value to strconv.ParseFloat, bit for bit.
func TestReadNumberMatchesParseFloat(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	check := func(num string) {
		t.Helper()
		want, err := strconv.ParseFloat(num, 64)
		v, end := readNumber([]byte(num+","), 0)
		if err != nil || end != len(num) || math.Float64bits(v) != math.Float64bits(want) {
			t.Fatalf("%s: read %v (%x) to %d, strconv %v (%x), %v", num, v, math.Float64bits(v), end, want, math.Float64bits(want), err)
		}
	}
	for _, mant := range []uint64{1 << 53, 1<<53 - 1, 1<<53 + 1, 1<<53 + 2, 999999999999999999, 9999999999999999999} {
		for exp := -30; exp <= 30; exp++ {
			check(strconv.FormatUint(mant, 10) + "e" + strconv.Itoa(exp))
			check("-0." + strconv.FormatUint(mant, 10) + "e" + strconv.Itoa(exp))
		}
	}
	for digits := 1; digits <= 21; digits++ {
		for range 200 {
			d := make([]byte, digits)
			for i := range d {
				d[i] = byte('0' + rng.Intn(10))
			}
			d[0] = byte('1' + rng.Intn(9))
			point := rng.Intn(digits + 1)
			num := string(d[:point]) + "." + strings.Repeat("0", rng.Intn(4)) + string(d[point:])
			if point == 0 {
				num = "0" + num
			}
			if point == digits {
				num = string(d)
			}
			check(num)
			check("-" + num + "e" + strconv.Itoa(rng.Intn(61)-30))
		}
	}
}

// BenchmarkDecodeSolveRequest reads a request carrying a 4,096-entry b
// of uniform values in [-1, 1), svc_warm's shape, written in the
// shortest form and as %.17g, and reports the time per element of b.
func BenchmarkDecodeSolveRequest(b *testing.B) {
	const n = 4096
	rng := rand.New(rand.NewSource(57))
	vals := make([]float64, n)
	for i := range vals {
		vals[i] = 2*rng.Float64() - 1
	}
	for _, form := range []struct {
		name string
		prec int
	}{{"shortest", -1}, {"17g", 17}} {
		body := []byte(`{"matrix":{"operator":"3f0c"},"format":"csr","b":[`)
		for i, v := range vals {
			if i > 0 {
				body = append(body, ',')
			}
			body = strconv.AppendFloat(body, v, 'g', form.prec, 64)
		}
		body = append(body, "]}"...)
		b.Run(form.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				if req, _, err := decodeSolveRequest(body); err != nil || len(req.B) != n {
					b.Fatalf("%d entries, %v", len(req.B), err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/elem")
		})
	}
}

// checkUnquote holds unquoteDocument to its contract on one span: what
// it unquotes, json.Unmarshal accepts and unquotes to the same string;
// anything else it leaves to json.Unmarshal.
func checkUnquote(t *testing.T, quoted []byte) {
	t.Helper()
	doc, ok := unquoteDocument(quoted)
	var want string
	err := json.Unmarshal(quoted, &want)
	if ok && (err != nil || string(doc) != want) {
		t.Fatalf("unquoted %q to %q; json.Unmarshal: %q, %v", quoted, doc, want, err)
	}
}

// unquoteSeeds are quoted spans on both sides of the fast path's subset.
var unquoteSeeds = []string{
	`""`,
	`"%%MatrixMarket matrix coordinate real general\n2 2 1\n1 1 4\n"`,
	`"tab\tcr\r\nquote\" backslash\\ slash\/ end"`,
	`"\u0041"`,
	`"\ud83d\ude00 a surrogate pair"`,
	`"a lone \ud800 high surrogate"`,
	`"a lone \udc00 low surrogate"`,
	`"\b\f"`,
	`"\x"`,
	"\"invalid \xff UTF-8\"",
	"\"valid \xc3\xa9 UTF-8\"",
	"\"raw \x01 control\"",
	"\"raw \n newline\"",
	"\"DEL \x7f\"",
	`"trailing backslash\"`,
	`"\"`,
	`"an "unescaped" quote"`,
	`"`,
	`unquoted`,
	``,
}

func TestUnquoteDocumentMatchesEncodingJSON(t *testing.T) {
	for _, seed := range unquoteSeeds {
		checkUnquote(t, []byte(seed))
	}
	// What clients send takes the fast path: json.Marshal of mm.Write's
	// document, and the escapes json.Marshal writes for the rest of the
	// subset.
	var doc strings.Builder
	if err := mm.Write(&doc, csr.Laplacian2D(7, 5)); err != nil {
		t.Fatal(err)
	}
	quoted, err := json.Marshal(doc.String() + "tab\t quote\" backslash\\")
	if err != nil {
		t.Fatal(err)
	}
	if got, ok := unquoteDocument(quoted); !ok || string(got) != doc.String()+"tab\t quote\" backslash\\" {
		t.Fatalf("fast path refused or changed a marshalled document: ok %v", ok)
	}
}

// FuzzUnquoteDocument is the differential test of the fast unquote
// against json.Unmarshal, on the fuzzer's span and on it quoted.
func FuzzUnquoteDocument(f *testing.F) {
	for _, seed := range unquoteSeeds {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, span []byte) {
		checkUnquote(t, span)
		checkUnquote(t, append(append([]byte{'"'}, span...), '"'))
	})
}

// TestColdAssembleAllocations: one cold assemble of a 64x64 document —
// the cache-miss admission of svc_warm's operator — allocates the
// unquoted document, the entry list and the matrix, plus a few
// kilobytes, and once it returns only the matrix is still reachable.
func TestColdAssembleAllocations(t *testing.T) {
	var doc strings.Builder
	if err := mm.Write(&doc, csr.Laplacian2D(64, 64)); err != nil {
		t.Fatal(err)
	}
	quoted, err := json.Marshal(doc.String())
	if err != nil {
		t.Fatal(err)
	}
	s := New(Config{Workers: 1})
	defer s.Close()
	assemble := func() *csr.Matrix {
		m, err := s.assemble(&MatrixSpec{}, quoted)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	assemble() // package state initialised on first use is not the parse's

	var before, after runtime.MemStats
	// Twice: sync.Pool caches (json.Marshal's buffer) outlive one cycle.
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&before)
	m := assemble()
	runtime.ReadMemStats(&after)
	rows, nnz := m.Rows(), m.NNZ()
	matrix := 4*(rows+1) + 12*nnz
	allocated := after.TotalAlloc - before.TotalAlloc
	// The document once (unquoted into a buffer the size of its quoted
	// form), 24-byte entries, the matrix and csr.New's row cursors.
	if bound := len(quoted) + 24*nnz + matrix + 4*rows + 16<<10; allocated > uint64(bound) {
		t.Errorf("a cold assemble allocated %d bytes, over %d", allocated, bound)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	retained := int64(after.HeapAlloc) - int64(before.HeapAlloc) - int64(matrix)
	runtime.KeepAlive(m)
	runtime.KeepAlive(quoted)
	if retained > 16<<10 {
		t.Errorf("%d bytes past the %d-byte matrix still reachable after a cold assemble", retained, matrix)
	}
	t.Logf("allocated %d bytes for a %d-byte document; %d bytes reachable past the matrix", allocated, doc.Len(), retained)
}

// TestSolveBodyLimit: a body over the 64 MiB cap answers 413, whether
// its length is declared (refused unread) or found out while reading;
// the bad forms of b answer 400 in encoding/json's words.
func TestSolveBodyLimit(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	declared := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(`{"b":[1]}`))
	declared.ContentLength = maxBody + 1
	rec := httptest.NewRecorder()
	srv.ServeHTTP(rec, declared)
	if rec.Code != http.StatusRequestEntityTooLarge || !strings.Contains(rec.Body.String(), "request body too large") {
		t.Fatalf("64 MiB+1 body: status %d, %s, want 413", rec.Code, rec.Body)
	}
	undeclared := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(strings.Repeat(" ", 2048)))
	undeclared.ContentLength = -1
	var tooLarge *http.MaxBytesError
	if _, err := readBody(httptest.NewRecorder(), undeclared, 1024); !errors.As(err, &tooLarge) {
		t.Fatalf("undeclared over-limit body: %v, want MaxBytesError", err)
	}
	if body, err := readBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(`{"b":[1]}`)), 1024); err != nil || string(body) != `{"b":[1]}` {
		t.Fatalf("in-limit body: %q, %v", body, err)
	}
	for body, want := range map[string]string{
		`{"matrix":{"grid":{"nx":2,"ny":2}},"b":[1,2,3,Inf]}`: "bad request body: invalid character 'I' looking for beginning of value",
		`{"matrix":{"grid":{"nx":2,"ny":2}},"b":[1,2,3,4,]}`:  "bad request body: invalid character ']' looking for beginning of value",
		`{"matrix":{"grid":{"nx":2,"ny":2}},"b":[1,2,3,.5]}`:  "bad request body: invalid character '.' looking for beginning of value",
		`{"matrix":{"grid":{"nx":2,"ny":2}},"b":[1,2,3,1.]}`:  "bad request body: invalid character ']' after decimal point in numeric literal",
		`{"matrix":{"grid":{"nx":2,"ny":2}},"b":[1,2,3,+1]}`:  "bad request body: invalid character '+' looking for beginning of value",
		`{"matrix":{"grid":{"nx":2,"ny":2}},"b":[0x1p-2]}`:    "bad request body: invalid character 'x' after array element",
	} {
		if code, _, msg := postBody(t, srv, []byte(body)); code != http.StatusBadRequest || msg != want {
			t.Errorf("%s: status %d, error %q, want 400 %q", body, code, msg, want)
		}
	}
}
