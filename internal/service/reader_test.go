package service

import (
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
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
