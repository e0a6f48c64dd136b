package service

import (
	"bytes"
	"encoding/json"
	"math"
	"net/http"
	"strconv"
	"strings"
)

// maxBody caps a solve request body; a larger one answers 413.
const maxBody = 64 << 20

// readBody reads a request body once, into a buffer sized from
// Content-Length. A body over limit fails with *http.MaxBytesError,
// unread when its declared length already says so.
func readBody(w http.ResponseWriter, r *http.Request, limit int64) ([]byte, error) {
	size := r.ContentLength
	if size > limit {
		return nil, &http.MaxBytesError{Limit: limit}
	}
	// ReadFrom wants MinRead spare bytes to see the EOF without growing.
	buf := bytes.NewBuffer(make([]byte, 0, max(size, 0)+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, limit))
	return buf.Bytes(), err
}

// decodeStrict is the request grammar: encoding/json, unknown fields
// rejected, anything after the first value ignored.
func decodeStrict(doc []byte, req *SolveRequest) error {
	dec := json.NewDecoder(bytes.NewReader(doc))
	dec.DisallowUnknownFields()
	return dec.Decode(req)
}

// decodeSolveRequest decodes a POST /v1/solve body to exactly what
// decodeStrict makes of it, without handing encoding/json the two values
// that are nearly all of a large request. The top-level "b" array is
// read where it lies, in the one pass that also finds where it ends
// (readFloats), and matrix.matrix_market is returned as quoted — the
// JSON string as it lies in body, quotes and escapes included — with
// req.Matrix.MatrixMarket left empty: admission hashes it there and
// unquotes it only when the digest is unknown. The rest, with null and
// "" standing in for the two values, goes through decodeStrict as
// before. Whatever this reader is not sure of — a body that is not one
// object, a second or differently-cased "b", "matrix" or "matrix_market"
// key, an element of b that is not a plain number — it leaves to
// decodeStrict, so acceptance and every error text stay encoding/json's.
func decodeSolveRequest(body []byte) (req SolveRequest, quoted []byte, err error) {
	if b, doc, values, ok := liftSpans(body); ok && (b != span{} || doc != span{}) {
		cuts := [2]struct {
			span
			with string
		}{{b, "null"}, {doc, `""`}}
		if doc.start < b.start {
			cuts[0], cuts[1] = cuts[1], cuts[0]
		}
		rest, pos := make([]byte, 0, 512), 0
		for _, cut := range cuts {
			if cut.span != (span{}) {
				rest = append(append(rest, body[pos:cut.start]...), cut.with...)
				pos = cut.end
			}
		}
		rest = append(rest, body[pos:]...)
		if decodeStrict(rest, &req) == nil {
			if b != (span{}) {
				req.B = values
			}
			if doc != (span{}) {
				quoted = body[doc.start:doc.end:doc.end]
			}
			return req, quoted, nil
		}
		req = SolveRequest{}
	}
	return req, nil, decodeStrict(body, &req)
}

// span is the extent of a value in a request body; no value starts at
// offset 0, so the zero span means absent.
type span struct{ start, end int }

// liftSpans finds the extents of the top-level "b" array, whose elements
// it reads in the same pass, and of the matrix.matrix_market string in a
// request body. ok is false when the body is not an object this reader
// is sure of, or names either value in any way but one byte-exact key.
// A "b" that is not an array of plain numbers is delimited and left in
// place: b is then the zero span.
func liftSpans(body []byte) (b, doc span, values []float64, ok bool) {
	var nb, nmatrix, ndoc int
	top := func(key []byte, start int) int {
		switch {
		case aliases(key, "b"):
			if nb++; string(key) != `"b"` || nb > 1 {
				return -1
			}
			if body[start] == '[' {
				var end int
				if values, end = readFloats(body, start); end >= 0 {
					b = span{start, end}
					return end
				}
			}
		case aliases(key, "matrix"):
			if nmatrix++; string(key) != `"matrix"` || nmatrix > 1 {
				return -1
			}
			if body[start] == '{' {
				return walkObject(body, start, func(key []byte, start int) int {
					end := skipValue(body, start)
					if end < 0 || !aliases(key, "matrix_market") {
						return end
					}
					if ndoc++; string(key) != `"matrix_market"` || ndoc > 1 {
						return -1
					}
					// An empty document is no source; leave it to the spec.
					if body[start] == '"' && end-start > 2 {
						doc = span{start, end}
					}
					return end
				})
			}
		}
		return skipValue(body, start)
	}
	// The walk fills b, doc and values, so it runs before they are read.
	ok = walkObject(body, skipSpace(body, 0), top) >= 0
	return b, doc, values, ok
}

// aliases reports whether a JSON object key (as it lies, quotes
// included) could name the struct field encoding/json knows as name: it
// matches case-insensitively, and a key with an escape or a non-ASCII
// byte is presumed to (U+212A folds to k, U+017F to s).
func aliases(key []byte, name string) bool {
	for _, c := range key {
		if c == '\\' || c >= 0x80 {
			return true
		}
	}
	return strings.EqualFold(string(key[1:len(key)-1]), name)
}

// walkObject walks the members of the JSON object opening at s[i]. For
// each it calls visit with the key as it lies and the index its value
// starts at; visit returns the index past the value, or -1. walkObject
// returns the index past the closing brace, or -1 when the text there is
// not a well-formed object down to its member boundaries or visit
// returned -1.
func walkObject(s []byte, i int, visit func(key []byte, start int) int) int {
	if i >= len(s) || s[i] != '{' {
		return -1
	}
	i = skipSpace(s, i+1)
	if i < len(s) && s[i] == '}' {
		return i + 1
	}
	for i < len(s) && s[i] == '"' {
		k := skipString(s, i)
		if k < 0 {
			return -1
		}
		key := s[i:k]
		if i = skipSpace(s, k); i >= len(s) || s[i] != ':' {
			return -1
		}
		start := skipSpace(s, i+1)
		if start >= len(s) {
			return -1
		}
		end := visit(key, start)
		if end < 0 {
			return -1
		}
		if i = skipSpace(s, end); i >= len(s) {
			return -1
		}
		if s[i] == '}' {
			return i + 1
		}
		if s[i] != ',' {
			return -1
		}
		i = skipSpace(s, i+1)
	}
	return -1
}

func skipSpace(s []byte, i int) int {
	for i < len(s) && (s[i] == ' ' || s[i] == '\n' || s[i] == '\t' || s[i] == '\r') {
		i++
	}
	return i
}

// skipString returns the index past the JSON string opening at s[i]: the
// first quote preceded by an even run of backslashes closes it. -1 when
// unterminated.
func skipString(s []byte, i int) int {
	for j := i + 1; ; j++ {
		q := bytes.IndexByte(s[j:], '"')
		if q < 0 {
			return -1
		}
		j += q
		run := 0
		for j-1-run > i && s[j-1-run] == '\\' {
			run++
		}
		if run%2 == 0 {
			return j + 1
		}
	}
}

// skipValue returns the index past the JSON value starting at s[i],
// found by bracket depth outside strings; -1 when it does not end.
func skipValue(s []byte, i int) int {
	if i >= len(s) {
		return -1
	}
	switch s[i] {
	case '"':
		return skipString(s, i)
	case '{', '[':
		for depth := 0; i < len(s); i++ {
			switch s[i] {
			case '"':
				if i = skipString(s, i) - 1; i < 0 {
					return -1
				}
			case '{', '[':
				depth++
			case '}', ']':
				if depth--; depth == 0 {
					return i + 1
				}
			}
		}
		return -1
	}
	start := i
	for i < len(s) && !strings.ContainsRune(" \n\t\r,}]", rune(s[i])) {
		i++
	}
	if i == start {
		return -1
	}
	return i
}

// readFloats reads the JSON array opening at s[i] in one pass that
// delimits it, checks each element against the JSON number grammar and
// converts it (readNumber). It returns the elements and the index past
// the closing bracket, or end -1 when the array holds anything but plain
// numbers in float64's range (nesting, a string, null, a trailing comma).
// The slice is allocated once, sized by the commas before the first ']'.
func readFloats(s []byte, i int) (out []float64, end int) {
	n := bytes.IndexByte(s[i:], ']')
	if n < 0 {
		return nil, -1
	}
	out = make([]float64, 0, bytes.Count(s[i:i+n], []byte{','})+1)
	if i = skipSpace(s, i+1); i < len(s) && s[i] == ']' {
		return out, i + 1
	}
	for {
		v, next := readNumber(s, i)
		if next < 0 {
			return nil, -1
		}
		out = append(out, v)
		if i = skipSpace(s, next); i >= len(s) {
			return nil, -1
		}
		switch s[i] {
		case ']':
			return out, i + 1
		case ',':
			i = skipSpace(s, i+1)
		default:
			return nil, -1
		}
	}
}

// readNumber reads the JSON number at s[i]
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?) and returns its value
// and the index past it, or end -1 when there is none or its magnitude
// overflows float64. The forms strconv.ParseFloat alone would take (Inf,
// 0x1p-2, +1, .5, 1.) are refused. While checking the grammar it
// gathers the significant digits into an integer: when there are at most
// 19 of them, the integer is at most 2^53 and the decimal exponent is
// within ±22, both the integer and the power of ten are exact float64s,
// so one correctly rounded multiply or divide is the correctly rounded
// value (Clinger's fast path, which strconv.ParseFloat also takes).
// Every other number goes to strconv.ParseFloat, so the result is
// encoding/json's bit for bit.
func readNumber(s []byte, i int) (v float64, end int) {
	start := i
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	var mant uint64
	digits, exp := 0, 0 // significant digits gathered; the power of ten mant is scaled by
	switch {
	case i < len(s) && s[i] == '0':
		i++
	case i < len(s) && '1' <= s[i] && s[i] <= '9':
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			mant = mant*10 + uint64(s[i]-'0')
			digits++
		}
	default:
		return 0, -1
	}
	if i < len(s) && s[i] == '.' {
		i++
		frac := i
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			exp--
			// Zeros before the first significant digit only scale.
			if digits > 0 || s[i] != '0' {
				mant = mant*10 + uint64(s[i]-'0')
				digits++
			}
		}
		if i == frac {
			return 0, -1
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := i < len(s) && s[i] == '-'
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		first, e := i, 0
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			// A larger exponent leaves the fast path; its digits are
			// still checked.
			if e <= 1<<20 {
				e = e*10 + int(s[i]-'0')
			} else {
				digits = math.MaxInt
			}
		}
		if i == first {
			return 0, -1
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if digits <= 19 && mant <= 1<<53 && -22 <= exp && exp <= 22 {
		v = float64(mant)
		if exp >= 0 {
			v *= exactPow10[exp]
		} else {
			v /= exactPow10[-exp]
		}
		if neg {
			v = -v
		}
		return v, i
	}
	v, err := strconv.ParseFloat(string(s[start:i]), 64)
	if err != nil {
		return 0, -1
	}
	return v, i
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// unquoteDocument unquotes a JSON string as it lies, quotes included,
// when it holds nothing but printable ASCII and the escapes \n \r \t
// \" \\ \/ — what mm.Write's documents and ordinary clients send, and
// a subset on which json.Unmarshal returns the same string. ok is false
// for anything else (a \u or any other escape, a byte outside
// 0x20-0x7e, an unescaped quote, a trailing backslash), which
// json.Unmarshal then decides, so acceptance and every error text stay
// encoding/json's.
func unquoteDocument(quoted []byte) (doc []byte, ok bool) {
	if len(quoted) < 2 || quoted[0] != '"' || quoted[len(quoted)-1] != '"' {
		return nil, false
	}
	s := quoted[1 : len(quoted)-1]
	doc = make([]byte, 0, len(s))
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case 0x20 <= c && c <= 0x7e && c != '"' && c != '\\':
			doc = append(doc, c)
		case c == '\\' && i+1 < len(s) && unescaped[s[i+1]] != 0:
			doc = append(doc, unescaped[s[i+1]])
			i++
		default:
			return nil, false
		}
	}
	return doc, true
}

// unescaped maps the byte after a backslash to what unquoteDocument
// decodes the escape to; 0 is not an escape it decodes.
var unescaped = [256]byte{'n': '\n', 'r': '\r', 't': '\t', '"': '"', '\\': '\\', '/': '/'}
