package service

import (
	"bytes"
	"encoding/json"
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
// parsed in place (strict JSON number grammar, then strconv.ParseFloat,
// which is what encoding/json calls), and matrix.matrix_market is
// returned as quoted — the JSON string as it lies in body, quotes and
// escapes included — with req.Matrix.MatrixMarket left empty: admission
// hashes it there and unquotes it only when the digest is unknown. The
// rest, with null and "" standing in for the two values, goes through
// decodeStrict as before. Whatever this reader is not sure of — a body
// that is not one object, a second or differently-cased "b", "matrix" or
// "matrix_market" key, an element that is not a plain number — it lifts
// nothing and decodeStrict reads the whole body, so acceptance and every
// error text stay encoding/json's.
func decodeSolveRequest(body []byte) (req SolveRequest, quoted []byte, err error) {
	if b, doc, ok := liftSpans(body); ok && (b != span{} || doc != span{}) {
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
			parsed := true
			if b != (span{}) {
				req.B, parsed = parseFloats(body[b.start:b.end])
			}
			if parsed {
				if doc != (span{}) {
					quoted = body[doc.start:doc.end:doc.end]
				}
				return req, quoted, nil
			}
		}
		req = SolveRequest{}
	}
	return req, nil, decodeStrict(body, &req)
}

// span is the extent of a value in a request body; no value starts at
// offset 0, so the zero span means absent.
type span struct{ start, end int }

// liftSpans finds the extents of the top-level "b" array and of the
// matrix.matrix_market string in a request body. ok is false when the
// body is not an object this reader is sure of, or names either value in
// any way but one byte-exact key.
func liftSpans(body []byte) (b, doc span, ok bool) {
	var nb, nmatrix, ndoc int
	top := func(key []byte, start, end int) bool {
		switch {
		case aliases(key, "b"):
			nb++
			if body[start] == '[' {
				b = span{start, end}
			}
			return string(key) == `"b"` && nb == 1
		case aliases(key, "matrix"):
			nmatrix++
			if string(key) != `"matrix"` || nmatrix > 1 {
				return false
			}
			if body[start] != '{' {
				return true
			}
			return walkObject(body, start, func(key []byte, start, end int) bool {
				if !aliases(key, "matrix_market") {
					return true
				}
				ndoc++
				// An empty document is no source; leave it to the spec.
				if body[start] == '"' && end-start > 2 {
					doc = span{start, end}
				}
				return string(key) == `"matrix_market"` && ndoc == 1
			}) == end
		}
		return true
	}
	return b, doc, walkObject(body, skipSpace(body, 0), top) >= 0
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

// walkObject visits each member of the JSON object opening at s[i] — its
// key as it lies and the extent of its value — and returns the index
// past the closing brace, or -1 when the text there is not a well-formed
// object down to its member boundaries or visit returned false. Member
// values are delimited, not validated.
func walkObject(s []byte, i int, visit func(key []byte, start, end int) bool) int {
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
		end := skipValue(s, start)
		if end < 0 || !visit(key, start, end) {
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

// parseFloats parses a JSON array of numbers. Each element must match
// the JSON number grammar before strconv.ParseFloat sees it, so the
// forms ParseFloat alone would take (Inf, 0x1p-2, +1, .5, 1.) are
// refused, as are out-of-range values, nesting and a trailing comma.
func parseFloats(s []byte) ([]float64, bool) {
	out := make([]float64, 0, bytes.Count(s, []byte{','})+1)
	i := skipSpace(s, 1)
	if i == len(s)-1 && s[i] == ']' {
		return out, true
	}
	for {
		end := scanNumber(s, i)
		if end < 0 {
			return nil, false
		}
		v, err := strconv.ParseFloat(string(s[i:end]), 64)
		if err != nil {
			return nil, false
		}
		out = append(out, v)
		if i = skipSpace(s, end); i >= len(s) {
			return nil, false
		}
		switch s[i] {
		case ']':
			return out, i == len(s)-1
		case ',':
			i = skipSpace(s, i+1)
		default:
			return nil, false
		}
	}
}

// scanNumber returns the index past the JSON number at s[i]
// (-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?), or -1.
func scanNumber(s []byte, i int) int {
	digits := func() bool {
		start := i
		for i < len(s) && '0' <= s[i] && s[i] <= '9' {
			i++
		}
		return i > start
	}
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if !digits() {
		return -1
	}
	if i < len(s) && s[i] == '.' {
		if i++; !digits() {
			return -1
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		if i++; i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if !digits() {
			return -1
		}
	}
	return i
}
