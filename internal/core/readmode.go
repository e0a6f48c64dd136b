package core

import "abft/internal/enum"

// ReadMode selects how reads through protected storage treat the
// embedded codewords. It separates two orthogonal decisions — whether
// corrections may be written back, and whether codewords are decoded at
// all — that a single shared/exclusive flag would conflate.
//
// The modes form a strict ladder of trust:
//
//	ModeExclusive   verify + commit corrections to storage
//	ModeShared      verify, corrections stay decoder-local
//	ModeUnverified  no decode at all: payload stream + mask/bounds only
//
// Unverified reads never touch storage or counters, so a cached shared
// operator can serve them concurrently with verified readers without
// races. They are the substrate of selective reliability (FGMRES's
// unreliable inner solve): the data flows, the codewords are ignored,
// and the verified outer iteration absorbs whatever slipped through.
type ReadMode int

const (
	// ModeExclusive is the zero value: the reader owns the storage, so
	// single-bit corrections found during verification are committed
	// back (scrub-on-read).
	ModeExclusive ReadMode = iota
	// ModeShared verifies every read but keeps corrections local to the
	// decoder, so concurrent readers never race on storage.
	ModeShared
	// ModeUnverified skips codeword decode entirely: reads stream the
	// masked payload, keep bounds checks, commit nothing, and leave the
	// check/correction counters untouched.
	ModeUnverified
)

var readModes = enum.Table[ReadMode]{Names: [][]string{
	ModeExclusive:  {"exclusive"},
	ModeShared:     {"shared"},
	ModeUnverified: {"unverified"},
}}

func (m ReadMode) String() string { return readModes.String(m) }

// Verifies reports whether reads in this mode decode and check
// codewords. Only ModeUnverified skips verification.
func (m ReadMode) Verifies() bool { return m != ModeUnverified }

// Commits reports whether corrections found during verification may be
// written back to storage. Only the exclusive owner commits.
func (m ReadMode) Commits() bool { return m == ModeExclusive }
