package core

// Groups is one goroutine's side of the verify-then-stream sweep over a
// range of a format's storage (DESIGN.md section 42): its groups — a CSR
// output block, a SELL-C-sigma slice, a COO chunk — and the hooks
// SweepGroups runs on each. The hooks carry the format's layout; the
// order they run in, and what is counted when, is SweepGroups'.
type Groups interface {
	// Clean is group g's clean test: whether it may stream from storage
	// as it lies, and the checks it counts when it does. It counts,
	// corrects and commits nothing, and points the stream at storage.
	// Between full checks it tests only what the stream cannot.
	Clean(g int) (checks uint64, ok bool)
	// Stream4 streams the group the stream points at into columns
	// j..j+3; Stream1 into column j. Either reports false at a wild
	// index, before the load it guards, having counted nothing.
	Stream4(j int) bool
	Stream1(j int) bool
	// Cold is group g's whole protocol when the clean path failed, run
	// after Clean(g): the committing check, a stage of the group when a
	// correction could not be committed, and the stream (CSR: its per-row
	// reader). It counts what it corrects or detects, returns the checks
	// it made — also with an error — and turns a wild index into its
	// BoundsError.
	Cold(g int) (checks uint64, err error)
	// Done closes group g once it has streamed; clean reports the clean
	// path.
	Done(g int, clean bool)
}

// SweepGroups runs the verify-then-stream protocol over groups [g0,g1)
// of h for k columns: each group's clean test, then the stream of
// storage (StreamGroup); a group whose test or stream fails goes to
// h.Cold with nothing yet counted. A group's checks are counted once it
// has streamed, and added to c once, when the range ends or fails.
func SweepGroups(h Groups, g0, g1, k int, c *Counters) (err error) {
	var checks uint64
	for g := g0; g < g1 && err == nil; g++ {
		n, ok := h.Clean(g)
		if ok = ok && StreamGroup(h, k); !ok {
			n, err = h.Cold(g)
		}
		checks += n
		if err == nil {
			h.Done(g, ok)
		}
	}
	c.AddChecks(checks)
	return err
}

// StreamGroup is the column-group dispatch of every format's stream
// (DESIGN.md section 40): columns four at a time (Stream4), then the
// remaining zero to three one at a time (Stream1). It reports false at
// the first wild index, which the first pass meets before any load.
func StreamGroup(h Groups, k int) bool {
	ok, j := true, 0
	for ; ok && j+4 <= k; j += 4 {
		ok = h.Stream4(j)
	}
	for ; ok && j < k; j++ {
		ok = h.Stream1(j)
	}
	return ok
}

// Verdict is what a committing check of a run of codewords reports,
// walked one codeword at a time and past uncorrectable ones so the full
// damage is counted.
type Verdict struct {
	// Checks is the number of codewords verified.
	Checks uint64
	// Dirty reports a correction found but not committed: storage still
	// holds the fault, and a reader must stream a stage instead.
	Dirty bool
	// Err is the first uncorrectable error.
	Err error
}

// Note records one codeword's check: whether it left storage stale, and
// its error.
func (v *Verdict) Note(stale bool, err error) { v.Add(Verdict{1, stale, err}) }

// Add folds in the verdict of a further run.
func (v *Verdict) Add(w Verdict) {
	v.Checks += w.Checks
	v.Dirty = v.Dirty || w.Dirty
	if v.Err == nil {
		v.Err = w.Err
	}
}

// Clean reports a run that verified with nothing to correct or detect.
func (v Verdict) Clean() bool { return !v.Dirty && v.Err == nil }
