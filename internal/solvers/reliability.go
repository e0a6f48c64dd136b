package solvers

import "abft/internal/enum"

// Reliability selects how much of a solve runs under verified reads —
// the selective-reliability knob of Bridges, Ferreira, Heroux and
// Hoemmen: the bulk of the work may run in a fast unreliable mode as
// long as a reliable outer iteration absorbs whatever slips through.
type Reliability int

const (
	// ReliabilityFull is the zero value: every read in the solve is
	// verified, exactly as before this knob existed.
	ReliabilityFull Reliability = iota
	// ReliabilitySelective runs the inner preconditioner-solve of a
	// flexible method (FGMRES) through the unverified no-decode read
	// path while the outer iteration stays verified and checkpointed.
	// Inner faults surface as worse search directions the verified
	// outer iteration absorbs, never as silent corruption of the
	// result. Solvers without an unreliable phase ignore the setting.
	ReliabilitySelective
)

var reliabilities = enum.Table[Reliability]{Pkg: "solvers", What: "reliability", Names: [][]string{
	ReliabilityFull:      {"full", ""},
	ReliabilitySelective: {"selective"},
}}

func (r Reliability) String() string { return reliabilities.String(r) }

// Reliabilities lists every reliability mode in display order.
var Reliabilities = []Reliability{ReliabilityFull, ReliabilitySelective}

// ReliabilityNames returns the registered reliability names as a
// comma-separated list, for error messages and command-line help.
func ReliabilityNames() string { return reliabilities.List() }

// ParseReliability converts a reliability name to its Reliability; the
// empty string selects the full default.
func ParseReliability(s string) (Reliability, error) { return reliabilities.Parse(s) }
