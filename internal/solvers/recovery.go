package solvers

import (
	"fmt"

	"abft/internal/core"
	"abft/internal/enum"
)

// RecoveryPolicy names how a solver reacts to a detected uncorrectable
// fault in its own dynamic state (x, r, p and the other live iteration
// vectors) — the one surface the resident protected structures do not
// cover. Bosilca-style ABFT completes exactly this design: checksum-
// protected dynamic data plus rollback.
type RecoveryPolicy int

const (
	// RecoveryOff surfaces the fault as an error, leaving the reaction
	// to the application (the pre-engine behaviour).
	RecoveryOff RecoveryPolicy = iota
	// RecoveryRollback snapshots the live solver vectors into
	// codeword-protected checkpoint storage every K iterations and, on
	// a detected uncorrectable fault, restores the last good checkpoint
	// and resumes — re-encoding the live storage on restore, which
	// clears the corruption itself.
	RecoveryRollback
	// RecoveryRestart keeps only the post-initialisation checkpoint:
	// a fault rewinds the solve to iteration zero. Cheaper per
	// iteration than rollback (no periodic snapshots), costlier per
	// fault.
	RecoveryRestart
)

var recoveryPolicies = enum.Table[RecoveryPolicy]{Pkg: "solvers", What: "recovery policy", Names: [][]string{
	RecoveryOff:      {"off", ""},
	RecoveryRollback: {"rollback"},
	RecoveryRestart:  {"restart"},
}}

func (p RecoveryPolicy) String() string { return recoveryPolicies.String(p) }

// RecoveryPolicies lists every policy in display order.
var RecoveryPolicies = []RecoveryPolicy{RecoveryOff, RecoveryRollback, RecoveryRestart}

// RecoveryNames returns the registered policy names as a comma-separated
// list, for error messages and command-line help.
func RecoveryNames() string { return recoveryPolicies.List() }

// ParseRecovery converts a policy name to its RecoveryPolicy.
func ParseRecovery(s string) (RecoveryPolicy, error) { return recoveryPolicies.Parse(s) }

// Checkpoint cadence bounds for the adaptive controller.
const (
	// defaultCheckpointInterval is the starting cadence when
	// Recovery.Interval is zero (adaptive).
	defaultCheckpointInterval = 32
	// minCheckpointInterval bounds how far the adaptive controller
	// tightens the cadence after rollbacks.
	minCheckpointInterval = 4
	// maxCheckpointInterval bounds how far it relaxes after consecutive
	// clean checkpoints.
	maxCheckpointInterval = 256
	// adaptGrowAfter is how many consecutive clean checkpoints double
	// the adaptive interval.
	adaptGrowAfter = 3
	// maxRollbacks caps recovery attempts per solve. The cap is what
	// keeps a persistent fault the rollback cannot clear (a corrupted
	// operator rather than corrupted dynamic state) from looping
	// forever: the budget drains and the original fault surfaces as an
	// error, exactly as under RecoveryOff.
	maxRollbacks = 8
)

// Recovery configures the iteration engine's recovery controller.
type Recovery struct {
	// Policy selects the reaction to a detected uncorrectable fault in
	// dynamic solver state (default off).
	Policy RecoveryPolicy
	// Interval is the checkpoint cadence in iterations under the
	// rollback policy. Zero adapts it to the observed fault rate:
	// start at 32, halve after every rollback (floor 4), double after
	// three consecutive clean checkpoints (cap 256).
	Interval int
	// Scheme protects the checkpoint storage. Checkpoints are always
	// codeword-protected — a rollback must restore from storage it can
	// trust — so None selects the default SECDED64.
	Scheme core.Scheme
}

func (r Recovery) withDefaults() Recovery {
	if r.Scheme == core.None {
		r.Scheme = core.SECDED64
	}
	return r
}

// validate reports configuration problems (called from Options.Validate).
func (r Recovery) validate() error {
	if r.Policy < RecoveryOff || r.Policy > RecoveryRestart {
		return fmt.Errorf("solvers: Recovery.Policy %d unknown (choices: %s)", int(r.Policy), RecoveryNames())
	}
	if r.Interval < 0 {
		return fmt.Errorf("solvers: Recovery.Interval %d must be >= 0 (zero adapts to the fault rate, starting at %d)",
			r.Interval, defaultCheckpointInterval)
	}
	return nil
}
