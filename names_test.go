package abft_test

import (
	"slices"
	"strings"
	"testing"

	"abft/internal/core"
	"abft/internal/ecc"
	"abft/internal/op"
	"abft/internal/precond"
	"abft/internal/solvers"
)

// named is an enumeration every flag, TeaLeaf deck key and abftd request
// names by string.
type named interface {
	comparable
	String() string
}

// roundTrip checks one parsed enumeration against its name table: every
// listed value prints a name that parses back to it, the choice list is
// exactly those names, every alias parses to its value, and an unknown
// name's error lists exactly the choices.
func roundTrip[T named](t *testing.T, values []T, aliases map[string]T, parse func(string) (T, error), list func() string) {
	t.Helper()
	names := make([]string, 0, len(values))
	for _, v := range values {
		got, err := parse(v.String())
		if err != nil || got != v {
			t.Errorf("parse(%q) = %v, %v; want %v", v.String(), got, err, v)
		}
		if !slices.Contains(names, v.String()) {
			names = append(names, v.String())
		}
	}
	if got, want := list(), strings.Join(names, ", "); got != want {
		t.Errorf("choices %q, want %q", got, want)
	}
	for name, want := range aliases {
		if got, err := parse(name); err != nil || got != want {
			t.Errorf("parse(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	_, err := parse("no-such-name")
	if err == nil || !strings.HasSuffix(err.Error(), `"no-such-name" (choices: `+list()+")") {
		t.Errorf("unknown name: error %v does not list exactly the choices %q", err, list())
	}
}

// TestNamesRoundTrip covers every enumeration a user names by string.
func TestNamesRoundTrip(t *testing.T) {
	t.Run("core.Scheme", func(t *testing.T) {
		roundTrip(t, core.Schemes, map[string]core.Scheme{
			"": core.None, "parity": core.SED, "secded": core.SECDED64, "crc": core.CRC32C,
		}, core.ParseScheme, core.SchemeNames)
	})
	t.Run("core.Structure", func(t *testing.T) {
		roundTrip(t, []core.Structure{core.StructVector, core.StructElements, core.StructRowPtr,
			core.StructHalo, core.StructPrecond, core.StructSolverState}, nil, core.ParseStructure,
			func() string { return "vector, elements, rowptr, halo, precond, solverstate" })
	})
	t.Run("op.Format", func(t *testing.T) {
		roundTrip(t, op.Formats, map[string]op.Format{
			"": op.CSR, "sell": op.SELLCS, "sell-c-sigma": op.SELLCS,
		}, op.ParseFormat, op.FormatNames)
	})
	t.Run("precond.Kind", func(t *testing.T) {
		roundTrip(t, precond.Kinds, map[string]precond.Kind{
			"": precond.None, "block-jacobi": precond.BlockJacobi, "blockjacobi": precond.BlockJacobi,
			"gauss-seidel": precond.SGS,
		}, precond.ParseKind, precond.KindNames)
	})
	t.Run("solvers.Kind", func(t *testing.T) {
		roundTrip(t, solvers.Kinds, map[string]solvers.Kind{
			"": solvers.KindCG, "cheby": solvers.KindChebyshev,
		}, solvers.ParseKind, solvers.KindNames)
	})
	t.Run("solvers.RecoveryPolicy", func(t *testing.T) {
		roundTrip(t, solvers.RecoveryPolicies, map[string]solvers.RecoveryPolicy{
			"": solvers.RecoveryOff,
		}, solvers.ParseRecovery, solvers.RecoveryNames)
	})
	t.Run("solvers.Reliability", func(t *testing.T) {
		roundTrip(t, solvers.Reliabilities, map[string]solvers.Reliability{
			"": solvers.ReliabilityFull,
		}, solvers.ParseReliability, solvers.ReliabilityNames)
	})
	t.Run("ecc.Backend", func(t *testing.T) {
		// Auto is listed because callers name it: it must print a name
		// that parses back to it.
		roundTrip(t, []ecc.Backend{ecc.Hardware, ecc.Software, ecc.Auto}, map[string]ecc.Backend{
			"hw": ecc.Hardware, "auto": ecc.Hardware, "sw": ecc.Software,
		}, ecc.ParseBackend, ecc.BackendNames)
	})
}
