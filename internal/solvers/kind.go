package solvers

import (
	"fmt"
	"strings"

	"abft/internal/core"
)

// Kind names a solver algorithm.
type Kind int

const (
	// KindCG is conjugate gradients, the paper's instrumented solver.
	KindCG Kind = iota
	// KindJacobi is the pointwise Jacobi iteration.
	KindJacobi
	// KindChebyshev is the Chebyshev semi-iteration.
	KindChebyshev
	// KindPPCG is polynomially preconditioned CG.
	KindPPCG
	// KindPCG is explicitly preconditioned CG: CG with a first-class
	// preconditioner (Jacobi by default when none is configured).
	KindPCG
	// KindBlockCG is multi-right-hand-side CG: k lockstep CG recurrences
	// sharing one batched verified SpMM per iteration, per-column results
	// bit-identical to k independent CG solves.
	KindBlockCG
	// KindFGMRES is flexible restarted GMRES: the nonsymmetric solver,
	// and the host of selective reliability — with
	// Options.Reliability selective, its inner preconditioner-solve runs
	// through the unverified no-decode read path while the outer Arnoldi
	// iteration stays verified and checkpointed.
	KindFGMRES
)

func (k Kind) String() string {
	switch k {
	case KindCG:
		return "cg"
	case KindJacobi:
		return "jacobi"
	case KindChebyshev:
		return "chebyshev"
	case KindPPCG:
		return "ppcg"
	case KindPCG:
		return "pcg"
	case KindBlockCG:
		return "blockcg"
	case KindFGMRES:
		return "fgmres"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// ParseKind converts a solver name to its Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "cg", "":
		return KindCG, nil
	case "jacobi":
		return KindJacobi, nil
	case "chebyshev", "cheby":
		return KindChebyshev, nil
	case "ppcg":
		return KindPPCG, nil
	case "pcg":
		return KindPCG, nil
	case "blockcg":
		return KindBlockCG, nil
	case "fgmres":
		return KindFGMRES, nil
	default:
		return KindCG, fmt.Errorf("solvers: unknown solver %q (choices: %s)", s, KindNames())
	}
}

// Kinds lists every solver algorithm in display order.
var Kinds = []Kind{KindCG, KindJacobi, KindChebyshev, KindPPCG, KindPCG, KindBlockCG, KindFGMRES}

// KindNames returns the registered solver names as a comma-separated
// list, for error messages and command-line help.
func KindNames() string {
	names := make([]string, len(Kinds))
	for i, k := range Kinds {
		names[i] = k.String()
	}
	return strings.Join(names, ", ")
}

// Solve dispatches to the named solver.
func Solve(kind Kind, a Operator, x, b *core.Vector, opt Options) (Result, error) {
	switch kind {
	case KindCG:
		return CG(a, x, b, opt)
	case KindJacobi:
		return Jacobi(a, x, b, opt)
	case KindChebyshev:
		return Chebyshev(a, x, b, opt)
	case KindPPCG:
		return PPCG(a, x, b, opt)
	case KindPCG:
		return PCG(a, x, b, opt)
	case KindBlockCG:
		return widthOne("blockcg", a, x, b, opt)
	case KindFGMRES:
		return FGMRES(a, x, b, opt)
	default:
		return Result{}, fmt.Errorf("solvers: unknown kind %v", kind)
	}
}
