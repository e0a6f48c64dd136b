package solvers

import (
	"reflect"
	"strings"
	"testing"

	"abft/internal/core"
	"abft/internal/precond"
)

// allowedFields are the plain numeric fields the state census allows,
// each with what it is: "scratch: " why it is not state — it lives for
// one Apply or one solve, and is overwritten from verified (or, under
// selective reliability, deliberately unverified) reads before it is
// read — or "plain: " state that is known to be unprotected, and why.
var allowedFields = map[string]string{
	"innerSolver.vbuf": "scratch: per-solve, the basis vector, read afresh by every inner solve",
	"innerSolver.zbuf": "scratch: per-solve, the inner iterate, rebuilt from vbuf by every inner solve",
	"innerSolver.wbuf": "scratch: per-solve, the step's product and scaled residual",
	"sgsScratch.rv":    "scratch: per-Apply, r, read verified by every Apply",
	"sgsScratch.y":     "scratch: per-Apply, the forward sweep's result",
	"sgsScratch.zv":    "scratch: per-Apply, the backward sweep's result",
	"sgsScratch.invd":  "scratch: per-Apply, the protected inverse diagonal, read verified by every Apply",
}

// TestInnerSolverAndPreconditionersHoldNoPlainState is the resident
// state census (with service.TestCacheEntryHoldsNoPlainState): no field
// of FGMRES's inner solver or of any precond implementation, reachable
// through their own package's structs, is a plain float64, uint32 or int
// slice or array unless allowedFields names it. State that outlives one
// Apply or one solve must be codeword-protected; a plain copy of it is
// corruption no check, scrub or counter sees.
func TestInnerSolverAndPreconditionersHoldNoPlainState(t *testing.T) {
	a, _, _ := spdSystem(t, 4, 4)
	types := []reflect.Type{reflect.TypeOf(innerSolver{})}
	for _, kind := range precond.ProtectingKinds {
		pre, err := precond.New(kind, a, precond.Options{Scheme: core.SECDED64})
		if err != nil {
			t.Fatal(err)
		}
		types = append(types, reflect.TypeOf(pre).Elem())
	}
	seen := map[string]bool{}
	for _, typ := range types {
		for _, f := range plainFields(typ) {
			seen[f] = true
			how, ok := allowedFields[f]
			switch {
			case !ok:
				t.Errorf("%s is plain numeric state; protect it, or name it in allowedFields as scratch or plain with a reason", f)
			case !strings.HasPrefix(how, "scratch: ") && !strings.HasPrefix(how, "plain: "):
				t.Errorf("%s: %q says neither scratch nor plain", f, how)
			}
		}
	}
	for f := range allowedFields {
		if !seen[f] {
			t.Errorf("allowedFields names %s, which is gone", f)
		}
	}
}

// plainFields lists, as "Type.field", the fields that are slices or
// arrays of float64, uint32 or int elements (under any arrays, so
// [][2]int counts) reachable from struct type t through fields,
// pointers, slices and arrays of its own package's structs. Other
// packages' types — core.Vector's protected words among them — are not
// entered.
func plainFields(t reflect.Type) []string {
	var out []string
	seen := map[reflect.Type]bool{}
	var walk func(reflect.Type)
	walk = func(st reflect.Type) {
		if seen[st] {
			return
		}
		seen[st] = true
		for i := 0; i < st.NumField(); i++ {
			f := st.Field(i)
			ft := f.Type
			for ft.Kind() == reflect.Pointer || ft.Kind() == reflect.Slice || ft.Kind() == reflect.Array {
				if ft.Kind() != reflect.Pointer && plainNumber(ft.Elem()) {
					out = append(out, st.Name()+"."+f.Name)
					break
				}
				ft = ft.Elem()
			}
			if ft.Kind() == reflect.Struct && ft.PkgPath() == t.PkgPath() {
				walk(ft)
			}
		}
	}
	walk(t)
	return out
}

// plainNumber reports whether t, under any arrays, is float64, uint32 or
// int: the element types of a format's or a solver's numeric state.
func plainNumber(t reflect.Type) bool {
	for t.Kind() == reflect.Array {
		t = t.Elem()
	}
	return t.Kind() == reflect.Float64 || t.Kind() == reflect.Uint32 || t.Kind() == reflect.Int
}
