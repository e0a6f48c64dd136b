package solvers

import (
	"reflect"
	"testing"

	"abft/internal/core"
	"abft/internal/precond"
)

// scratchFields are the plain []float64 fields the state census allows,
// each with why it is not state: it lives for one Apply or one solve,
// and is overwritten from verified (or, under selective reliability,
// deliberately unverified) reads before it is read.
var scratchFields = map[string]string{
	"innerSolver.vbuf": "per-solve scratch: the basis vector, read afresh by every inner solve",
	"innerSolver.zbuf": "per-solve scratch: the inner iterate, rebuilt from vbuf by every inner solve",
	"innerSolver.wbuf": "per-solve scratch: the step's product and scaled residual",
	"sgsScratch.rv":    "per-Apply scratch: r, read verified by every Apply",
	"sgsScratch.y":     "per-Apply scratch: the forward sweep's result",
	"sgsScratch.zv":    "per-Apply scratch: the backward sweep's result",
	"sgsScratch.invd":  "per-Apply scratch: the protected inverse diagonal, read verified by every Apply",
}

// TestInnerSolverAndPreconditionersHoldNoPlainState is the resident
// state census (with service.TestCacheEntryHoldsNoPlainState): no field
// of FGMRES's inner solver or of any precond implementation, reachable
// through their own package's structs, is a plain []float64 unless
// scratchFields names it. State that outlives one Apply or one solve
// must be codeword-protected; a plain copy of it is corruption no
// check, scrub or counter sees.
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
			if _, ok := scratchFields[f]; !ok {
				t.Errorf("%s is plain float64 state; protect it, or name it in scratchFields with why it is scratch", f)
			}
		}
	}
	for f := range scratchFields {
		if !seen[f] {
			t.Errorf("scratchFields names %s, which is gone", f)
		}
	}
}

// plainFields lists, as "Type.field", the []float64 fields reachable
// from struct type t through fields, pointers, slices and arrays of its
// own package's structs. Other packages' types — core.Vector's
// protected words among them — are not entered.
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
				if ft.Kind() == reflect.Slice && ft.Elem().Kind() == reflect.Float64 {
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
