package shard

import (
	"reflect"
	"strings"
	"testing"

	"abft/internal/coo"
	"abft/internal/core"
	"abft/internal/sell"
)

// residentArrays names every uint32 and float64 array that a storage
// format or the sharded composite keeps, and says what guards it:
// "protected: " the codec and the scheme it runs under, or "plain: "
// why not. A plain array that steers a product is corruption no check,
// scrub or counter sees.
var residentArrays = map[string]string{
	"core.Matrix.rowptr":   "protected: core's index-group codec (indexGroups) under MatrixOptions.RowPtrScheme",
	"core.Matrix.colIdx":   "protected: core.ColElems under MatrixOptions.ElemScheme",
	"core.Matrix.vals":     "protected: core.ColElems under MatrixOptions.ElemScheme",
	"coo.Matrix.rowIdx":    "protected: coo's (row, column, value) triplet codewords under Options.Scheme",
	"coo.Matrix.colIdx":    "protected: coo's (row, column, value) triplet codewords under Options.Scheme",
	"coo.Matrix.vals":      "protected: coo's (row, column, value) triplet codewords under Options.Scheme",
	"sell.Matrix.colIdx":   "protected: core.ColElems under Options.Scheme",
	"sell.Matrix.vals":     "protected: core.ColElems under Options.Scheme",
	"sell.Matrix.slicePtr": "plain: silent corruption reproduced, ROADMAP item 15",
	"sell.Matrix.perm":     "plain: silent corruption reproduced, ROADMAP item 15",
	"sell.Matrix.rowLen":   "plain: silent corruption reproduced, ROADMAP item 15",
	"shard.band.haloCols":  "plain: silent corruption reproduced, ROADMAP item 15",
	"shard.local.buf":      "plain: per-product scratch, rewritten from a verified read before it is read",
	"shard.local.out":      "plain: per-product scratch, one halo block assembled and encoded per column",
}

// TestResidentArraysCensus walks every storage format and the sharded
// composite with its bands and workspaces through reflect: each resident
// uint32 or float64 array must be in residentArrays, and each entry there
// must still exist. A new array fails until it is named protected, or
// plain with a reason.
func TestResidentArraysCensus(t *testing.T) {
	seen := map[string]bool{}
	for _, root := range []reflect.Type{
		reflect.TypeOf(core.Matrix{}),
		reflect.TypeOf(coo.Matrix{}),
		reflect.TypeOf(sell.Matrix{}),
		reflect.TypeOf(Operator{}),
	} {
		for _, f := range arrayFields(root) {
			seen[f] = true
			how, ok := residentArrays[f]
			switch {
			case !ok:
				t.Errorf("%s is a resident array the census does not name; protect it, or name it plain with a reason", f)
			case !strings.HasPrefix(how, "protected: ") && !strings.HasPrefix(how, "plain: "):
				t.Errorf("%s: %q says neither protected nor plain", f, how)
			}
		}
	}
	for f := range residentArrays {
		if !seen[f] {
			t.Errorf("residentArrays names %s, which is gone", f)
		}
	}
}

// arrayFields lists, as "pkg.Type.field", the fields of slices of uint32
// or float64 elements (or of arrays of them) reachable from struct type t
// through fields, pointers, slices, arrays and maps of its own package's
// structs. Other packages' types are not entered: each root names its
// own package's arrays.
func arrayFields(t reflect.Type) []string {
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
			for container(ft.Kind()) {
				if ft.Kind() == reflect.Slice && numeric(ft.Elem()) {
					out = append(out, st.String()+"."+f.Name)
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

func container(k reflect.Kind) bool {
	return k == reflect.Pointer || k == reflect.Slice || k == reflect.Array || k == reflect.Map
}

// numeric reports whether t, under any arrays, is uint32 or float64.
func numeric(t reflect.Type) bool {
	for t.Kind() == reflect.Array {
		t = t.Elem()
	}
	return t.Kind() == reflect.Uint32 || t.Kind() == reflect.Float64
}
