// Package enum derives an enumeration's printer, parser and choice list
// from one table of names, so the three cannot disagree.
package enum

import (
	"fmt"
	"slices"
	"strings"
)

// Table names the values 0, 1, ... of the enumeration T. Names[v] lists
// value v's canonical name first, then the aliases Parse also accepts.
// Pkg and What word Parse's error: "<Pkg>: unknown <What> %q (choices:
// ...)".
type Table[T ~int | ~uint8] struct {
	Pkg, What string
	Names     [][]string
}

// String returns v's canonical name, or "Type(v)" for a value the table
// does not name.
func (t *Table[T]) String(v T) string {
	if int(v) >= 0 && int(v) < len(t.Names) {
		return t.Names[v][0]
	}
	typ := fmt.Sprintf("%T", v)
	return fmt.Sprintf("%s(%d)", typ[strings.LastIndexByte(typ, '.')+1:], v)
}

// Parse returns the value s names, canonically or by an alias. An
// unknown name is an error listing the choices, with the zero value.
func (t *Table[T]) Parse(s string) (T, error) {
	for v, names := range t.Names {
		if slices.Contains(names, s) {
			return T(v), nil
		}
	}
	return 0, fmt.Errorf("%s: unknown %s %q (choices: %s)", t.Pkg, t.What, s, t.List())
}

// List returns the canonical names in value order, comma-separated, for
// error messages and command-line help.
func (t *Table[T]) List() string {
	names := make([]string, len(t.Names))
	for v, n := range t.Names {
		names[v] = n[0]
	}
	return strings.Join(names, ", ")
}
