package enum

import "testing"

type color uint8

const (
	red color = iota
	green
)

var colors = Table[color]{Pkg: "paint", What: "color", Names: [][]string{
	red:   {"red", "", "rouge"},
	green: {"green"},
}}

func (c color) String() string { return colors.String(c) }

func TestTable(t *testing.T) {
	if got := colors.List(); got != "red, green" {
		t.Fatalf("List() = %q", got)
	}
	for _, c := range []struct {
		v    color
		want string
	}{{red, "red"}, {green, "green"}, {7, "color(7)"}} {
		if got := c.v.String(); got != c.want {
			t.Errorf("String(%d) = %q, want %q", uint8(c.v), got, c.want)
		}
	}
	for name, want := range map[string]color{"red": red, "": red, "rouge": red, "green": green} {
		if got, err := colors.Parse(name); err != nil || got != want {
			t.Errorf("Parse(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	got, err := colors.Parse("blue")
	const msg = `paint: unknown color "blue" (choices: red, green)`
	if err == nil || err.Error() != msg || got != 0 {
		t.Fatalf("Parse(blue) = %v, %v; want the zero value and %q", got, err, msg)
	}
}

// TestNegativeValue: a signed enumeration's negative value prints as
// its type, not as an index.
func TestNegativeValue(t *testing.T) {
	type mode int
	modes := Table[mode]{Names: [][]string{{"on"}}}
	if got := modes.String(-1); got != "mode(-1)" {
		t.Fatalf("String(-1) = %q", got)
	}
}
