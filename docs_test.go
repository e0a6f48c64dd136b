package abft

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// designHeading matches a numbered section heading of DESIGN.md, "## N.".
var designHeading = regexp.MustCompile(`(?m)^## (\d+)\.`)

// designCite matches a citation of a DESIGN.md section: "§N", or
// "DESIGN section N" / "DESIGN.md section N". The paper's own sections
// ("section VI-A-2", "§VI-C") are roman and do not match.
var designCite = regexp.MustCompile(`§(\d+)|DESIGN(?:\.md)? sections? (\d+)`)

// commentWrap is a line break inside a comment or a paragraph, with the
// next line's comment marker: citations wrap across lines.
var commentWrap = regexp.MustCompile(`[ \t]*\n[ \t]*(?://[ \t]*)?`)

// designCites returns the section numbers text cites, in order.
func designCites(text string) []string {
	var out []string
	for _, m := range designCite.FindAllStringSubmatch(commentWrap.ReplaceAllString(text, " "), -1) {
		out = append(out, m[1]+m[2])
	}
	return out
}

// TestDesignCitesMatch pins the citation pattern: what it must find,
// across a wrapped comment line too, and the paper's sections it must
// not.
func TestDesignCitesMatch(t *testing.T) {
	for text, want := range map[string]string{
		"(DESIGN.md §12)":                       "12",
		"DESIGN §3 and §5":                      "3 5",
		"(DESIGN.md\n// section 31)":            "31",
		"DESIGN.md sections 4":                  "4",
		"paper section VI-A-2, buffered §VI-C":  "",
		"the paper's Section 4 and section 3.2": "",
	} {
		if got := strings.Join(designCites(text), " "); got != want {
			t.Errorf("designCites(%q) = %q, want %q", text, got, want)
		}
	}
}

// TestDesignReferencesResolve fails when a DESIGN.md section cited in a
// Go file, README.md or ROADMAP.md names no "## N." heading of
// DESIGN.md.
func TestDesignReferencesResolve(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllStringSubmatch(string(design), -1) {
		sections[m[1]] = true
	}
	files := []string{"README.md", "ROADMAP.md"}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	cites := 0
	for _, path := range files {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range designCites(string(text)) {
			cites++
			if !sections[n] {
				t.Errorf("%s cites DESIGN.md section %s, which has no \"## %s.\" heading", path, n, n)
			}
		}
	}
	if cites == 0 {
		t.Fatal("no DESIGN.md citations found: the pattern or the walk is broken")
	}
}
