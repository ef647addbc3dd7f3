package analysis

import (
	"go/ast"
	"go/token"
	"strings"
)

// Suppressions indexes //lint:allow directives so drivers can filter
// findings. A directive of the form
//
//	//lint:allow name1,name2 optional justification
//
// suppresses diagnostics from the named analyzers on the directive's own
// line and on the line immediately below it (so it can ride at the end of
// the offending line or stand alone above it).
type Suppressions struct {
	// byFile maps filename -> line -> analyzer names allowed there.
	byFile map[string]map[int][]string
}

// CollectSuppressions scans the comments of files for //lint:allow
// directives.
func CollectSuppressions(fset *token.FileSet, files []*ast.File) *Suppressions {
	s := &Suppressions{byFile: make(map[string]map[int][]string)}
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				names := strings.Fields(strings.TrimSpace(text))
				if len(names) == 0 {
					continue
				}
				pos := fset.Position(c.Pos())
				lines := s.byFile[pos.Filename]
				if lines == nil {
					lines = make(map[int][]string)
					s.byFile[pos.Filename] = lines
				}
				// Only the first field names analyzers; the rest is prose.
				for _, name := range strings.Split(names[0], ",") {
					if name != "" {
						lines[pos.Line] = append(lines[pos.Line], name)
					}
				}
			}
		}
	}
	return s
}

// Allows reports whether a diagnostic from the named analyzer at position
// pos is suppressed by a directive on the same or the preceding line.
func (s *Suppressions) Allows(analyzer string, pos token.Position) bool {
	if s == nil {
		return false
	}
	lines, ok := s.byFile[pos.Filename]
	if !ok {
		return false
	}
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, name := range lines[line] {
			if name == analyzer {
				return true
			}
		}
	}
	return false
}

// Directive is one //lint:allow occurrence in source form — the unit of
// suppression debt the driver inventories (-suppressions) and ratchets
// against a checked-in budget.
type Directive struct {
	// File, Line and Col locate the directive comment.
	File string
	Line int
	Col  int
	// Analyzers are the names the directive silences.
	Analyzers []string
	// Reason is the justification prose after the analyzer list.
	Reason string
}

// ListDirectives returns every //lint:allow directive in files, in
// source order.
func ListDirectives(fset *token.FileSet, files []*ast.File) []Directive {
	var out []Directive
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text, ok := strings.CutPrefix(c.Text, "//lint:allow")
				if !ok {
					continue
				}
				fields := strings.Fields(strings.TrimSpace(text))
				if len(fields) == 0 {
					continue
				}
				var names []string
				for _, name := range strings.Split(fields[0], ",") {
					if name != "" {
						names = append(names, name)
					}
				}
				pos := fset.Position(c.Pos())
				out = append(out, Directive{
					File:      pos.Filename,
					Line:      pos.Line,
					Col:       pos.Column,
					Analyzers: names,
					Reason:    strings.Join(fields[1:], " "),
				})
			}
		}
	}
	return out
}
