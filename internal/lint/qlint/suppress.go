package qlint

import (
	"go/token"
	"regexp"
	"strconv"
	"strings"
)

// ignoreRe matches the auditable suppression form:
//
//	//qpptvet:ignore closetrail reason text...
//	//qpptvet:ignore closetrail,unreached reason text...
//
// Group 1 is the comma-separated analyzer list, group 2 the reason.
var ignoreRe = regexp.MustCompile(`^//\s*qpptvet:ignore\s+([a-z][a-z0-9_,]*)\s*(.*)$`)

type suppression struct {
	analyzers map[string]bool
	reason    string
	used      bool
	pos       token.Position
}

// suppressions indexes every qpptvet:ignore comment by "file\x00line".
type suppressions map[string][]*suppression

func collectSuppressions(prog *Program) suppressions {
	sups := suppressions{}
	for _, pkg := range prog.Packages {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := ignoreRe.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					reason := strings.TrimSpace(m[2])
					// Analyzer testdata marks expected diagnostics with
					// trailing "// want" comments; never count those as the
					// suppression's justification.
					if i := strings.Index(reason, "// want"); i >= 0 {
						reason = strings.TrimSpace(reason[:i])
					}
					pos := prog.Fset.Position(c.Pos())
					pos.Column = 1
					s := &suppression{analyzers: map[string]bool{}, reason: reason, pos: pos}
					for _, name := range strings.Split(m[1], ",") {
						s.analyzers[name] = true
					}
					key := posKey(pos.Filename, pos.Line)
					sups[key] = append(sups[key], s)
				}
			}
		}
	}
	return sups
}

func posKey(file string, line int) string {
	return file + "\x00" + strconv.Itoa(line)
}

// match returns the suppression with a reason that names analyzer on pos's
// line or the line above, or nil.
func (sups suppressions) match(analyzer string, pos token.Position) *suppression {
	for _, line := range []int{pos.Line, pos.Line - 1} {
		for _, s := range sups[posKey(pos.Filename, line)] {
			if s.analyzers[analyzer] && s.reason != "" {
				return s
			}
		}
	}
	return nil
}

// filterSuppressed drops the diagnostics a suppression covers and reports
// every suppression that is not auditable or not needed: one without a
// reason, one naming an analyzer that is not in the run (probably a typo
// hiding nothing), and one that covered no finding of the whole run.
func filterSuppressed(sups suppressions, analyzers []*Analyzer, diags []Diagnostic) []Diagnostic {
	known := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		known[a.Name] = true
	}
	kept := diags[:0]
	for _, d := range diags {
		if s := sups.match(d.Analyzer, d.Pos); s != nil {
			s.used = true
			continue
		}
		kept = append(kept, d)
	}
	for _, list := range sups {
		for _, s := range list {
			msg := ""
			switch {
			case s.reason == "":
				msg = "qpptvet:ignore needs a reason: //qpptvet:ignore <analyzer> <why>"
			case !s.used:
				msg = "qpptvet:ignore covers no finding; delete it"
			}
			for name := range s.analyzers {
				if !known[name] {
					msg = "qpptvet:ignore names unknown analyzer " + name
				}
			}
			if msg != "" {
				kept = append(kept, Diagnostic{Analyzer: "qpptvet", Pos: s.pos, Message: msg})
			}
		}
	}
	return kept
}
