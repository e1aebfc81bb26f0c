package analyzers

import "sort"

// RunPackage applies the analyzers to one loaded package and returns the
// diagnostics that survive //lint:allow suppression, sorted by position.
// Unused directives naming a known analyzer are themselves reported, so a
// suppression can never outlive the violation it documented.
func RunPackage(p *Package, as []*Analyzer) []Diagnostic {
	var raw []Diagnostic
	for _, a := range as {
		if a.Match != nil && !a.Match(p.Path) {
			continue
		}
		pass := &Pass{
			Analyzer: a,
			Fset:     p.Fset,
			Files:    p.Files,
			Pkg:      p.Pkg,
			Info:     p.Info,
			loader:   p.loader,
			diags:    &raw,
		}
		a.Run(pass)
	}

	var out []Diagnostic
	allows := collectAllows(p.Fset, p.Files, func(d Diagnostic) { out = append(out, d) })
	for _, d := range raw {
		if !suppressed(d, allows) {
			out = append(out, d)
		}
	}
	known := map[string]bool{}
	for _, a := range as {
		known[a.Name] = true
	}
	for _, a := range allows {
		if !a.used && known[a.Analyzer] {
			out = append(out, Diagnostic{Analyzer: "lintdirective", Pos: a.Pos,
				Message: "unused //lint:allow " + a.Analyzer + ": no diagnostic here — delete the stale suppression"})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
	return out
}
