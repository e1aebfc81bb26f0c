// Package analyzers is the stcamlint suite: custom static analyzers that turn
// the DESIGN.md §5 prose invariants — the bug shapes this codebase has
// actually shipped and re-fixed — into compiler-enforced rules.
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape
// (Analyzer, Pass, Diagnostic) but is self-contained on the standard library:
// the build environment pins dependencies, so packages are loaded with
// go/parser and type-checked with go/types against a module-aware importer
// (see load.go) instead of x/tools/go/packages. If the x/tools dependency is
// ever vendored, each analyzer's Run is a thin port away from a real
// *analysis.Analyzer.
//
// Suppression: a diagnostic is suppressed by a directive comment
//
//	//lint:allow <analyzer> <reason>
//
// on the flagged line or the line directly above it. The reason is mandatory
// — an allow without a documented reason is itself a diagnostic.
package analyzers

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer describes one static check.
type Analyzer struct {
	// Name is the directive key (//lint:allow <name> ...) and CLI filter.
	Name string
	// Doc is the one-paragraph description shown by stcamlint -help.
	Doc string
	// Match restricts the analyzer to packages whose import path it accepts.
	// Nil means every package.
	Match func(pkgPath string) bool
	// Run reports diagnostics through pass.Report.
	Run func(pass *Pass)
}

// Pass carries one package through one analyzer.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	loader *Loader // the package's loader, for module-wide passes
	diags  *[]Diagnostic
}

// Report records a diagnostic at pos.
func (p *Pass) Report(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// All returns the full stcamlint analyzer suite in stable order.
func All() []*Analyzer {
	return []*Analyzer{
		RPCUnderLock,
		BufRelease,
		FailClosed,
		ClockInject,
		MetricName,
		TestOnly,
	}
}

// ByName resolves a comma-separated analyzer list; empty selects All.
func ByName(names []string) []*Analyzer {
	if len(names) == 0 {
		return All()
	}
	want := map[string]bool{}
	for _, n := range names {
		want[n] = true
	}
	var out []*Analyzer
	for _, a := range All() {
		if want[a.Name] {
			out = append(out, a)
		}
	}
	return out
}

// pathIn reports whether pkgPath is path or a subpackage of it.
func pathIn(pkgPath string, roots ...string) bool {
	for _, r := range roots {
		if pkgPath == r || len(pkgPath) > len(r) && pkgPath[:len(r)] == r && pkgPath[len(r)] == '/' {
			return true
		}
	}
	return false
}
