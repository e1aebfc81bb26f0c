// Package analyzertest runs an analyzer over a golden fixture package and
// checks its diagnostics against // want comments, in the style of
// golang.org/x/tools/go/analysis/analysistest (self-contained on the standard
// library, like the framework it tests).
//
// A fixture is a directory of Go files forming one package. Every line that
// must produce a diagnostic carries a trailing comment:
//
//	reg.Counter("rpc." + peer).Inc() // want `not a compile-time constant`
//
// A line whose own comment is the finding, such as a stale //lint:allow,
// carries the want as a block comment before it:
//
//	/* want `unused //lint:allow` */ //lint:allow metricname stale reason
//
// The quoted text is a regexp matched against the diagnostic message. Every
// diagnostic must be covered by a want on its line and every want must be hit
// — extra or missing diagnostics fail the test. //lint:allow suppressions are
// applied before matching, so suppression fixtures simply carry no want.
package analyzertest

import (
	"fmt"
	"regexp"
	"strings"
	"testing"

	"stcam/internal/analyzers"
)

var wantRE = regexp.MustCompile("^(?://|/\\*)\\s*want\\s+(?:\"(.*?)\"|`(.*?)`)\\s*(?:\\*/)?$")

// Run loads fixtureDir as a package with import path asPath (which scoped
// analyzers match against, e.g. "stcam/internal/wire/lintfixture"), applies
// the analyzer, and diffs diagnostics against the fixture's want comments.
//
//lint:allow testonly the analyzers' fixture runner: analyzer tests are its only callers by design
func Run(t *testing.T, a *analyzers.Analyzer, fixtureDir, asPath string) {
	t.Helper()
	loader, err := analyzers.NewLoader(fixtureDir)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir(fixtureDir, asPath)
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixtureDir, err)
	}

	type wantKey struct {
		file string
		line int
	}
	wants := map[wantKey][]*regexp.Regexp{}
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat := m[1]
				if pat == "" {
					pat = m[2]
				}
				rx, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want pattern %q: %v", pkg.Fset.Position(c.Pos()), pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				k := wantKey{pos.Filename, pos.Line}
				wants[k] = append(wants[k], rx)
			}
		}
	}

	diags := analyzers.RunPackage(pkg, []*analyzers.Analyzer{a})

	matched := map[wantKey][]bool{}
	for _, d := range diags {
		k := wantKey{d.Pos.Filename, d.Pos.Line}
		rxs := wants[k]
		hit := false
		for i, rx := range rxs {
			if len(matched[k]) == 0 {
				matched[k] = make([]bool, len(rxs))
			}
			if !matched[k][i] && rx.MatchString(d.Message) {
				matched[k][i] = true
				hit = true
				break
			}
		}
		if !hit {
			t.Errorf("unexpected diagnostic at %s:%d: %s (%s)", k.file, k.line, d.Message, d.Analyzer)
		}
	}
	for k, rxs := range wants {
		for i, rx := range rxs {
			if len(matched[k]) <= i || !matched[k][i] {
				t.Errorf("missing diagnostic at %s:%d: want match for %q", k.file, k.line, rx)
			}
		}
	}
	if t.Failed() {
		var all []string
		for _, d := range diags {
			all = append(all, fmt.Sprintf("  %s:%d:%d %s (%s)", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer))
		}
		t.Logf("all diagnostics:\n%s", strings.Join(all, "\n"))
	}
}
