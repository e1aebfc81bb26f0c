package analyzers_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"stcam/internal/analyzers"
)

// TestTreeIsClean runs the full analyzer suite over the real module — the
// same sweep `make lint` and CI run — and asserts zero diagnostics outside
// documented //lint:allow suppressions.
//
// This is the regression lock for the PR-9 audit: the suite's initial run
// over the tree found one genuine fail-open decode dispatch (the message
// factory in internal/wire, now newMessage, fixed with an explicit fail-closed default and pinned by
// TestNewMessageFailsClosedOnUnknownKind) and no surviving RPC-under-lock or
// missing-Release violations — the bug classes PRs 3, 5, 7 and 8 designed
// out stay designed out. Any new raw time.Now, dynamic metric key, lock-held
// blocking call, leaked pooled buffer, or exported API that only tests use
// fails this test before it ever reaches CI's lint step.
func TestTreeIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module; skipped in -short")
	}
	root := moduleRoot(t)
	loader, err := analyzers.NewLoader(root)
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkgs, err := loader.LoadAll()
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	if len(pkgs) == 0 {
		t.Fatal("loader found no packages")
	}
	suite := analyzers.All()
	total := 0
	for _, p := range pkgs {
		for _, d := range analyzers.RunPackage(p, suite) {
			rel, rerr := filepath.Rel(root, d.Pos.Filename)
			if rerr != nil {
				rel = d.Pos.Filename
			}
			t.Errorf("%s:%d:%d: %s (%s)", rel, d.Pos.Line, d.Pos.Column, d.Message, d.Analyzer)
			total++
		}
	}
	if total > 0 {
		t.Errorf("%d diagnostic(s) over the tree; fix them or document deliberate exceptions with //lint:allow", total)
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot(t *testing.T) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

// TestSuiteRegistry pins the analyzer set: every analyzer is registered,
// resolvable by name, and documented.
func TestSuiteRegistry(t *testing.T) {
	want := []string{"rpcunderlock", "bufrelease", "failclosed", "clockinject", "metricname", "testonly"}
	all := analyzers.All()
	if len(all) != len(want) {
		t.Fatalf("All() has %d analyzers, want %d", len(all), len(want))
	}
	for i, name := range want {
		a := all[i]
		if a.Name != name {
			t.Errorf("All()[%d] = %q, want %q", i, a.Name, name)
		}
		if sel := analyzers.ByName([]string{name}); len(sel) != 1 || sel[0] != a {
			t.Errorf("ByName(%q) does not resolve to the registered analyzer", name)
		}
		if !strings.Contains(a.Doc, " ") {
			t.Errorf("%s: missing doc string", name)
		}
	}
	if sel := analyzers.ByName([]string{"nosuch"}); len(sel) != 0 {
		t.Errorf("ByName of an unknown analyzer selected %d analyzers", len(sel))
	}
	if sel := analyzers.ByName(nil); len(sel) != len(want) {
		t.Errorf("ByName(nil) selected %d analyzers, want the full suite", len(sel))
	}
}
