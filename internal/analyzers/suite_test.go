package analyzers_test

import (
	"strings"
	"testing"

	"stcam/internal/analyzers"
	"stcam/internal/analyzers/analyzertest"
)

// Each analyzer runs over a golden fixture package; the asPath places the
// fixture inside the analyzer's scoped tree so path-matched analyzers fire.
// Every fixture dir carries positive cases (// want), negative cases (no
// want), and //lint:allow suppression cases.

func TestRPCUnderLockFixtures(t *testing.T) {
	analyzertest.Run(t, analyzers.RPCUnderLock, "testdata/rpcunderlock", "stcam/lintfixture")
}

func TestBufReleaseFixtures(t *testing.T) {
	analyzertest.Run(t, analyzers.BufRelease, "testdata/bufrelease", "stcam/lintfixture")
}

func TestFailClosedFixtures(t *testing.T) {
	analyzertest.Run(t, analyzers.FailClosed, "testdata/failclosed", "stcam/internal/wire/lintfixture")
}

func TestClockInjectFixtures(t *testing.T) {
	analyzertest.Run(t, analyzers.ClockInject, "testdata/clockinject", "stcam/internal/core/lintfixture")
}

func TestMetricNameFixtures(t *testing.T) {
	analyzertest.Run(t, analyzers.MetricName, "testdata/metricname", "stcam/lintfixture")
}

// The testonly fixture is one package, so its non-test uses are its own:
// interface satisfaction (a module interface, heap.Interface reached only
// through heap.Push, and fmt.Stringer, which only the fmt package declares),
// a json-tagged field, a method behind a type alias, and a used and a stale
// allow.
func TestTestOnlyFixtures(t *testing.T) {
	analyzertest.Run(t, analyzers.TestOnly, "testdata/testonly", "stcam/internal/lintfixture")
}

// A //lint:allow naming a known analyzer with no diagnostic under it is
// itself reported: suppressions cannot outlive the violations they document.
func TestUnusedAllowIsReported(t *testing.T) {
	loader, err := analyzers.NewLoader("testdata/unusedallow")
	if err != nil {
		t.Fatalf("loader: %v", err)
	}
	pkg, err := loader.LoadDir("testdata/unusedallow", "stcam/lintfixture")
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	diags := analyzers.RunPackage(pkg, []*analyzers.Analyzer{analyzers.MetricName})
	if len(diags) != 1 {
		t.Fatalf("got %d diagnostics, want 1 stale-suppression report: %v", len(diags), diags)
	}
	d := diags[0]
	if d.Analyzer != "lintdirective" || !strings.Contains(d.Message, "unused //lint:allow metricname") {
		t.Errorf("unexpected diagnostic: %s (%s)", d.Message, d.Analyzer)
	}
}

// Scoped analyzers must not fire outside their trees: the same fixtures loaded
// under an out-of-scope import path produce zero diagnostics.
func TestScopedAnalyzersRespectPath(t *testing.T) {
	for _, tc := range []struct {
		a   *analyzers.Analyzer
		dir string
	}{
		{analyzers.FailClosed, "testdata/failclosed"},
		{analyzers.ClockInject, "testdata/clockinject"},
	} {
		if tc.a.Match == nil {
			t.Fatalf("%s: expected a scoped Match", tc.a.Name)
		}
		if tc.a.Match("stcam/internal/obs") {
			t.Errorf("%s: matches stcam/internal/obs, expected scoped", tc.a.Name)
		}
	}
}
