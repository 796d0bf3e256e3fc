package analysis_test

import (
	"strings"
	"testing"

	"netconstant/internal/analysis"
	"netconstant/internal/analysis/analysistest"
)

// Running floatsafe and checkederr together over the suppression fixture
// proves //netlint:allow silences exactly the named analyzer on the
// annotated line and nothing else: the fixture's annotated line carries a
// violation of each, and only the checkederr diagnostic survives.
func TestAllowSuppressesOnlyNamedAnalyzer(t *testing.T) {
	analysistest.Run(t, "testdata", "suppress/a", analysis.Floatsafe, analysis.Checkederr)
}

// Broken allow comments are findings in their own right, attributed to
// the netlint-allow pseudo-analyzer and never suppressible.
func TestAllowMalformed(t *testing.T) {
	loader := &analysis.Loader{}
	pkg, err := loader.CheckDir("testdata/src/suppress/bad", "suppress/bad")
	if err != nil {
		t.Fatal(err)
	}
	diags, err := analysis.NewSession().Run(pkg, analysis.All())
	if err != nil {
		t.Fatal(err)
	}
	wantSubstrings := []string{
		"missing analyzer name and reason",
		`unknown analyzer "nosuchanalyzer"`,
		"netlint:allow floatsafe needs a reason",
	}
	if len(diags) != len(wantSubstrings) {
		t.Fatalf("got %d diagnostics, expected %d: %+v", len(diags), len(wantSubstrings), diags)
	}
	for i, d := range diags {
		if d.Analyzer != analysis.AllowAnalyzerName {
			t.Errorf("diag %d attributed to %q, expected %q", i, d.Analyzer, analysis.AllowAnalyzerName)
		}
		if !strings.Contains(d.Message, wantSubstrings[i]) {
			t.Errorf("diag %d = %q, expected it to mention %q", i, d.Message, wantSubstrings[i])
		}
	}
}
