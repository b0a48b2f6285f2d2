package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/analysis"
)

// The exit-code contract: 0 when no pass reported an error (warnings are
// allowed), 1 when any error diagnostic was reported, 2 on malformed input
// or internal failure — uniformly across the verify, -lint-only, and
// -predict paths. These tests pin each cell of that matrix.

// deadSrc carries branches SCCP decides: under -predict the dead-branch and
// always-taken findings are Warnings, so the exit stays 0.
const deadSrc = `
func main() int {
    var x int = 10;
    var s int = 0;
    if x > 100 { s = s + 7; } else { s = s + 1; }
    for var i int = 0; i < 1000; i = i + 1 {
        if i % 3 == 0 { s = s + 1; }
    }
    if x < 100 { s = s + 2; }
    print(s);
    return s;
}`

// modes are the three analysis paths the contract covers.
var modes = []struct {
	name string
	args []string
}{
	{"verify", nil},
	{"lint-only", []string{"-lint-only"}},
	{"predict", []string{"-predict"}},
}

func TestExitZeroOnCleanInput(t *testing.T) {
	path := write(t, "good.bl", goodSrc)
	for _, m := range modes {
		var out, errOut strings.Builder
		if code := run(append(append([]string{}, m.args...), path), &out, &errOut); code != 0 {
			t.Errorf("%s: exit %d, want 0\nstderr: %s\nstdout: %s", m.name, code, errOut.String(), out.String())
		}
	}
}

func TestExitZeroOnWarningDiagnostics(t *testing.T) {
	path := write(t, "dead.bl", deadSrc)
	// The SCCP findings surface only under -predict; the other two modes
	// must still pass the same source cleanly.
	for _, m := range modes {
		var out, errOut strings.Builder
		code := run(append(append([]string{}, m.args...), path), &out, &errOut)
		if code != 0 {
			t.Errorf("%s: exit %d, want 0 (warnings must not fail)\nstdout: %s",
				m.name, code, out.String())
		}
		if m.name == "predict" {
			for _, want := range []string{"dead-branch", "always-taken"} {
				if !strings.Contains(out.String(), want) {
					t.Errorf("predict: missing %q diagnostic:\n%s", want, out.String())
				}
			}
		}
	}
}

// TestExitOneOnErrorDiagnostics pins the error branch of the shared
// reporting path: an Error diagnostic must print even under -q and drive
// the per-target exit code to 1. No well-formed source reaches this branch
// today — ir.Validate rejects (exit 2) every shape CFGLint escalates to an
// error — so the contract is pinned at the reportDiags seam both commands
// funnel through.
func TestExitOneOnErrorDiagnostics(t *testing.T) {
	diags := []analysis.Diagnostic{
		{Sev: analysis.Warning, Pass: "cfglint", Msg: "advisory"},
		{Sev: analysis.Error, Pass: "equivalence", Msg: "terminator differs from origin"},
	}
	var quiet, loud strings.Builder
	errs, warns := reportDiags("t.bl", diags, true, &quiet)
	if errs != 1 || warns != 1 {
		t.Fatalf("errs=%d warns=%d, want 1/1", errs, warns)
	}
	if !strings.Contains(quiet.String(), "terminator differs") || strings.Contains(quiet.String(), "advisory") {
		t.Fatalf("-q must print errors and only errors:\n%s", quiet.String())
	}
	if errs, _ = reportDiags("t.bl", diags, false, &loud); errs != 1 {
		t.Fatalf("errs=%d, want 1", errs)
	}
	if !strings.Contains(loud.String(), "advisory") {
		t.Fatalf("warnings must print without -q:\n%s", loud.String())
	}
	// The exit mapping itself: checkOne and predictOne both return 1 iff
	// errs > 0, which the clean/warning tests above cover for the 0 side.
}

func TestExitTwoOnMalformedInput(t *testing.T) {
	bad := write(t, "bad.bl", "func main( {")
	missing := filepath.Join(t.TempDir(), "absent.bl")
	for _, m := range modes {
		for _, target := range []string{bad, missing} {
			var out, errOut strings.Builder
			if code := run(append(append([]string{}, m.args...), target), &out, &errOut); code != 2 {
				t.Errorf("%s/%s: exit %d, want 2", m.name, filepath.Base(target), code)
			}
			if !strings.Contains(errOut.String(), "krallcheck:") {
				t.Errorf("%s/%s: no diagnostic on stderr: %q", m.name, filepath.Base(target), errOut.String())
			}
		}
		var out, errOut strings.Builder
		if code := run(append(append([]string{}, m.args...), "-workload", "no-such-workload"), &out, &errOut); code != 2 {
			t.Errorf("%s: unknown workload exit %d, want 2", m.name, code)
		}
		// A seed override on a program that declares no wseed global is
		// malformed input, never a silently ignored flag.
		good := write(t, "good.bl", goodSrc)
		errOut.Reset()
		if code := run(append(append([]string{}, m.args...), "-seed", "7", good), &out, &errOut); code != 2 {
			t.Errorf("%s: -seed without wseed exit %d, want 2", m.name, code)
		}
		if want := "krallcheck: " + good + ": "; !strings.HasPrefix(errOut.String(), want) || !strings.Contains(errOut.String(), "wseed") {
			t.Errorf("%s: -seed without wseed: stderr %q, want %q…wseed…", m.name, errOut.String(), want)
		}
	}
}

func TestPredictCatalogExitsZero(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{"-predict", "-budget", "5000"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "ALL") || !strings.Contains(out.String(), "static-heur") {
		t.Fatalf("catalog table malformed:\n%s", out.String())
	}
}

func TestPredictQuietPrintsErrorsOnly(t *testing.T) {
	path := write(t, "dead.bl", deadSrc)
	var out, errOut strings.Builder
	if code := run([]string{"-predict", "-q", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("-q -predict must print nothing on a warning-only program, got:\n%s", out.String())
	}
}
