package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func write(t *testing.T, name, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const goodSrc = `
func main() int {
    var s int = 0;
    for var i int = 0; i < 4000; i = i + 1 {
        if i % 2 == 0 { s = s + 1; } else { s = s + 2; }
    }
    print(s);
    return s;
}`

func TestCheckCleanProgram(t *testing.T) {
	path := write(t, "good.bl", goodSrc)
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "replication verified") {
		t.Fatalf("missing verification line:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "0 errors") {
		t.Fatalf("unexpected errors:\n%s", out.String())
	}
}

func TestCheckJointAndLintOnly(t *testing.T) {
	path := write(t, "good.bl", goodSrc)
	var out, errOut strings.Builder
	if code := run([]string{"-joint", path}, &out, &errOut); code != 0 {
		t.Fatalf("joint exit %d: %s", code, errOut.String())
	}
	out.Reset()
	if code := run([]string{"-lint-only", path}, &out, &errOut); code != 0 {
		t.Fatalf("lint-only exit %d: %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "replication not checked") {
		t.Fatalf("lint-only must skip verification:\n%s", out.String())
	}
}

func TestCheckExamples(t *testing.T) {
	paths, err := filepath.Glob("../../examples/bl/*.bl")
	if err != nil || len(paths) == 0 {
		t.Skipf("no examples found: %v", err)
	}
	var out, errOut strings.Builder
	if code := run(paths, &out, &errOut); code != 0 {
		t.Fatalf("exit %d on examples, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	if got := strings.Count(out.String(), "replication verified"); got != len(paths) {
		t.Fatalf("%d of %d examples verified:\n%s", got, len(paths), out.String())
	}
}

// TestCheckDispatchClustering pins the indirect family's pass on the
// dispatch example: the skewed switch must be clustered and re-derived.
func TestCheckDispatchClustering(t *testing.T) {
	path := filepath.Join("..", "..", "examples", "bl", "dispatch.bl")
	if _, err := os.Stat(path); err != nil {
		t.Skipf("dispatch example missing: %v", err)
	}
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d, stderr: %s\nstdout: %s", code, errOut.String(), out.String())
	}
	if !strings.Contains(out.String(), "clustering verified (1 of 1 dispatch sites)") {
		t.Fatalf("missing clustering verdict:\n%s", out.String())
	}
}

func TestMalformedSourceExitsTwo(t *testing.T) {
	path := write(t, "bad.bl", "func main( {")
	var out, errOut strings.Builder
	if code := run([]string{path}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "krallcheck:") {
		t.Fatalf("no diagnostic on stderr: %q", errOut.String())
	}
}

func TestMissingFileExitsTwo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run([]string{filepath.Join(t.TempDir(), "absent.bl")}, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
}

func TestNoArgsExitsTwo(t *testing.T) {
	var out, errOut strings.Builder
	if code := run(nil, &out, &errOut); code != 2 {
		t.Fatalf("exit %d, want 2", code)
	}
	if !strings.Contains(errOut.String(), "usage:") {
		t.Fatalf("no usage on stderr: %q", errOut.String())
	}
}

func TestBadStatesExitsTwo(t *testing.T) {
	path := write(t, "good.bl", goodSrc)
	var out, errOut strings.Builder
	for _, n := range []string{"1", "11"} {
		if code := run([]string{"-states", n, path}, &out, &errOut); code != 2 {
			t.Fatalf("-states %s: exit %d, want 2", n, code)
		}
	}
}

func TestQuietSuppressesSummary(t *testing.T) {
	path := write(t, "good.bl", goodSrc)
	var out, errOut strings.Builder
	if code := run([]string{"-q", path}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	if out.Len() != 0 {
		t.Fatalf("-q must print nothing on a clean program, got:\n%s", out.String())
	}
}
