package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenCases pin krallcheck's stdout byte for byte: a workload through
// the joint driver, a switch program through the clustering pass, and the
// catalog-wide static prediction table.
var goldenCases = []struct {
	name string
	args []string
}{
	{"cc_joint", []string{"-workload", "cc", "-joint"}},
	{"dispatch", []string{"../../examples/bl/dispatch.bl"}},
	{"predict_catalog", []string{"-predict", "-budget", "20000"}},
}

// TestGolden compares krallcheck's stdout and exit code against committed
// golden files. Regenerate with:
//
//	go test ./cmd/krallcheck -run TestGolden -update
func TestGolden(t *testing.T) {
	for _, tc := range goldenCases {
		t.Run(tc.name, func(t *testing.T) {
			var out, errb bytes.Buffer
			if code := run(tc.args, &out, &errb); code != 0 {
				t.Fatalf("exit %d: %s", code, errb.String())
			}
			path := filepath.Join("testdata", "golden", tc.name+".txt")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create)", err)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("output differs from %s (run with -update after intended changes)\ngot:\n%s\nwant:\n%s",
					path, out.Bytes(), want)
			}
		})
	}
}
