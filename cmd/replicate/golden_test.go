package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden files from current output")

// goldenCases pin replicate's stdout byte for byte: the verbose strategy
// report, the joint driver with the verifier on, and a source file run to
// completion.
var goldenCases = []struct {
	name string
	args []string
}{
	{"compress_v", []string{"-workload", "compress", "-budget", "20000", "-v"}},
	{"cc_joint_check", []string{"-workload", "cc", "-joint", "-check", "-budget", "20000"}},
	{"alternating", []string{"../../examples/bl/alternating.bl"}},
}

// TestGolden compares replicate's stdout and exit code against committed
// golden files. Regenerate with:
//
//	go test ./cmd/replicate -run TestGolden -update
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
