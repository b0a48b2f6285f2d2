package repro

import (
	"strings"
	"testing"
)

func TestFacadeCompileAndRun(t *testing.T) {
	prog, err := Compile(`
func main() int {
    var s int = 0;
    for var i int = 0; i < 5000; i = i + 1 {
        if i % 2 == 0 { s = s + 1; } else { s = s + 2; }
    }
    print(s);
    return s;
}`)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(prog, Config{MaxStates: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Baseline.Rate() <= res.Transformed.Rate() {
		t.Fatalf("replication did not help: %.2f -> %.2f", res.Baseline.Rate(), res.Transformed.Rate())
	}
	if res.Transformed.Rate() > 1 {
		t.Fatalf("alternating branch should be near perfect, got %.2f%%", res.Transformed.Rate())
	}
	if res.Baseline.Checksum != res.Transformed.Checksum {
		t.Fatal("semantics changed")
	}
	if res.SizeFactor() <= 1 {
		t.Fatal("no code growth recorded")
	}
}

func TestFacadeRunSourceErrors(t *testing.T) {
	if _, err := RunSource("func main() int { return x; }", Config{}); err == nil {
		t.Fatal("want compile error")
	}
	if !strings.Contains(mustErr(t).Error(), "undefined") {
		t.Fatal("error text unexpected")
	}
}

func mustErr(t *testing.T) error {
	t.Helper()
	_, err := RunSource("func main() int { return x; }", Config{})
	if err == nil {
		t.Fatal("want error")
	}
	return err
}

func TestFacadeWorkloads(t *testing.T) {
	ws := Workloads()
	if len(ws) != 8 {
		t.Fatalf("workloads = %d", len(ws))
	}
	names := map[string]bool{}
	for _, w := range ws {
		if w.Name == "" || w.Source == "" || w.Archetype == "" {
			t.Fatalf("incomplete workload %+v", w.Name)
		}
		if names[w.Name] {
			t.Fatalf("duplicate workload %s", w.Name)
		}
		names[w.Name] = true
	}
}

func TestFacadeSuiteQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("suite construction in -short mode")
	}
	cfg := QuickExpConfig()
	cfg.Budget = 20_000
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	tab := s.Table1()
	if len(tab.Cols) != 8 {
		t.Fatalf("cols = %d", len(tab.Cols))
	}
	if !strings.Contains(tab.Render(), "profile") {
		t.Fatal("render missing profile row")
	}
}
