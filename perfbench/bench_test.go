package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/bench"
	"repro/internal/interp"
	"repro/internal/lang"
	"repro/internal/replicate"
)

// benchmarkFile is the repository's BENCHMARK.json, whose metric names and
// units every run must print.
type benchmarkFile struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestSmoke runs every workload at smoke size, untraced and traced, and
// checks that each metric BENCHMARK.json names is printed with its unit.
func TestSmoke(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		for _, traced := range []bool{false, true} {
			o := options{workload: w.Name, seed: 1, seconds: 1e-3, trace: traced, short: true}
			res, err := measure(o, io.Discard)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.Name, traced, res.Correct, res.Attempted, res.Failed)
			}
			want := b.EndToEnd
			if traced {
				want = b.PerLayer
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json names %d", w.Name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", w.Name, traced, m.Name, got, ok, m.Unit)
				}
				if !traced && !(got.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.Name, m.Name, got.Value)
				}
			}
		}
	}
}

// TestSweepOracleCountsMismatch injects a wrong committed digest: every
// operation of the pass must count as failed.
func TestSweepOracleCountsMismatch(t *testing.T) {
	wl, err := setupSweep(options{seed: 1, short: true})
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*sweepWL)
	w.want = strings.Repeat("0", 64)
	ps, err := w.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps.failed == 0 || ps.failed != len(ps.opTimes) {
		t.Fatalf("failed %d of %d operations, want all", ps.failed, len(ps.opTimes))
	}

	// Without a committed digest, a later pass must repeat the first.
	w = &sweepWL{}
	h1, h2 := sha256.New(), sha256.New()
	io.WriteString(h1, "pass output")
	io.WriteString(h2, "other output")
	if err := w.check(h1); err != nil {
		t.Fatalf("first pass: %v", err)
	}
	if err := w.check(h2); err == nil {
		t.Fatal("a pass whose output differs from the first passed the oracle")
	}
}

// TestCompileOracle injects each kind of mismatch into a good outcome.
func TestCompileOracle(t *testing.T) {
	good := func() *compileOutcome {
		r := func() runOut { return runOut{m: &interp.Machine{Checksum: 42, Prints: 3}, ret: 7, finished: true} }
		return &compileOutcome{orig: r(), base: r(), repl: r(), stats: &replicate.Stats{Verified: true}}
	}
	if err := checkReplicated(good()); err != nil {
		t.Fatalf("good outcome: %v", err)
	}
	bad := map[string]func(o *compileOutcome){
		"replicated checksum": func(o *compileOutcome) { o.repl.m.Checksum++ },
		"baseline checksum":   func(o *compileOutcome) { o.base.m.Checksum++ },
		"print count":         func(o *compileOutcome) { o.repl.m.Prints-- },
		"return value":        func(o *compileOutcome) { o.repl.ret++ },
		"baseline unfinished": func(o *compileOutcome) { o.base.finished = false },
		"no prints": func(o *compileOutcome) {
			for _, r := range []runOut{o.orig, o.base, o.repl} {
				r.m.Checksum, r.m.Prints = 0, 0
			}
		},
		// All three runs stopped at the budget before printing: equal, and
		// still no evidence the programs agree.
		"all truncated": func(o *compileOutcome) {
			for _, r := range []*runOut{&o.orig, &o.base, &o.repl} {
				r.m.Checksum, r.m.Prints, r.ret, r.finished = 0, 0, 0, false
			}
		},
		"unverified": func(o *compileOutcome) { o.stats.Verified = false },
		"verifier error": func(o *compileOutcome) {
			o.stats.Diags = []analysis.Diagnostic{{Sev: analysis.Error, Msg: "injected"}}
		},
	}
	for name, inject := range bad {
		o := good()
		inject(o)
		if checkReplicated(o) == nil {
			t.Errorf("%s: mismatch passed the oracle", name)
		}
	}

	// A pass counts a program whose pipeline fails, or whose runs stop at
	// the branch budget, as failed, not skipped.
	wl, err := setupCompile(options{seed: 1, short: true})
	if err != nil {
		t.Fatal(err)
	}
	c := wl.(*compileWL)
	endless := `
func main() int {
    var s int = 0;
    for var i int = 0; i < 1000000000; i = i + 1 { s = s + i; }
    print(s);
    return s;
}`
	c.programs = append(c.programs[:1],
		compileProgram{name: "broken", src: "func main( {", budget: progenBudget},
		compileProgram{name: "endless", src: endless, budget: progenBudget})
	ps, err := c.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps.failed != 2 || len(ps.opTimes) != 3 {
		t.Fatalf("failed %d of %d, want 2 of 3", ps.failed, len(ps.opTimes))
	}
}

// TestFixedDatasets re-derives fixedDatasets: each catalog and dispatch
// program's first dataset of 0, 1, 2, … on which it finishes within
// fixedBudget.
func TestFixedDatasets(t *testing.T) {
	for _, w := range append(bench.Workloads(), bench.IndirectWorkloads()...) {
		p := compileProgram{name: w.Name, src: w.Source, budget: fixedBudget, fixed: true}
		for ; ; p.wseed++ {
			r, err := runSource(p)
			if err != nil {
				t.Fatalf("%s dataset %d: %v", w.Name, p.wseed, err)
			}
			if r.finished {
				break
			}
		}
		if want := fixedDatasets[w.Name]; p.wseed != want {
			t.Errorf("%s: first dataset that finishes is %d, fixedDatasets gives %d", w.Name, p.wseed, want)
		}
	}
}

var update = flag.Bool("update", false, "rewrite testdata/progen_seeds.txt")

// TestProgenCorpus re-derives the committed progen corpus (progenSeeds)
// for every tenth slot; with -update it derives every slot and rewrites
// the file.
func TestProgenCorpus(t *testing.T) {
	if testing.Short() && !*update {
		t.Skip("derives corpus programs")
	}
	derive := func(i int) int64 {
		for j := int64(0); ; j++ {
			seed := int64(i)*1_000_003 + j
			r, err := runSource(progenProgram(i, seed))
			if err != nil {
				t.Fatalf("progen seed %d: %v", seed, err)
			}
			if r.finished && r.m.Branches >= progenMinBranches {
				return seed
			}
		}
	}
	if *update {
		var b strings.Builder
		for i := 0; i < progenCount; i++ {
			fmt.Fprintln(&b, derive(i))
		}
		if err := os.WriteFile("testdata/progen_seeds.txt", []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	seeds, err := corpusSeeds()
	if err != nil {
		t.Fatal(err)
	}
	if len(seeds) != progenCount {
		t.Fatalf("corpus holds %d seeds, want %d", len(seeds), progenCount)
	}
	for i := 0; i < progenCount; i += 10 {
		if got := derive(i); got != seeds[i] {
			t.Errorf("slot %d: derived seed %d, committed %d", i, got, seeds[i])
		}
	}
}

// TestServeOracle injects each kind of bad response.
func TestServeOracle(t *testing.T) {
	o := newRespOracle()
	plain := serveReq{endpoint: "profile", body: []byte(`{"workload":"cc"}`)}
	checked := serveReq{endpoint: "replicate", body: []byte(`{"workload":"cc","check":true}`), checked: true}
	if err := o.check(plain, 200, []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := o.check(plain, 200, []byte(`{"a":1}`)); err != nil {
		t.Fatalf("identical repeat: %v", err)
	}
	if o.check(plain, 200, []byte(`{"a":2}`)) == nil {
		t.Error("a response differing from the first passed the oracle")
	}
	if o.check(serveReq{endpoint: "score", body: []byte(`{}`)}, 429, nil) == nil {
		t.Error("a refused request passed the oracle")
	}
	if o.check(serveReq{endpoint: "score", body: []byte(`{}`)}, 500, nil) == nil {
		t.Error("a 5xx passed the oracle")
	}
	if err := o.check(checked, 200, []byte(`{"verified":true,"semantics_verified":true}`)); err != nil {
		t.Fatal(err)
	}
	for _, body := range []string{`{"verified":false,"semantics_verified":true}`, `{"verified":true,"semantics_verified":false}`, `not json`} {
		if newRespOracle().check(checked, 200, []byte(body)) == nil {
			t.Errorf("check=true replicate %s passed the oracle", body)
		}
	}

	// A pass counts every request whose response differs from the first
	// as failed: corrupt the recorded analyze responses from set-up.
	wl, err := setupServe(options{seed: 1, short: true})
	if err != nil {
		t.Fatal(err)
	}
	w := wl.(*serveWL)
	defer w.close()
	for k := range w.oracle.first {
		w.oracle.first[k] = sha256.Sum256([]byte("injected"))
	}
	ps, err := w.pass(nil)
	if err != nil {
		t.Fatal(err)
	}
	if ps.failed == 0 {
		t.Fatal("no request counted as failed after the recorded responses were corrupted")
	}
}

// runSource compiles p and runs it once.
func runSource(p compileProgram) (runOut, error) {
	prog, err := lang.Compile(p.src)
	if err != nil {
		return runOut{}, err
	}
	return execute(prog, p, nil)
}
