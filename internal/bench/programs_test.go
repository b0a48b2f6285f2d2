package bench

import (
	"testing"

	"repro/internal/core"
	"repro/internal/trace"
)

// TestWorkloadsCompile ensures every BL program in the suite parses,
// checks, and lowers.
func TestWorkloadsCompile(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			c, err := Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			if c.NSites < 10 {
				t.Fatalf("%s has only %d branch sites — too trivial", w.Name, c.NSites)
			}
			if err := c.Prog.Validate(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestWorkloadsRunNaturally executes each program at a tiny scale to
// completion and checks it behaves: terminates, prints output, executes a
// healthy number of branches, and is deterministic.
func TestWorkloadsRunNaturally(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			c, err := Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			cfg := core.RunConfig{Scale: 2}
			m1, err := c.Run(cfg, nil)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if m1.Branches < 1000 {
				t.Fatalf("only %d branches at scale 2", m1.Branches)
			}
			if m1.Prints == 0 {
				t.Fatal("no observable output")
			}
			m2, err := c.Run(cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m2.Checksum != m1.Checksum || m2.Branches != m1.Branches {
				t.Fatalf("nondeterministic: %d/%d vs %d/%d",
					m1.Checksum, m1.Branches, m2.Checksum, m2.Branches)
			}
		})
	}
}

// TestWorkloadSeedsChangeBehaviour checks the wseed global really changes
// the dataset (needed by the cross-dataset experiment).
func TestWorkloadSeedsChangeBehaviour(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			c, err := Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			m1, err := c.Run(core.RunConfig{Scale: 2, Seed: 1111}, nil)
			if err != nil {
				t.Fatal(err)
			}
			m2, err := c.Run(core.RunConfig{Scale: 2, Seed: 999983}, nil)
			if err != nil {
				t.Fatal(err)
			}
			if m1.Checksum == m2.Checksum {
				t.Fatal("different seeds produced identical checksums")
			}
		})
	}
}

// TestWorkloadBudgetStops checks the branch budget terminates long runs.
func TestWorkloadBudgetStops(t *testing.T) {
	for _, w := range Workloads() {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			c, err := Compile(w)
			if err != nil {
				t.Fatal(err)
			}
			counts := trace.NewCounts(c.NSites)
			m, err := c.Run(core.RunConfig{Budget: 20000, Scale: 1000000}, counts)
			if err != nil {
				t.Fatal(err)
			}
			if m.Branches != 20000 {
				t.Fatalf("branches = %d, want exactly 20000", m.Branches)
			}
			if counts.TotalAll() != 20000 {
				t.Fatalf("collector saw %d", counts.TotalAll())
			}
		})
	}
}

func TestByName(t *testing.T) {
	if _, err := ByName("compress"); err != nil {
		t.Fatal(err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("want error for unknown workload")
	}
}
