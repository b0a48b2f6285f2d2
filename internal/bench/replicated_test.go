package bench

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/replicate"
	"repro/internal/statemachine"
)

// TestReplicatedRunMatchesFreshClone checks the shared replicated run
// against the way each experiment used to build and run its own copy: a
// fresh selection, clone and transform, then runProgram for the
// static-prediction counters and countingRun for the branch and block
// counts. Every figure the four measured experiments read must agree.
func TestReplicatedRunMatchesFreshClone(t *testing.T) {
	s := testSuite(t)
	for _, d := range s.Data {
		r, err := s.replicatedFor(d, 5)
		if err != nil {
			t.Fatal(err)
		}
		choices := statemachine.Select(d.Prof, d.C.Features, statemachine.Options{MaxStates: 5, MaxPathLen: 1})
		clone := ir.CloneProgram(d.C.Prog)
		st, err := replicate.ApplyOpts(clone, choices, predict.ProfileStatic(d.Prof.Counts).Preds,
			replicate.Options{MaxSizeFactor: 3})
		if err != nil {
			t.Fatal(err)
		}
		m, err := runProgram(clone, RunConfig{Budget: s.Cfg.Budget, Seed: s.Cfg.Seed, Scale: scaleFor(s.Cfg)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		counts, cm, err := countingRun(clone, s.Cfg)
		if err != nil {
			t.Fatal(err)
		}
		name := d.C.Workload.Name
		if r.Predicted != m.Predicted || r.Mispredicted != m.Mispredicted {
			t.Errorf("%s: shared run %d/%d mispredicted/predicted, fresh clone %d/%d",
				name, r.Mispredicted, r.Predicted, m.Mispredicted, m.Predicted)
		}
		if !reflect.DeepEqual(r.Counts, counts) {
			t.Errorf("%s: shared run's branch counts differ from the fresh clone's", name)
		}
		if !reflect.DeepEqual(r.BlockCounts, cm.BlockCounts()) {
			t.Errorf("%s: shared run's block counts differ from the fresh clone's", name)
		}
		if !reflect.DeepEqual(r.Stats, st) {
			t.Errorf("%s: shared stats %+v, fresh clone %+v", name, *r.Stats, *st)
		}
		if r.Prog.String() != clone.String() {
			t.Errorf("%s: shared program differs from the fresh clone", name)
		}
	}
}

// TestSharedReplicatedRunIsReadOnly renders the four experiments that read
// the shared replicated programs concurrently, twice, on two workers. The
// tables must repeat, and no experiment may change a shared program. Run
// under -race it also checks that the concurrent reads are race-free.
func TestSharedReplicatedRunIsReadOnly(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 20_000
	cfg.Parallel = 2
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	before := make([]string, len(s.Data))
	for i, d := range s.Data {
		r, err := s.replicatedFor(d, 5)
		if err != nil {
			t.Fatal(err)
		}
		before[i] = r.Prog.String()
	}
	sections := []func() (*Table, error){
		func() (*Table, error) { return s.MeasuredReplication(5) },
		s.CrossDataset,
		s.LayoutTable,
		s.ScopeTable,
	}
	render := func() []string {
		out := make([]string, len(sections))
		var wg sync.WaitGroup
		for i, sec := range sections {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tab, err := sec()
				if err != nil {
					t.Error(err)
					return
				}
				out[i] = tab.Render()
			}()
		}
		wg.Wait()
		return out
	}
	first, second := render(), render()
	if !reflect.DeepEqual(first, second) {
		t.Fatalf("the measured sections rendered differently the second time:\n%q\n%q", first, second)
	}
	for i, d := range s.Data {
		r, err := s.replicatedFor(d, 5)
		if err != nil {
			t.Fatal(err)
		}
		if r.Prog.String() != before[i] {
			t.Errorf("%s: the shared replicated program changed while the sections read it", d.C.Workload.Name)
		}
	}
}
