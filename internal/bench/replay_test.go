package bench

import (
	"strings"
	"testing"
)

// renderTraceSufficient renders everything the replay engine is allowed to
// serve from recorded traces: Tables 1-5 (Table 2 is the fill-rate table)
// plus the figure curves and headline.
func renderTraceSufficient(t *testing.T, s *Suite) string {
	t.Helper()
	var b strings.Builder
	b.WriteString(s.Table1().Render())
	b.WriteString(s.Table2().Render())
	b.WriteString(s.Table3().Render())
	b.WriteString(s.Table4().Render())
	b.WriteString(s.Table5().Render())
	figs := s.Figures()
	b.WriteString(FigureTable(figs).Render())
	for _, f := range figs {
		b.WriteString(RenderFigure(f))
	}
	b.WriteString(RenderHeadlines(Headlines(figs)))
	return b.String()
}

// TestReplayMatchesLive is the replay engine's core equivalence property:
// a suite driven by recorded traces must render byte-identical results to
// one that interprets every experiment live (ForceLive), at both worker
// counts. Collectors only observe the (site, taken) stream, the recording
// hook captures it exactly, and per-collector replay preserves each
// collector's event order, so no output byte may move.
func TestReplayMatchesLive(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 30_000

	render := func(forceLive bool, parallel int) string {
		cfg.ForceLive = forceLive
		cfg.Parallel = parallel
		s, err := NewSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return renderTraceSufficient(t, s)
	}

	live := render(true, 1)
	for _, p := range []int{1, 8} {
		if got := render(false, p); got != live {
			t.Fatalf("parallel=%d: replay-driven output differs from live\nlive %d bytes, replay %d bytes, first divergence at byte %d",
				p, len(live), len(got), firstDiff(live, got))
		}
	}
}

// TestReplayMatchesLiveMeasured extends the equivalence to the measured
// experiments' replay-served rows: the profile-baseline row of
// MeasuredReplication (scored over the trace instead of annotating and
// running a clone) and the cross-dataset counts.
func TestReplayMatchesLiveMeasured(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 30_000

	render := func(forceLive bool) string {
		cfg.ForceLive = forceLive
		s, err := NewSuite(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		mt, err := s.MeasuredReplication(5)
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(mt.Render())
		ct, err := s.CrossDataset()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(ct.Render())
		lt, err := s.LayoutTable()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(lt.Render())
		st, err := s.ScopeTable()
		if err != nil {
			t.Fatal(err)
		}
		b.WriteString(st.Render())
		return b.String()
	}

	live := render(true)
	if got := render(false); got != live {
		t.Fatalf("replay-served measured rows differ from live\nfirst divergence at byte %d", firstDiff(live, got))
	}
}

// TestRecordOncePerWorkload asserts the engine counters that back the
// record-once claim: serving every trace-sufficient experiment costs
// exactly one recording per workload and zero live interpreter runs;
// adding the cross-dataset experiment costs exactly one more recording per
// workload (the alternate dataset) plus the transformed-clone runs.
func TestRecordOncePerWorkload(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 20_000
	cfg.Parallel = 1
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	renderTraceSufficient(t, s)

	n := int64(len(Workloads()))
	st := s.Engine().Stats()
	if st.TraceRecords != n {
		t.Fatalf("trace-sufficient experiments recorded %d traces, want %d (one per workload)", st.TraceRecords, n)
	}
	if st.LiveRuns != 0 {
		t.Fatalf("trace-sufficient experiments used %d live runs, want 0", st.LiveRuns)
	}
	if st.Replays == 0 || st.ReplayedEvents == 0 {
		t.Fatalf("no replays counted: %+v", st)
	}

	if _, err := s.CrossDataset(); err != nil {
		t.Fatal(err)
	}
	st = s.Engine().Stats()
	if st.TraceRecords != 2*n {
		t.Fatalf("after cross-dataset: %d recordings, want %d (two seeds per workload)", st.TraceRecords, 2*n)
	}
	if want := 2 * n; st.LiveRuns != want { // replicated clone on both datasets
		t.Fatalf("after cross-dataset: %d live runs, want %d", st.LiveRuns, want)
	}

	// The measured, layout and scope experiments read the replicated
	// program's dataset-A run that cross-dataset already made: n shared
	// runs plus n dataset-B runs in all.
	if _, err := s.MeasuredReplication(5); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LayoutTable(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ScopeTable(); err != nil {
		t.Fatal(err)
	}
	st = s.Engine().Stats()
	if want := 2 * n; st.LiveRuns != want {
		t.Fatalf("after measured, layout and scope: %d live runs, want %d (one shared run per replicated program)", st.LiveRuns, want)
	}

	// Repeating any trace-sufficient experiment must not interpret again.
	s.Table1()
	s.Table4()
	if st2 := s.Engine().Stats(); st2.TraceRecords != st.TraceRecords || st2.LiveRuns != st.LiveRuns {
		t.Fatalf("repeated tables re-interpreted: before %+v, after %+v", st, st2)
	}
}

// TestForceLiveCounters pins the other side of the capability split: a
// ForceLive suite must never record or replay.
func TestForceLiveCounters(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 20_000
	cfg.Parallel = 1
	cfg.ForceLive = true
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Table1()
	st := s.Engine().Stats()
	if st.TraceRecords != 0 || st.Replays != 0 {
		t.Fatalf("ForceLive suite touched the trace engine: %+v", st)
	}
	if st.LiveRuns != int64(len(Workloads())) {
		t.Fatalf("ForceLive profiling used %d live runs, want %d", st.LiveRuns, len(Workloads()))
	}
}

// TestArtifactMatchesProfile cross-checks the artifact against the
// replayed profile: the recorded event count must equal both the machine
// counter and the per-site totals accumulated by replay.
func TestArtifactMatchesProfile(t *testing.T) {
	cfg := QuickConfig()
	cfg.Budget = 25_000
	cfg.Parallel = 1
	s, err := NewSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range s.Data {
		if d.Art == nil {
			t.Fatalf("%s: no artifact", d.C.Workload.Name)
		}
		if d.Art.Trace.Len() != d.Branches {
			t.Fatalf("%s: trace has %d events, machine counted %d branches",
				d.C.Workload.Name, d.Art.Trace.Len(), d.Branches)
		}
		if got := d.Prof.Counts.TotalAll(); got != d.Branches {
			t.Fatalf("%s: replayed counts total %d, want %d", d.C.Workload.Name, got, d.Branches)
		}
		if d.Branches != cfg.Budget {
			t.Fatalf("%s: budget-truncated run recorded %d events, want %d",
				d.C.Workload.Name, d.Branches, cfg.Budget)
		}
	}
}
