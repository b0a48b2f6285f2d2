package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"hash"
	"io"
	"os"
	"strings"
	"time"

	"repro/internal/bench"
)

// The sweep workload is one full paper evaluation, as the researcher
// re-running it sees it: bench.NewSuite plus every section `krallbench
// -all` prints, on two engine workers at the sweep's own 2M-branch budget,
// with the workload seed as ExpConfig.Seed. Machine search (Tables 3 and
// 5) dominates it, then trace replay and live runs; it does no HTTP or
// store work. Each section call is one operation.

const sweepWorkers = 2

// sweepDigestSeed0 is the SHA-256 of the sweep's output for seed 0 — the
// bytes `krallbench -all` writes to standard output, so the oracle is
// independent of this benchmark: regenerate it with
//
//	go run ./cmd/krallbench -all -quiet | sha256sum
//
//go:embed testdata/sweep_seed0.sha256
var sweepDigestSeed0 string

type sweepWL struct {
	cfg bench.ExpConfig
	// want is the committed digest (seed 0, full size only); first is the
	// digest of this run's first pass, which every later pass must repeat.
	want, first string
}

// sweepSection is one section call. run is nil for the figures section,
// the one that renders more than a table and adds the headline text
// krallbench prints last.
type sweepSection struct {
	id  string
	run func(s *bench.Suite) (*bench.Table, error)
}

func noErr(f func(s *bench.Suite) *bench.Table) func(*bench.Suite) (*bench.Table, error) {
	return func(s *bench.Suite) (*bench.Table, error) { return f(s), nil }
}

// sweepSections lists the sections in krallbench's output order.
var sweepSections = []sweepSection{
	{"table1", noErr((*bench.Suite).Table1)},
	{"table2", noErr((*bench.Suite).Table2)},
	{"table3", noErr((*bench.Suite).Table3)},
	{"table4", noErr((*bench.Suite).Table4)},
	{"table5", noErr((*bench.Suite).Table5)},
	{"staticpred", noErr((*bench.Suite).StaticPrediction)},
	{"figures", nil},
	{"measured", func(s *bench.Suite) (*bench.Table, error) { return s.MeasuredReplication(5) }},
	{"crossdataset", (*bench.Suite).CrossDataset},
	{"layout", (*bench.Suite).LayoutTable},
	{"scope", (*bench.Suite).ScopeTable},
	{"joint", (*bench.Suite).JointTable},
	{"indirect", (*bench.Suite).IndirectTable},
}

// renderFigures is the figures section as krallbench prints it, and its
// headline text.
func renderFigures(s *bench.Suite) (text, headline string) {
	figs := s.Figures()
	parts := []string{bench.FigureTable(figs).Render()}
	for _, f := range figs {
		parts = append(parts, bench.RenderFigure(f))
	}
	return strings.Join(parts, "\n"), bench.RenderHeadlines(bench.Headlines(figs))
}

// setupSweep compiles every program the sweep runs, so a broken catalog
// fails before timing, and loads the oracle's digest.
func setupSweep(o options) (workload, error) {
	w := &sweepWL{cfg: bench.DefaultConfig()}
	if o.short {
		w.cfg = bench.QuickConfig()
		w.cfg.Budget = 20_000
	} else if o.seed == 0 {
		w.want = strings.TrimSpace(sweepDigestSeed0)
	}
	w.cfg.Parallel = sweepWorkers
	w.cfg.Seed = o.seed
	for _, p := range append(bench.Workloads(), bench.IndirectWorkloads()...) {
		if _, err := bench.Compile(p); err != nil {
			return nil, fmt.Errorf("%s: %w", p.Name, err)
		}
	}
	return w, nil
}

func (w *sweepWL) close() error { return nil }

func (w *sweepWL) pass(tr *tracer) (*passStats, error) {
	ps := &passStats{counts: map[string]float64{}}
	start := time.Now()
	root := tr.begin(rootName, 0)
	defer func() { tr.end(root); ps.wall = time.Since(start) }()

	out := sha256.New()
	var suite *bench.Suite
	var err error
	op := func(name string, f func()) {
		t0 := time.Now()
		tr.call("bench."+name, root, f)
		ps.opTimes = append(ps.opTimes, time.Since(t0))
	}
	op("profile", func() { suite, err = bench.NewSuite(w.cfg) })
	if err != nil {
		return nil, err
	}
	var headline string
	var measured *bench.Table
	for _, sec := range sweepSections {
		var text string
		op(sec.id, func() {
			if sec.run == nil {
				text, headline = renderFigures(suite)
				return
			}
			var t *bench.Table
			if t, err = sec.run(suite); err == nil {
				text = t.Render()
				if sec.id == "measured" {
					measured = t
				}
			}
		})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", sec.id, err)
		}
		writeLine(out, text)
	}
	writeLine(out, headline)

	if err := w.check(out); err != nil {
		fmt.Fprintln(os.Stderr, "sweep:", err)
		ps.failed = len(ps.opTimes)
	}
	if ps.miss, ps.pred, ps.after, ps.before, err = measuredQuality(measured); err != nil {
		return nil, err
	}
	if tr != nil {
		st := suite.Engine().Stats()
		ps.counts["runner.jobs"] = float64(st.Jobs)
		ps.counts["runner.cache_hits"] = float64(st.CacheHits)
		ps.counts["runner.cache_lookups"] = float64(st.CacheHits + st.CacheMisses)
		ps.counts["trace.recorded_events"] = float64(st.RecordedEvents)
		ps.counts["trace.replayed_events"] = float64(st.ReplayedEvents)
		ps.counts["interp.live_runs"] = float64(st.LiveRuns)
	}
	return ps, nil
}

// writeLine hashes text as fmt.Fprintln prints it.
func writeLine(h hash.Hash, text string) { io.WriteString(h, text+"\n") }

// check is the sweep's oracle: the output digest must equal the committed
// one where there is one, and every pass of a run must repeat the first.
func (w *sweepWL) check(h hash.Hash) error {
	got := hex.EncodeToString(h.Sum(nil))
	if w.want != "" && got != w.want {
		return fmt.Errorf("output digest %s, committed digest %s", got, w.want)
	}
	if w.first == "" {
		w.first = got
	} else if got != w.first {
		return fmt.Errorf("output digest %s differs from the first pass's %s", got, w.first)
	}
	return nil
}

// measuredQuality reads the measured-replication table: the mean
// replicated misprediction rate and mean size factor over the workloads,
// as (rate sum, count, size-factor sum, count).
func measuredQuality(t *bench.Table) (miss, n, after, before float64, err error) {
	row := func(name string) ([]bench.Cell, error) {
		for _, r := range t.Rows {
			if r.Name == name {
				for _, c := range r.Cells {
					if !c.Valid {
						return nil, fmt.Errorf("measured table: %q row has an empty cell", name)
					}
				}
				return r.Cells, nil
			}
		}
		return nil, fmt.Errorf("measured table has no %q row", name)
	}
	rates, err := row("replicated (measured)")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	sizes, err := row("size factor")
	if err != nil {
		return 0, 0, 0, 0, err
	}
	for _, c := range rates {
		miss += c.Value / 100
	}
	for _, c := range sizes {
		after += c.Value
	}
	return miss, float64(len(rates)), after, float64(len(sizes)), nil
}

func (w *sweepWL) layers(tr *tracer, traced []*passStats) map[string]float64 {
	n := float64(len(traced))
	vals := map[string]float64{}
	for name, d := range tr.selfTimes() {
		if strings.HasPrefix(name, "bench.") {
			vals[name+"_s"] = d.Seconds() / n
		}
	}
	c := sumCounts(traced)
	vals["runner.jobs"] = c["runner.jobs"] / n
	vals["runner.cache_hit_ratio"] = c["runner.cache_hits"] / c["runner.cache_lookups"]
	vals["trace.recorded_events"] = c["trace.recorded_events"] / n
	vals["trace.replayed_events"] = c["trace.replayed_events"] / n
	vals["interp.live_runs"] = c["interp.live_runs"] / n
	return vals
}
