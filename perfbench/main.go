// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks every output it produces, and prints
// the workload's metrics as one JSON line on standard output.
//
// Usage (from the repository root; run.sh builds and runs it):
//
//	perfbench --workload sweep|compile|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 the line holds the end-to-end metrics; with --trace 1 a
// separate traced run records spans around every layer call and the line
// holds the per-layer metrics. README.md explains the workloads, the
// metrics and the layer map.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// spansDir receives each traced run's spans, one JSON object a line.
const spansDir = ".bench_build/spans"

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// short shrinks every workload to a smoke-test size; only the
	// benchmark's own tests set it.
	short bool
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var traceFlag int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", 0, "workload seed; the same seed gives the same inputs")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", traceFlag)
	}
	o.trace = traceFlag == 1
	if o.seconds <= 0 {
		return fmt.Errorf("--seconds %v: want a positive duration", o.seconds)
	}
	res, err := measure(o, stderr)
	if err != nil {
		return err
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}

// workload is one traffic mix. Set-up builds its inputs and whatever the
// passes share; a pass is a fixed list of operations, each timed.
type workload interface {
	// pass runs every operation once. tr is nil on untraced passes.
	pass(tr *tracer) (*passStats, error)
	// layers turns the traced passes into per-layer metrics.
	layers(tr *tracer, traced []*passStats) map[string]float64
	close() error
}

// workloadSpec names a workload, its set-up, and the names its own users
// know its generic end-to-end metrics by (printed on standard error).
type workloadSpec struct {
	name    string
	setup   func(o options) (workload, error)
	aliases [][2]string
}

var workloads = []workloadSpec{
	{"sweep", setupSweep, [][2]string{{"sweep_s", "pass_s"}}},
	{"compile", setupCompile, [][2]string{
		{"programs_per_s", "ops_per_s"}, {"compile_p50_ms", "op_p50_ms"}, {"compile_p90_ms", "op_p90_ms"},
	}},
	{"serve", setupServe, [][2]string{
		{"req_per_s", "ops_per_s"}, {"latency_p50_ms", "op_p50_ms"}, {"latency_p99_ms", "op_p99_ms"},
	}},
}

// A run sets its workload up at least minSetups times, and again until
// setupSeconds of set-up have gone by (at most maxSetups times); the
// median is setup_s, and the passes run on the last set-up. A cheap
// set-up is thus taken many times, so its median is not one cold start.
const (
	minSetups    = 5
	maxSetups    = 200
	setupSeconds = 1.0
)

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

// passStats is what one pass reports.
type passStats struct {
	wall    time.Duration
	opTimes []time.Duration // one per attempted operation
	failed  int
	// Prediction quality: mispredict_pct = 100·miss/pred and
	// code_growth = after/before, each summed over the run.
	miss, pred    float64
	after, before float64
	// counts are per-layer counters of a traced pass.
	counts map[string]float64
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// endToEnd lists the end-to-end metrics every workload reports.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"op_p90_ms", "ms"},
	{"op_p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
	{"mispredict_pct", "%"},
	{"code_growth", "ratio"},
}

// measure sets the workload up, runs passes for the requested time and
// assembles the result.
func measure(o options, log io.Writer) (*result, error) {
	i := slices.IndexFunc(workloads, func(w workloadSpec) bool { return w.name == o.workload })
	if i < 0 {
		return nil, fmt.Errorf("--workload %q: want one of %s", o.workload, strings.Join(workloadNames(), ", "))
	}
	spec := workloads[i]

	var setupTimes []float64
	var w workload
	for k, total := 0, 0.0; k < minSetups || (total < setupSeconds && k < maxSetups); k++ {
		if w != nil {
			if err := w.close(); err != nil {
				return nil, err
			}
		}
		start := time.Now()
		var err error
		if w, err = spec.setup(o); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", spec.name, err)
		}
		setupTimes = append(setupTimes, time.Since(start).Seconds())
		total += setupTimes[k]
	}
	defer w.close()

	var tr *tracer
	if o.trace {
		tr = newTracer()
	}
	var all, traced, untraced []*passStats
	budget := time.Duration(o.seconds * float64(time.Second))
	start := time.Now()
	// A traced run alternates untraced and traced passes, so the two can
	// be compared for the tracing overhead.
	for n := 0; n == 0 || time.Since(start) < budget || (o.trace && len(traced) == 0); n++ {
		var ptr *tracer
		if o.trace && n%2 == 1 {
			ptr = tr
		}
		// Start each pass on a collected heap, so no pass pays for the
		// garbage of the one before it.
		runtime.GC()
		ps, err := w.pass(ptr)
		if err != nil {
			return nil, fmt.Errorf("%s pass %d: %w", spec.name, n, err)
		}
		all = append(all, ps)
		if ptr != nil {
			traced = append(traced, ps)
		} else {
			untraced = append(untraced, ps)
		}
	}
	elapsed := time.Since(start)

	res := &result{Metrics: map[string]metric{}}
	var miss, pred, after, before float64
	for _, ps := range all {
		res.Attempted += len(ps.opTimes)
		res.Failed += ps.failed
		miss, pred, after, before = miss+ps.miss, pred+ps.pred, after+ps.after, before+ps.before
	}
	if res.Attempted == 0 {
		return nil, errors.New("no operation attempted")
	}
	res.Correct = res.Failed == 0
	if o.trace {
		res.Metrics = layerResult(w.layers(tr, traced), tr, traced, untraced)
		if err := tr.write(spansDir, fmt.Sprintf("%s-seed%d.jsonl", spec.name, o.seed)); err != nil {
			return nil, err
		}
	} else {
		vals := map[string]float64{
			"setup_s":        median(setupTimes),
			"pass_s":         median(passWalls(all)),
			"ops_per_s":      median(passRates(all)),
			"op_p50_ms":      median(passQuantiles(all, 0.50)),
			"op_p90_ms":      median(passQuantiles(all, 0.90)),
			"op_p99_ms":      median(passQuantiles(all, 0.99)),
			"peak_rss_mb":    peakRSSMB(),
			"mispredict_pct": 100 * miss / pred,
			"code_growth":    after / before,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metric{vals[m.name], m.unit}
		}
	}

	walls := passWalls(all)
	fmt.Fprintf(log, "perfbench: %s seed %d: %d passes (%d traced) in %.2fs, %d operations, %d failed; pass min/median/max %.3f/%.3f/%.3fs\n",
		spec.name, o.seed, len(all), len(traced), elapsed.Seconds(), res.Attempted, res.Failed,
		slices.Min(walls), median(walls), slices.Max(walls))
	if !o.trace {
		fmt.Fprintf(log, "  error_rate = %.6f\n", float64(res.Failed)/float64(res.Attempted))
		for _, a := range spec.aliases {
			m := res.Metrics[a[1]]
			fmt.Fprintf(log, "  %s = %.6g %s (%s)\n", a[0], m.Value, m.Unit, a[1])
		}
	}
	return res, nil
}

// layerResult completes a workload's per-layer metrics: the tracing
// summary is added, and every per-layer metric the workload does not
// exercise reads 0, so each traced run prints the whole list.
func layerResult(vals map[string]float64, tr *tracer, traced, untraced []*passStats) map[string]metric {
	tw, uw := median(passWalls(traced)), median(passWalls(untraced))
	vals["trace.wall_s"] = tw
	vals["trace.overhead_pct"] = 100 * (tw/uw - 1)
	vals["trace.self_sum_pct"] = tr.selfSumPct()
	out := map[string]metric{}
	for _, m := range perLayer {
		out[m.name] = metric{vals[m.name], m.unit}
	}
	return out
}

// passQuantiles lists each pass's q-quantile operation time in ms. Taking
// the median of these, rather than a quantile of the run's pooled
// operations, keeps a pass slowed by a noisy neighbour from moving it.
func passQuantiles(ps []*passStats, q float64) []float64 {
	var out []float64
	for _, p := range ps {
		var ops []float64
		for _, d := range p.opTimes {
			ops = append(ops, ms(d))
		}
		slices.Sort(ops)
		out = append(out, quantile(ops, q))
	}
	return out
}

// passRates lists each pass's operations per second.
func passRates(ps []*passStats) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, float64(len(p.opTimes))/p.wall.Seconds())
	}
	return out
}

func passWalls(ps []*passStats) []float64 {
	var out []float64
	for _, p := range ps {
		out = append(out, p.wall.Seconds())
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// median of unsorted values.
func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// quantile of sorted values, interpolating linearly between ranks.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return sorted[len(sorted)-1]
	}
	return sorted[lo] + (pos-float64(lo))*(sorted[lo+1]-sorted[lo])
}

// peakRSSMB is the process's peak resident set size (VmHWM) in MiB,
// falling back to the Go runtime's reserved memory where /proc is
// unavailable.
func peakRSSMB() float64 {
	if f, err := os.Open("/proc/self/status"); err == nil {
		defer f.Close()
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
				kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
				if err == nil {
					return kb / 1024
				}
			}
		}
	}
	var st runtime.MemStats
	runtime.ReadMemStats(&st)
	return float64(st.Sys) / (1 << 20)
}
