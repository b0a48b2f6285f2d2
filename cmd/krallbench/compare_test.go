package main

import (
	"bytes"
	"io"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/results"
)

func writeDoc(t *testing.T, dir, name string, mutate func(*results.Document)) string {
	t.Helper()
	doc := &results.Document{
		Schema:            results.Schema,
		Budget:            20000,
		Workers:           1,
		TotalSeconds:      10,
		BranchesPerSecond: 5_000_000,
		Service: &results.Service{
			Concurrency: 4,
			Single:      results.Phase{BatchSize: 1, Requests: 512, RequestsPerSecond: 2000, BranchesPerSecond: 40_000_000},
			Batch:       results.Phase{BatchSize: 8, Requests: 512, RequestsPerSecond: 5000, BranchesPerSecond: 100_000_000},
			Speedup:     2.5,
		},
		Trace: &results.Trace{
			Budget:                    20000,
			Rounds:                    3,
			SinglePassEventsPerSecond: 40_000_000,
			RunAwareEventsPerSecond:   300_000_000,
			ProfileEventsPerSecond:    50_000_000,
			Speedup:                   7.5,
		},
	}
	if mutate != nil {
		mutate(doc)
	}
	path := filepath.Join(dir, name)
	if err := results.Write(path, doc); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareWithinTolerance: small dips pass, and the report lists every
// gated metric.
func TestCompareWithinTolerance(t *testing.T) {
	dir := t.TempDir()
	oldP := writeDoc(t, dir, "old.json", nil)
	newP := writeDoc(t, dir, "new.json", func(d *results.Document) {
		d.BranchesPerSecond *= 0.90 // -10%, inside the 15% default
		d.Service.Batch.RequestsPerSecond *= 1.10
	})
	var out bytes.Buffer
	if err := run([]string{"-compare", oldP, newP}, &out, io.Discard); err != nil {
		t.Fatalf("compare failed on a within-tolerance dip: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"branches_per_second",
		"service.single.requests_per_second",
		"service.batch.requests_per_second",
		"service.batch.branches_per_second",
		"trace.single_pass_events_per_second",
		"trace.run_aware_events_per_second",
		"trace.profile_events_per_second",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("report missing metric %q:\n%s", want, out.String())
		}
	}
}

// TestCompareCatchesRegression is the gate's reason to exist: a 20% drop
// must exit non-zero, both hand-written and via -degrade (the synthetic
// regression CI injects to prove the gate fires).
func TestCompareCatchesRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeDoc(t, dir, "old.json", nil)
	newP := writeDoc(t, dir, "new.json", func(d *results.Document) {
		d.Service.Batch.RequestsPerSecond *= 0.80 // -20% > 15% tolerance
	})
	var out, errOut bytes.Buffer
	err := run([]string{"-compare", oldP, newP}, &out, &errOut)
	if err == nil {
		t.Fatalf("compare passed a 20%% regression:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "REGRESSION") || !strings.Contains(errOut.String(), "service.batch.requests_per_second") {
		t.Errorf("regression not reported:\nstdout:\n%s\nstderr:\n%s", out.String(), errOut.String())
	}

	// Same drop, produced by -degrade.
	degraded := filepath.Join(dir, "regressed.json")
	if err := run([]string{"-compare", oldP, "-degrade", "0.8", "-out", degraded}, io.Discard, io.Discard); err != nil {
		t.Fatalf("-degrade: %v", err)
	}
	if err := run([]string{"-compare", oldP, degraded}, io.Discard, io.Discard); err == nil {
		t.Fatal("compare passed the -degrade 0.8 document")
	}
	// A loose tolerance must accept the same pair.
	if err := run([]string{"-compare", oldP, degraded, "-tolerance", "0.5"}, io.Discard, io.Discard); err != nil {
		t.Fatalf("compare -tolerance 0.5 rejected a 20%% drop: %v", err)
	}
}

// TestCompareCatchesTraceRegression: the trace section is gated like the
// others — a 20% replay-throughput drop fails, -degrade injects one, and
// a baseline without a trace section gates only on the remaining metrics.
func TestCompareCatchesTraceRegression(t *testing.T) {
	dir := t.TempDir()
	oldP := writeDoc(t, dir, "old.json", nil)
	newP := writeDoc(t, dir, "new.json", func(d *results.Document) {
		d.Trace.RunAwareEventsPerSecond *= 0.80
	})
	var out, errOut bytes.Buffer
	if err := run([]string{"-compare", oldP, newP}, &out, &errOut); err == nil {
		t.Fatalf("compare passed a 20%% trace regression:\n%s", out.String())
	}
	if !strings.Contains(errOut.String(), "trace.run_aware_events_per_second") {
		t.Errorf("trace regression not attributed:\n%s", errOut.String())
	}

	degraded := filepath.Join(dir, "regressed.json")
	if err := run([]string{"-compare", oldP, "-degrade", "0.8", "-out", degraded}, io.Discard, io.Discard); err != nil {
		t.Fatalf("-degrade: %v", err)
	}
	reg, err := results.Read(degraded)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := reg.Trace.RunAwareEventsPerSecond, 300_000_000*0.8; got != want {
		t.Errorf("-degrade left trace metrics unscaled: %f, want %f", got, want)
	}

	noTraceOld := writeDoc(t, dir, "notrace.json", func(d *results.Document) { d.Trace = nil })
	out.Reset()
	if err := run([]string{"-compare", noTraceOld, newP}, &out, io.Discard); err != nil {
		t.Fatalf("compare failed without a baseline trace section: %v", err)
	}
	if strings.Contains(out.String(), "trace.") {
		t.Errorf("trace metrics gated despite missing baseline section:\n%s", out.String())
	}
}

// TestCompareImprovementPasses: the gate is one-sided — faster is fine.
func TestCompareImprovementPasses(t *testing.T) {
	dir := t.TempDir()
	oldP := writeDoc(t, dir, "old.json", nil)
	newP := writeDoc(t, dir, "new.json", func(d *results.Document) {
		d.BranchesPerSecond *= 3
		d.Service.Single.RequestsPerSecond *= 2
		d.Service.Batch.RequestsPerSecond *= 2
	})
	if err := run([]string{"-compare", oldP, newP}, io.Discard, io.Discard); err != nil {
		t.Fatalf("compare failed an improvement: %v", err)
	}
}

// TestCompareMissingService: a baseline without a service section gates
// only on the sweep metric instead of failing.
func TestCompareMissingService(t *testing.T) {
	dir := t.TempDir()
	oldP := writeDoc(t, dir, "old.json", func(d *results.Document) { d.Service = nil })
	newP := writeDoc(t, dir, "new.json", nil)
	var out bytes.Buffer
	if err := run([]string{"-compare", oldP, newP}, &out, io.Discard); err != nil {
		t.Fatalf("compare failed without a baseline service section: %v", err)
	}
	if strings.Contains(out.String(), "service.") {
		t.Errorf("service metrics gated despite missing baseline section:\n%s", out.String())
	}
}

// TestCompareUsageErrors sweeps argument validation.
func TestCompareUsageErrors(t *testing.T) {
	dir := t.TempDir()
	oldP := writeDoc(t, dir, "old.json", nil)
	for _, args := range [][]string{
		{"-compare", oldP},                             // one document
		{"-compare", oldP, oldP, oldP},                 // three documents
		{"-compare", oldP, oldP, "-tolerance"},         // missing value
		{"-compare", oldP, oldP, "-tolerance", "1.5"},  // out of range
		{"-compare", oldP, oldP, "-nope", "1"},         // unknown flag
		{"-compare", oldP, "-degrade", "0.8"},          // -degrade without -out
		{"-compare", oldP, filepath.Join(dir, "nope")}, // unreadable
	} {
		if err := run(args, io.Discard, io.Discard); err == nil {
			t.Errorf("args %v: expected an error", args)
		}
	}
}
