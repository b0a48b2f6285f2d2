package progen

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/runner"
)

// pipelineObs is the observable behaviour of one full pipeline run on a
// generated program, for sequential-vs-parallel comparison.
type pipelineObs struct {
	baselineRate, replicatedRate         float64
	baselineChecksum, replicatedChecksum uint64
	sizeFactor                           float64
	choices                              int
}

func runPipeline(seed int64) (pipelineObs, error) {
	src := Generate(seed, DefaultConfig())
	res, err := core.RunBL(src, core.Config{Run: core.RunConfig{Budget: 30_000}})
	if err != nil {
		return pipelineObs{}, fmt.Errorf("seed %d: %w", seed, err)
	}
	return pipelineObs{
		baselineRate:       res.Baseline.Rate(),
		replicatedRate:     res.Transformed.Rate(),
		baselineChecksum:   res.Baseline.Checksum,
		replicatedChecksum: res.Transformed.Checksum,
		sizeFactor:         res.SizeFactor(),
		choices:            len(res.Choices),
	}, nil
}

// TestEngineMatchesSequentialPipeline pushes randomly generated programs
// through the full pipeline both sequentially and via the parallel runner,
// and demands identical observable behaviour: checksums (the program
// printed the same values), measured rates, and replication stats. This is
// the property-test form of the engine's determinism contract, over inputs
// no human wrote.
func TestEngineMatchesSequentialPipeline(t *testing.T) {
	const n = 24
	seeds := make([]int64, n)
	for i := range seeds {
		seeds[i] = int64(1000 + i)
	}

	seq := make([]pipelineObs, n)
	for i, s := range seeds {
		var err error
		seq[i], err = runPipeline(s)
		if err != nil {
			t.Fatal(err)
		}
	}

	par, err := runner.Map(runner.New(4), seeds, func(_ int, s int64) (pipelineObs, error) {
		return runPipeline(s)
	})
	if err != nil {
		t.Fatal(err)
	}

	for i := range seeds {
		if par[i] != seq[i] {
			t.Errorf("seed %d: parallel %+v != sequential %+v", seeds[i], par[i], seq[i])
		}
		if seq[i].baselineChecksum != seq[i].replicatedChecksum {
			t.Errorf("seed %d: replication changed program semantics (checksum %d -> %d)",
				seeds[i], seq[i].baselineChecksum, seq[i].replicatedChecksum)
		}
	}
}

// TestEngineCachesGeneratedArtifacts checks the single-flight artifact
// cache under the property-test workload: many jobs asking for the same
// generated program's pipeline result compute it exactly once.
func TestEngineCachesGeneratedArtifacts(t *testing.T) {
	eng := runner.New(8)
	const jobs, distinct = 48, 6
	items := make([]int, jobs)
	for i := range items {
		items[i] = i
	}
	results, err := runner.Map(eng, items, func(_ int, i int) (pipelineObs, error) {
		seed := int64(2000 + i%distinct)
		return runner.Cached(eng.Cache(), fmt.Sprintf("pipe/%d", seed), func() (pipelineObs, error) {
			return runPipeline(seed)
		})
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if want := results[i%distinct]; r != want {
			t.Errorf("job %d: cached result mismatch: %+v != %+v", i, r, want)
		}
	}
	hits, misses := eng.Cache().Counters()
	if misses != distinct {
		t.Errorf("expected %d cache misses, got %d (hits %d)", distinct, misses, hits)
	}
	if hits != jobs-distinct {
		t.Errorf("expected %d cache hits, got %d", jobs-distinct, hits)
	}
}
