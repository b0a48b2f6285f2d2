package main

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bench"
	"repro/internal/service"
)

// The serve workload is kralld as its clients see it: an in-process
// service.New on a loopback listener, with the disk tier on in a fresh
// directory (fsync off). Two clients run a closed loop, because kralld
// callers each wait for their reply. The workload seed drives the request
// stream, which visits the five /v1 endpoints and the eleven catalog and
// dispatch programs in equal shares and draws each request's dataset from
// serveDatasets Zipf-distributed ranks. The (program, dataset) population
// is the same for every seed, so seeds differ in the draws, not in which
// datasets are hot; it is several times the 128-entry memory tier, so the
// run sees memory hits, disk hits after memory eviction, and fresh
// recordings. The Zipf skew keeps well over half the requests on cached
// results, so the median falls among hits rather than in the gap between
// hits and misses. replicate always asks for the verifier (check=true)
// and uses the indirect family on the dispatch programs; its responses
// are never cached.

const (
	serveClients  = 2
	serveDatasets = 64   // dataset seeds per program
	servePassReqs = 1000 // requests per pass: 10 beyond each pass's p99
	serveZipfS    = 2.0  // Zipf exponent over dataset ranks
	serveDiskMB   = 48   // disk tier budget, small enough to evict
	serveMemEntry = 128  // memory tier entries (the service default)
	serveEndpoint = "/v1/"
	goldenRatio   = 0.6180339887498949
)

var serveEndpoints = []string{"analyze", "profile", "machines", "replicate", "score"}

type serveProgram struct {
	workload, source string
	dispatch         bool
}

type serveWL struct {
	dir    string
	base   string
	client *http.Client
	cancel context.CancelFunc
	done   chan error

	rng      *rand.Rand
	zipfCDF  []float64 // cumulative share of the dataset ranks
	u        float64   // position in the golden-ratio sequence
	drawn    int       // requests drawn so far
	programs []serveProgram
	passReqs int
	oracle   *respOracle
}

// serveReq is one request of the stream.
type serveReq struct {
	endpoint string
	body     []byte
	checked  bool // a check=true replicate: the response must say verified
	branch   bool // a branch-family replicate, whose quality the pass sums
}

func setupServe(o options) (workload, error) {
	root := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(root, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(root, "serve-")
	if err != nil {
		return nil, err
	}
	w := &serveWL{dir: dir, passReqs: servePassReqs, oracle: newRespOracle()}
	if o.short {
		w.passReqs = 20
	}
	srv, err := service.New(service.Config{
		Workers:      serveClients,
		CacheEntries: serveMemEntry,
		DiskDir:      dir,
		DiskMaxBytes: serveDiskMB << 20,
	})
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ctx, cancel := context.WithCancel(context.Background())
	w.cancel, w.done = cancel, make(chan error, 1)
	go func() { w.done <- srv.Serve(ctx, l, 10*time.Second) }()
	w.base = "http://" + l.Addr().String()
	w.client = &http.Client{
		Timeout:   60 * time.Second,
		Transport: &http.Transport{MaxIdleConnsPerHost: serveClients},
	}
	for _, p := range bench.Workloads() {
		w.programs = append(w.programs, serveProgram{workload: p.Name})
	}
	for _, p := range bench.IndirectWorkloads() {
		w.programs = append(w.programs, serveProgram{source: p.Source, dispatch: true})
	}
	// A new server compiles each program on first touch; set-up pays that
	// once, through /v1/analyze, which needs nothing else.
	for _, p := range w.programs {
		r := serveReq{endpoint: "analyze"}
		if r.body, err = json.Marshal(service.Request{Workload: p.workload, Source: p.source}); err == nil {
			var status int
			var body []byte
			if status, body, err = w.do(r); err == nil {
				err = w.oracle.check(r, status, body)
			}
		}
		if err != nil {
			w.close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	w.rng = rand.New(rand.NewSource(o.seed))
	w.u = w.rng.Float64()
	var sum float64
	for k := 0; k < serveDatasets; k++ {
		sum += math.Pow(float64(k+1), -serveZipfS)
		w.zipfCDF = append(w.zipfCDF, sum)
	}
	for k := range w.zipfCDF {
		w.zipfCDF[k] /= sum
	}
	return w, nil
}

func (w *serveWL) close() error {
	w.cancel()
	err := <-w.done
	w.client.CloseIdleConnections()
	if rerr := os.RemoveAll(w.dir); err == nil {
		err = rerr
	}
	return err
}

// next draws the stream's next request. Endpoints and programs take
// turns, so every pass holds the same mix. The dataset rank is the Zipf
// quantile of a golden-ratio sequence from a seeded start, so every
// stretch of the stream follows the Zipf shape closely; independent draws
// left the number of misses, and with it the run's throughput, to chance.
func (w *serveWL) next() (serveReq, error) {
	k := w.drawn
	w.drawn++
	ep := serveEndpoints[k%len(serveEndpoints)]
	p := w.programs[(k/len(serveEndpoints))%len(w.programs)]
	w.u = math.Mod(w.u+goldenRatio, 1)
	rank, _ := slices.BinarySearch(w.zipfCDF, w.u)
	rank = min(rank, serveDatasets-1) // the last share may round below 1
	req := service.Request{Workload: p.workload, Source: p.source}
	switch ep {
	case "machines":
		req.States = 5
	case "replicate":
		req.States, req.Check = 5, true
		if p.dispatch {
			req.Family = "indirect"
		}
	case "score":
		req.Strategy = "twobit"
	}
	if ep != "analyze" {
		// analyze is a pure function of the program. Dataset seeds are
		// positive: 0 would mean the program default.
		req.Seed = 1 + int64(rank)
	}
	body, err := json.Marshal(req)
	return serveReq{endpoint: ep, body: body, checked: req.Check, branch: req.Check && !p.dispatch}, err
}

func (w *serveWL) pass(tr *tracer) (*passStats, error) {
	reqs := make([]serveReq, w.passReqs)
	for i := range reqs {
		var err error
		if reqs[i], err = w.next(); err != nil {
			return nil, err
		}
	}
	w.rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })
	ps := &passStats{counts: map[string]float64{}}
	var before map[string]float64
	if tr != nil {
		var err error
		if before, err = w.scrape(); err != nil {
			return nil, err
		}
	}

	var mu sync.Mutex
	nextReq := 0
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root := tr.begin(rootName, 0)
			defer tr.end(root)
			for {
				mu.Lock()
				i := nextReq
				nextReq++
				mu.Unlock()
				if i >= len(reqs) {
					return
				}
				t0 := time.Now()
				id := tr.begin("service."+reqs[i].endpoint, root)
				status, body, err := w.do(reqs[i])
				tr.end(id)
				d := time.Since(t0)
				if err == nil {
					err = w.oracle.check(reqs[i], status, body)
				}
				if err != nil {
					fmt.Fprintf(os.Stderr, "serve: %s %s: %v\n", reqs[i].endpoint, reqs[i].body, err)
				}
				mu.Lock()
				ps.opTimes = append(ps.opTimes, d)
				if err != nil {
					ps.failed++
				}
				if err == nil && reqs[i].branch {
					addReplicateQuality(ps, body)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	ps.wall = time.Since(start)

	if tr != nil {
		after, err := w.scrape()
		if err != nil {
			return nil, err
		}
		for k, v := range after {
			ps.counts[k] = v - before[k]
		}
	}
	return ps, nil
}

func (w *serveWL) do(r serveReq) (int, []byte, error) {
	resp, err := w.client.Post(w.base+serveEndpoint+r.endpoint, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	return resp.StatusCode, body, err
}

// addReplicateQuality adds a branch-family replicate response's measured
// misprediction counts and code sizes to the pass.
func addReplicateQuality(ps *passStats, body []byte) {
	var r service.ReplicateResponse
	if json.Unmarshal(body, &r) != nil {
		return // the oracle has already parsed it
	}
	ps.miss += float64(r.Replicated.Mispredicted)
	ps.pred += float64(r.Replicated.Predicted)
	ps.before += float64(r.Code.InstrsBefore)
	ps.after += float64(r.Code.InstrsAfter)
}

// respOracle is the serve workload's oracle: every response must be 2xx,
// byte-identical to the first response to the same request, and a
// check=true replicate must come back verified.
type respOracle struct {
	mu    sync.Mutex
	first map[string][sha256.Size]byte
}

func newRespOracle() *respOracle { return &respOracle{first: map[string][sha256.Size]byte{}} }

func (o *respOracle) check(r serveReq, status int, body []byte) error {
	if status < 200 || status > 299 {
		return fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	if r.checked {
		var v struct {
			Verified          bool `json:"verified"`
			SemanticsVerified bool `json:"semantics_verified"`
		}
		if err := json.Unmarshal(body, &v); err != nil {
			return fmt.Errorf("replicate response: %w", err)
		}
		if !v.Verified || !v.SemanticsVerified {
			return fmt.Errorf("replicate with check=true came back verified=%v semantics_verified=%v",
				v.Verified, v.SemanticsVerified)
		}
	}
	key := r.endpoint + "\x00" + string(r.body)
	sum := sha256.Sum256(body)
	o.mu.Lock()
	defer o.mu.Unlock()
	if prev, ok := o.first[key]; !ok {
		o.first[key] = sum
	} else if prev != sum {
		return errors.New("response differs from the first response to the same request")
	}
	return nil
}

// scrape reads the server's /metrics, summing each metric over its
// labels.
func (w *serveWL) scrape() (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: status %d", resp.StatusCode)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if i := strings.IndexByte(name, '{'); i >= 0 {
			name = name[:i]
		}
		v, err := strconv.ParseFloat(strings.TrimSpace(val), 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[name] += v
	}
	return out, sc.Err()
}

func (w *serveWL) layers(tr *tracer, traced []*passStats) map[string]float64 {
	n := float64(len(traced))
	vals := map[string]float64{}
	for _, ep := range serveEndpoints {
		var lat []float64
		for _, d := range tr.durations("service." + ep) {
			lat = append(lat, ms(d))
		}
		slices.Sort(lat)
		vals["service."+ep+".p50_ms"] = quantile(lat, 0.50)
		vals["service."+ep+".p99_ms"] = quantile(lat, 0.99)
	}
	c := sumCounts(traced)
	vals["runner.store_hit_ratio"] = c["kralld_store_hits_total"] / (c["kralld_store_hits_total"] + c["kralld_store_misses_total"])
	vals["diskstore.hit_ratio"] = c["kralld_disk_hits_total"] / (c["kralld_disk_hits_total"] + c["kralld_disk_misses_total"])
	vals["diskstore.evictions"] = c["kralld_disk_evictions_total"] / n
	vals["service.rejected"] = c["kralld_rejected_total"] / n
	vals["trace.recorded_events"] = c["kralld_engine_recorded_events_total"] / n
	vals["trace.replayed_events"] = c["kralld_engine_replayed_events_total"] / n
	vals["runner.job_s"] = c["kralld_engine_job_seconds_total"] / n
	return vals
}
