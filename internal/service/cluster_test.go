package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/cluster"
)

// postJSON fires one pipeline request and returns status + body.
func postJSON(t *testing.T, url string, body string, hdr map[string]string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader([]byte(body)))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestRestartWarm pins the disk tier's reason to exist: a new process
// over the same directory answers byte-identically without re-recording
// a single trace.
func TestRestartWarm(t *testing.T) {
	dir := t.TempDir()
	reqs := []string{
		`{"workload":"cc","budget":5000}`,
		`{"workload":"cc","budget":5000,"states":4}`,
		`{"workload":"compress","budget":4000,"strategy":"twobit"}`,
		`{"workload":"compress","budget":4000,"seed":7}`,
	}
	eps := []string{"profile", "machines", "score", "profile"}

	s1, ts1 := newTestServer(t, Config{DiskDir: dir})
	cold := make([][]byte, len(reqs))
	for i := range reqs {
		code, body := postJSON(t, ts1.URL+"/v1/"+eps[i], reqs[i], nil)
		if code != http.StatusOK {
			t.Fatalf("cold %s: status %d: %s", eps[i], code, body)
		}
		cold[i] = body
	}
	if recs := s1.Engine().Stats().TraceRecords; recs == 0 {
		t.Fatal("cold server recorded nothing; test is vacuous")
	}
	ts1.Close()

	// "Restart": a fresh server, fresh memory store, same disk directory.
	s2, ts2 := newTestServer(t, Config{DiskDir: dir})
	for i := range reqs {
		code, body := postJSON(t, ts2.URL+"/v1/"+eps[i], reqs[i], nil)
		if code != http.StatusOK {
			t.Fatalf("warm %s: status %d: %s", eps[i], code, body)
		}
		if !bytes.Equal(body, cold[i]) {
			t.Fatalf("warm %s response differs from cold:\ncold: %s\nwarm: %s", eps[i], cold[i], body)
		}
	}
	if recs := s2.Engine().Stats().TraceRecords; recs != 0 {
		t.Fatalf("warm server re-recorded %d traces; disk tier should have served them all", recs)
	}
}

// TestDecodeArtifactRejectsMalformedSlabs feeds the disk-tier and
// peer-fetch decoder artifacts whose slab CRC is right but whose events
// are not, for a 4-site program whose switches have at most 3 outcomes:
// each must be an error (a miss), never a panic and never a slab that
// replays wrongly or balloons a table. A well-formed slab is accepted.
func TestDecodeArtifactRejectsMalformedSlabs(t *testing.T) {
	sealed := func(n uint64, events ...byte) []byte {
		b := []byte{0, 0, 0, 0} // branches, steps, checksum, truncated
		b = append(b, "BLSLAB02"...)
		b = binary.AppendUvarint(b, n)
		b = binary.AppendUvarint(b, uint64(len(events)))
		b = append(b, events...)
		return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(events))
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"truncated varint", sealed(1, 0x80)},
		{"site 1000 of 4", sealed(1, binary.AppendUvarint(nil, (1000+1)<<1|1)...)},
		{"bare footer code", sealed(0, 0)},
		{"leading run marker", sealed(5, 1, 5)},
		{"switch outcome 1<<30 of 3", sealed(1, append([]byte{1, 0, 1}, binary.AppendUvarint(nil, 1<<30)...)...)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeArtifact(tc.data, nil, &compiled{nsites: 4, outcomes: 3}); err == nil {
				t.Fatal("decodeArtifact accepted a malformed slab")
			}
		})
	}
	ok := sealed(3, append([]byte{(3+1)<<1 | 1, 1, 0, 3, 2}, 1, 1)...) // site 3 taken, switch at site 2 outcome 2 twice
	if _, err := decodeArtifact(ok, nil, &compiled{nsites: 4, outcomes: 3}); err != nil {
		t.Fatalf("decodeArtifact rejected a well-formed slab: %v", err)
	}
	if _, err := decodeArtifact(ok, nil, nil); err == nil {
		t.Fatal("decodeArtifact accepted a slab of an unknown program")
	}
}

// clusterNode is one in-process kralld with clustering enabled.
type clusterNode struct {
	srv *Server
	ts  *httptest.Server
}

// bootCluster starts n nodes that know each other, each with its own
// disk directory. Health probing starts immediately with fast intervals.
func bootCluster(t *testing.T, n int, tweak func(i int, cfg *Config)) []clusterNode {
	t.Helper()
	// Two-phase boot: URLs must exist before any server's config does, so
	// allocate the listeners (via unstarted test servers) first.
	tss := make([]*httptest.Server, n)
	urls := make([]string, n)
	for i := range tss {
		tss[i] = httptest.NewUnstartedServer(nil)
		urls[i] = "http://" + tss[i].Listener.Addr().String()
	}
	nodes := make([]clusterNode, n)
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	for i := range nodes {
		cfg := Config{
			DiskDir:     t.TempDir(),
			ClusterSelf: urls[i],
			ClusterHealth: cluster.HealthOptions{
				Interval: 20 * time.Millisecond, Timeout: 200 * time.Millisecond, FailThreshold: 2,
			},
		}
		for j, u := range urls {
			if j != i {
				cfg.ClusterPeers = append(cfg.ClusterPeers, u)
			}
		}
		if tweak != nil {
			tweak(i, &cfg)
		}
		s := mustNew(t, cfg)
		tss[i].Config.Handler = s.Handler()
		tss[i].Start()
		t.Cleanup(tss[i].Close)
		s.Start(ctx)
		nodes[i] = clusterNode{srv: s, ts: tss[i]}
	}
	return nodes
}

// requestOwnedBy searches seeds until the request's placement key lands
// on the wanted node.
func requestOwnedBy(t *testing.T, c *cluster.Cluster, owner string) (body string, key string) {
	t.Helper()
	for seed := int64(1); seed < 2000; seed++ {
		req := &Request{Workload: "cc", Budget: 5000, Seed: seed}
		k := RouteKey(req, 200_000)
		if got := c.Owner(k); got == owner {
			return fmt.Sprintf(`{"workload":"cc","budget":5000,"seed":%d}`, seed), k
		}
	}
	t.Fatalf("no seed found whose key lands on %s", owner)
	return "", ""
}

// TestClusterForwarding pins request routing: a request sent to the
// wrong node is proxied to the ring owner and answers byte-identically
// to asking the owner directly.
func TestClusterForwarding(t *testing.T) {
	nodes := bootCluster(t, 2, nil)
	c0 := nodes[0].srv.Cluster()
	// A request owned by node 1, sent to node 0 → forwarded.
	body, _ := requestOwnedBy(t, c0, nodes[1].srv.Cluster().Self())
	code, viaWrong := postJSON(t, nodes[0].ts.URL+"/v1/profile", body, nil)
	if code != http.StatusOK {
		t.Fatalf("forwarded request: status %d: %s", code, viaWrong)
	}
	code, viaOwner := postJSON(t, nodes[1].ts.URL+"/v1/profile", body, nil)
	if code != http.StatusOK {
		t.Fatalf("direct request: status %d: %s", code, viaOwner)
	}
	if !bytes.Equal(viaWrong, viaOwner) {
		t.Fatal("forwarded and direct responses differ")
	}
	forwards, forwardErrs, _, _ := c0.Counters()
	if forwards == 0 || forwardErrs != 0 {
		t.Fatalf("forwards=%d errors=%d; want >0 forwards, 0 errors", forwards, forwardErrs)
	}
	// The recording happened on the owner, not the receiving node.
	if recs := nodes[0].srv.Engine().Stats().TraceRecords; recs != 0 {
		t.Fatalf("non-owner recorded %d traces", recs)
	}
	if recs := nodes[1].srv.Engine().Stats().TraceRecords; recs == 0 {
		t.Fatal("owner recorded nothing")
	}
}

// TestClusterPeerFetch pins the artifact fetch path: a node serving a
// key it does not own (forwarded flag set, so it cannot re-forward)
// pulls the recorded bytes from the owner instead of re-recording.
func TestClusterPeerFetch(t *testing.T) {
	nodes := bootCluster(t, 2, nil)
	owner := nodes[1]
	body, _ := requestOwnedBy(t, nodes[0].srv.Cluster(), owner.srv.Cluster().Self())

	// Warm the owner (it records and persists the artifact).
	if code, out := postJSON(t, owner.ts.URL+"/v1/profile", body, nil); code != http.StatusOK {
		t.Fatalf("warming owner: %d: %s", code, out)
	}
	_, direct := postJSON(t, owner.ts.URL+"/v1/profile", body, nil)

	// Node 0 is told "you handle it" (forwarded header blocks proxying).
	code, out := postJSON(t, nodes[0].ts.URL+"/v1/profile", body, map[string]string{ForwardedHeader: "test"})
	if code != http.StatusOK {
		t.Fatalf("non-owner serve: %d: %s", code, out)
	}
	if !bytes.Equal(out, direct) {
		t.Fatal("peer-fetched response differs from the owner's")
	}
	if recs := nodes[0].srv.Engine().Stats().TraceRecords; recs != 0 {
		t.Fatalf("non-owner re-recorded %d traces instead of fetching", recs)
	}
	_, _, fetches, fetchErrs := nodes[0].srv.Cluster().Counters()
	if fetches == 0 || fetchErrs != 0 {
		t.Fatalf("peer fetches=%d errors=%d; want >0 fetches, 0 errors", fetches, fetchErrs)
	}
}

// TestDeadPeerNoClientErrors is the fault-injection guarantee: killing a
// node must never surface a 5xx to clients of the survivors — first the
// forward path degrades to local serving, then health takes the corpse
// out of the ring.
func TestDeadPeerNoClientErrors(t *testing.T) {
	nodes := bootCluster(t, 3, nil)
	victim := nodes[2]
	victimURL := victim.srv.Cluster().Self()
	survivor := nodes[0]

	// Find a request the victim owns, then kill the victim.
	body, key := requestOwnedBy(t, survivor.srv.Cluster(), victimURL)
	victim.ts.Close()

	// Hammer the survivor throughout the detection window. Every response
	// must be a success — the first few take the forward-fails-then-local
	// path, later ones route around the corpse entirely.
	deadline := time.Now().Add(5 * time.Second)
	markedDown := false
	for i := 0; ; i++ {
		code, out := postJSON(t, survivor.ts.URL+"/v1/profile", body, nil)
		if code >= 500 {
			t.Fatalf("request %d: client saw %d after peer death: %s", i, code, out)
		}
		if code != http.StatusOK {
			t.Fatalf("request %d: status %d: %s", i, code, out)
		}
		if !survivor.srv.Cluster().PeerUp(victimURL) {
			markedDown = true
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("health never marked the dead peer down")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if !markedDown {
		t.Fatal("unreachable")
	}
	// Once marked down, the ring routes the victim's keys to a survivor.
	if got := survivor.srv.Cluster().Owner(key); got == victimURL {
		t.Fatal("ring still routes to the dead peer after health marked it down")
	}
	// And requests keep succeeding with zero forward attempts to the corpse.
	f0, _, _, _ := survivor.srv.Cluster().Counters()
	for i := 0; i < 5; i++ {
		if code, out := postJSON(t, survivor.ts.URL+"/v1/profile", body, nil); code != http.StatusOK {
			t.Fatalf("post-detection request: %d: %s", code, out)
		}
	}
	if f1, _, _, _ := survivor.srv.Cluster().Counters(); f1 != f0 {
		// Forwards to the other healthy survivor are fine; to the victim are
		// not. Distinguish by checking the victim is still down.
		if !survivor.srv.Cluster().PeerUp(victimURL) && survivor.srv.Cluster().Owner(key) == victimURL {
			t.Fatal("still forwarding to the dead peer")
		}
	}
}

// TestRateLimiter pins the MaxRPS cap: a burst beyond the budget answers
// 429 with Retry-After, never an error, and tokens refill.
func TestRateLimiter(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxRPS: 5})
	body := `{"workload":"cc","budget":2000}`
	var ok, limited int
	for i := 0; i < 30; i++ {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/profile", bytes.NewReader([]byte(body)))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		out, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		switch resp.StatusCode {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			if resp.Header.Get("Retry-After") == "" {
				t.Fatal("429 without Retry-After")
			}
			var e errorBody
			if err := json.Unmarshal(out, &e); err != nil {
				t.Fatalf("429 body is not the JSON error envelope: %s", out)
			}
			limited++
		default:
			t.Fatalf("unexpected status %d: %s", resp.StatusCode, out)
		}
	}
	if ok == 0 || limited == 0 {
		t.Fatalf("ok=%d limited=%d; want both >0 (burst admits some, caps the rest)", ok, limited)
	}
	// Refill: after a second, requests are admitted again.
	time.Sleep(1100 * time.Millisecond)
	if code, out := postJSON(t, ts.URL+"/v1/profile", body, nil); code != http.StatusOK {
		t.Fatalf("after refill: %d: %s", code, out)
	}
}

// TestReadyzDraining pins the readiness flip on shutdown.
func TestReadyzDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %d before drain", resp.StatusCode)
	}
	s.draining.Store(true)
	resp, err = http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/readyz = %d while draining, want 503", resp.StatusCode)
	}
}

// TestClusterMetricsExposed spot-checks the new gauge/counter names.
func TestClusterMetricsExposed(t *testing.T) {
	nodes := bootCluster(t, 2, func(i int, cfg *Config) { cfg.MaxRPS = 10_000 })
	body, _ := requestOwnedBy(t, nodes[0].srv.Cluster(), nodes[1].srv.Cluster().Self())
	if code, out := postJSON(t, nodes[0].ts.URL+"/v1/profile", body, nil); code != http.StatusOK {
		t.Fatalf("request: %d: %s", code, out)
	}
	resp, err := http.Get(nodes[0].ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, _ := io.ReadAll(resp.Body)
	for _, want := range []string{
		"kralld_disk_entries", "kralld_disk_bytes", "kralld_disk_hits_total",
		"kralld_disk_misses_total", "kralld_disk_evictions_total", "kralld_disk_put_errors_total",
		"kralld_cluster_ring_nodes 2", "kralld_cluster_peer_up{peer=",
		"kralld_cluster_forwards_total", "kralld_cluster_forward_errors_total",
		"kralld_cluster_peer_fetches_total", "kralld_cluster_peer_fetch_errors_total",
		"kralld_cluster_rate_limited_total",
	} {
		if !bytes.Contains(out, []byte(want)) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}
