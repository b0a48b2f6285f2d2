package service

import (
	"bytes"
	"net/http"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/profile"
	"repro/internal/statemachine"
)

// TestDiskRejectsMalformedProfiles stores profile payloads that pass the
// disk store's CRC but not the profile's shape: a missing table, a short
// counts table, and a well-formed bundle of another program's site count.
// Each must be a miss, recomputed into responses byte-identical to the
// ones the good profile gave — never a panic and never an answer built
// from the wrong tables.
func TestDiskRejectsMalformedProfiles(t *testing.T) {
	const body = `{"workload":"cc","budget":5000}`
	eps := []string{"profile", "machines", "score"}
	_, ref := newTestServer(t, Config{})
	want := make([][]byte, len(eps))
	for i, ep := range eps {
		code, out := postJSON(t, ref.URL+"/v1/"+ep, body, nil)
		if code != http.StatusOK {
			t.Fatalf("reference %s: status %d: %s", ep, code, out)
		}
		want[i] = out
	}

	for _, tc := range []struct {
		name  string
		spoil func(p *profile.Profile) *profile.Profile
	}{
		{"nil local history", func(p *profile.Profile) *profile.Profile { p.Local = nil; return p }},
		{"nil counts", func(p *profile.Profile) *profile.Profile { p.Counts = nil; return p }},
		{"nil streams", func(p *profile.Profile) *profile.Profile { p.Streams = nil; return p }},
		{"nil targets", func(p *profile.Profile) *profile.Profile { p.Targets = nil; return p }},
		{"short counts", func(p *profile.Profile) *profile.Profile {
			p.Counts.NotTaken = p.Counts.NotTaken[:p.NSites-1]
			return p
		}},
		{"site count of another program", func(p *profile.Profile) *profile.Profile {
			return profile.New(p.NSites+1, profile.Options{LocalK: 9, GlobalK: 9, PathM: 3})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// A first server stores the trace and the good profile, and
			// nothing derived from the profile, so the second must build
			// machines and scores from whatever profile it loads.
			dir := t.TempDir()
			s1, ts1 := newTestServer(t, Config{DiskDir: dir})
			if code, out := postJSON(t, ts1.URL+"/v1/profile", body, nil); code != http.StatusOK {
				t.Fatalf("cold profile: status %d: %s", code, out)
			}
			req := &Request{Workload: "cc", Budget: 5000}
			c, err := s1.resolveProgram(req)
			if err != nil {
				t.Fatal(err)
			}
			key := contentKey("prof", c.key, field(req.Budget, req.Seed, req.Scale))
			good, ok := s1.store.disk.Load(key)
			if !ok {
				t.Fatal("the cold server stored no profile; test is vacuous")
			}
			ts1.Close()

			var p profile.Profile
			if err := gobDecode(good, &p); err != nil {
				t.Fatal(err)
			}
			bad, err := gobEncode(tc.spoil(&p))
			if err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newTestServer(t, Config{DiskDir: dir})
			if err := s2.store.disk.Put(key, bad); err != nil {
				t.Fatal(err)
			}
			for i, ep := range eps {
				code, out := postJSON(t, ts2.URL+"/v1/"+ep, body, nil)
				if code != http.StatusOK {
					t.Fatalf("%s: status %d: %.300s", ep, code, out)
				}
				if !bytes.Equal(out, want[i]) {
					t.Fatalf("%s response differs from the good profile's:\ngot:  %s\nwant: %s", ep, out, want[i])
				}
			}
		})
	}
}

// TestDiskRejectsMalformedMachines stores machine lists that pass the disk
// store's CRC and gob but not the choices' shape: a loop choice without
// its machine, an initial state out of range, a short prediction table,
// and a choice naming a site beyond the program. Each must be a miss,
// recomputed into a response byte-identical to a diskless server's — never
// a panic and never an answer built from the spoiled entry.
func TestDiskRejectsMalformedMachines(t *testing.T) {
	const body = `{"workload":"cc","budget":5000}`
	_, ref := newTestServer(t, Config{})
	code, want := postJSON(t, ref.URL+"/v1/machines", body, nil)
	if code != http.StatusOK {
		t.Fatalf("reference machines: status %d: %s", code, want)
	}

	// loop is the index of the first loop choice with events, which the
	// response lists.
	loop := func(t *testing.T, cs []statemachine.Choice) int {
		for i := range cs {
			if cs[i].Kind == statemachine.KindLoop && cs[i].Total > 0 {
				return i
			}
		}
		t.Fatal("no loop choice with events; test is vacuous")
		return -1
	}
	for _, tc := range []struct {
		name  string
		spoil func(cs []statemachine.Choice, i int)
	}{
		{"nil machine", func(cs []statemachine.Choice, i int) { cs[i].Loop = nil }},
		{"initial state out of range", func(cs []statemachine.Choice, i int) { cs[i].Loop.Init = len(cs[i].Loop.States) }},
		{"short predictions", func(cs []statemachine.Choice, i int) { cs[i].Loop.PredTaken = cs[i].Loop.PredTaken[:1] }},
		{"site beyond the program", func(cs []statemachine.Choice, i int) { cs[i].Site = int32(len(cs)) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s1, ts1 := newTestServer(t, Config{DiskDir: dir})
			if code, out := postJSON(t, ts1.URL+"/v1/machines", body, nil); code != http.StatusOK {
				t.Fatalf("cold machines: status %d: %s", code, out)
			}
			req := &Request{Workload: "cc", Budget: 5000}
			c, err := s1.resolveProgram(req)
			if err != nil {
				t.Fatal(err)
			}
			states, pathLen, err := req.machineOpts()
			if err != nil {
				t.Fatal(err)
			}
			key := contentKey("mach", c.key, field(req.Budget, req.Seed, req.Scale, states, pathLen))
			good, ok := s1.store.disk.Load(key)
			if !ok {
				t.Fatal("the cold server stored no machines; test is vacuous")
			}
			ts1.Close()

			var cs []statemachine.Choice
			if err := gobDecode(good, &cs); err != nil {
				t.Fatal(err)
			}
			tc.spoil(cs, loop(t, cs))
			bad, err := gobEncode(cs)
			if err != nil {
				t.Fatal(err)
			}
			s2, ts2 := newTestServer(t, Config{DiskDir: dir})
			if err := s2.store.disk.Put(key, bad); err != nil {
				t.Fatal(err)
			}
			code, out := postJSON(t, ts2.URL+"/v1/machines", body, nil)
			if code != http.StatusOK {
				t.Fatalf("status %d: %.300s", code, out)
			}
			if !bytes.Equal(out, want) {
				t.Fatalf("response differs from the diskless server's:\ngot:  %s\nwant: %s", out, want)
			}
		})
	}
}

// TestIndirectFromDiskProfile restarts a server over a disk tier that holds
// only the trace and the profile bundle: the indirect family must cluster
// from the stored bundle's target table — no recording, no replay — and
// answer with the golden response bytes.
func TestIndirectFromDiskProfile(t *testing.T) {
	cases := []struct{ golden, profile, replicate string }{
		{"replicate_svm_indirect",
			`{"workload":"svm","budget":20000}`,
			`{"workload":"svm","budget":20000,"family":"indirect","check":true}`},
		{"replicate_lex_indirect",
			`{"workload":"lex","budget":20000,"seed":424243}`,
			`{"workload":"lex","budget":20000,"family":"indirect","check":true,"seed":424243}`},
	}
	dir := t.TempDir()
	_, ts1 := newTestServer(t, Config{DiskDir: dir})
	for _, tc := range cases {
		if code, out := postJSON(t, ts1.URL+"/v1/profile", tc.profile, nil); code != http.StatusOK {
			t.Fatalf("cold profile: status %d: %s", code, out)
		}
	}
	ts1.Close()

	s2, ts2 := newTestServer(t, Config{DiskDir: dir})
	for _, tc := range cases {
		want, err := os.ReadFile(filepath.Join("testdata", "golden", tc.golden+".json"))
		if err != nil {
			t.Fatal(err)
		}
		code, got := postJSON(t, ts2.URL+"/v1/replicate", tc.replicate, nil)
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", tc.golden, code, got)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%s from the disk profile differs from the golden:\ngot:  %s\nwant: %s", tc.golden, got, want)
		}
	}
	if st := s2.Engine().Stats(); st.TraceRecords != 0 || st.Replays != 0 {
		t.Fatalf("warm server made %d recordings and %d replays; the disk tier should have served the profiles",
			st.TraceRecords, st.Replays)
	}
}
