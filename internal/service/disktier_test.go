package service

import (
	"bytes"
	"net/http"
	"testing"

	"repro/internal/profile"
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
