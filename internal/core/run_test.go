package core

import (
	"context"
	"errors"
	"strings"
	"testing"

	"repro/internal/interp"
)

// scaled declares both dataset knobs: wscale sets the trip count, so a
// budgeted run shows whether the fill raised it, and wseed feeds the
// printed value.
const scaled = `
var wseed int = 1;
var wscale int = 10;

func main() int {
    var s int = 0;
    for var i int = 0; i < wscale; i = i + 1 {
        if (i + wseed) % 3 == 0 { s = s + 1; }
    }
    print(s + wseed);
    return wscale;
}`

// plain declares neither knob.
const plain = `
func main() int {
    var s int = 0;
    for var i int = 0; i < 100; i = i + 1 {
        if i % 2 == 0 { s = s + 1; }
    }
    return s;
}`

// TestRunConfig pins the one run rule: explicit Seed and Scale must name
// declared globals, a budgeted run raises a declared wscale to 1<<30 and
// leaves programs without one alone, the budget ends a run as truncation,
// and cancellation surfaces as context.Canceled.
func TestRunConfig(t *testing.T) {
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	cases := []struct {
		name      string
		src       string
		rc        RunConfig
		wantErr   string // substring; "" = success
		wantRet   int64
		truncated bool
	}{
		{name: "defaults", src: scaled, wantRet: 10},
		{name: "seed", src: scaled, rc: RunConfig{Seed: 5}, wantRet: 10},
		{name: "scale", src: scaled, rc: RunConfig{Scale: 40}, wantRet: 40},
		{name: "seed-missing", src: plain, rc: RunConfig{Seed: 5}, wantErr: "wseed"},
		{name: "scale-missing", src: plain, rc: RunConfig{Scale: 5}, wantErr: "wscale"},
		{name: "budget-fills-scale", src: scaled, rc: RunConfig{Budget: 1000}, truncated: true},
		{name: "budget-explicit-scale", src: scaled, rc: RunConfig{Budget: 1000, Scale: 40}, wantRet: 40},
		{name: "budget-no-scale-global", src: plain, rc: RunConfig{Budget: 1000}, wantRet: 50},
		{name: "budget-cuts-plain", src: plain, rc: RunConfig{Budget: 50}, truncated: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog, err := CompileBL(tc.src)
			if err != nil {
				t.Fatal(err)
			}
			e, err := Exec(prog, tc.rc, nil)
			if tc.wantErr != "" {
				var mg *MissingGlobalError
				if !errors.As(err, &mg) || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want a MissingGlobalError naming %s", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if e.Truncated != tc.truncated {
				t.Fatalf("truncated = %v, want %v", e.Truncated, tc.truncated)
			}
			if tc.truncated {
				if tc.rc.Budget != 0 && e.Branches != tc.rc.Budget {
					t.Fatalf("%d branches, want the budget %d", e.Branches, tc.rc.Budget)
				}
				return
			}
			if e.Ret != tc.wantRet {
				t.Fatalf("main returned %d, want %d", e.Ret, tc.wantRet)
			}
		})
	}

	t.Run("cancelled", func(t *testing.T) {
		prog, err := CompileBL(scaled)
		if err != nil {
			t.Fatal(err)
		}
		_, err = Exec(prog, RunConfig{Budget: 1_000_000, Ctx: cancelled}, func(m *interp.Machine) { m.CtxCheckEvery = 1 })
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	})

	t.Run("seed-changes-output", func(t *testing.T) {
		prog, err := CompileBL(scaled)
		if err != nil {
			t.Fatal(err)
		}
		a, err := Measure(prog, RunConfig{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := Measure(prog, RunConfig{Seed: 2}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if a.Checksum == b.Checksum {
			t.Fatal("the seed override did not reach the program")
		}
	})
}
