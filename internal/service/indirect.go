package service

import (
	"context"
	"net/http"

	"repro/internal/core"
	"repro/internal/indirect"
	"repro/internal/interp"
	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/replicate"
)

// The indirect replication family of /v1/replicate: case clustering of hot
// switch dispatches, selected with family: "indirect". Responses are scored
// under the semi-static cost model the krallbench indirect experiment uses —
// a semi-static front end cannot predict an indirect transfer, so every
// executed dispatch costs one misprediction-equivalent on top of the
// conditional-branch mispredictions, and clustering wins by moving the hot
// share of each dispatch into profile-predicted equality tests.

// IndirectRun is one measured run under the semi-static cost model.
type IndirectRun struct {
	// Conditional is the ordinary two-way branch prediction block.
	Conditional RateBlock `json:"conditional"`
	// Dispatches counts executed switch transfers (the residual's only, in
	// the clustered program — taken chain tests never reach it).
	Dispatches uint64 `json:"dispatches"`
	// EffectiveMissPct is (conditional misses + dispatches) over
	// (conditional events + dispatches), as a percentage.
	EffectiveMissPct float64 `json:"effective_miss_pct"`
	Checksum         uint64  `json:"checksum"`
}

// IndirectReplicateResponse answers /v1/replicate for family "indirect".
type IndirectReplicateResponse struct {
	SchemaV  string `json:"schema"`
	Kind     string `json:"kind"`
	Family   string `json:"family"`
	Program  string `json:"program"`
	Switches int    `json:"switches"`
	// ClusteredSites is how many dispatch sites the profile justified
	// rewriting; Tests the equality tests inserted across them.
	ClusteredSites   int         `json:"clustered_sites"`
	Tests            int         `json:"tests"`
	Baseline         IndirectRun `json:"baseline"`
	Clustered        IndirectRun `json:"clustered"`
	MissReductionPct float64     `json:"miss_reduction_pct"`
	Code             struct {
		InstrsBefore int     `json:"instrs_before"`
		InstrsAfter  int     `json:"instrs_after"`
		SizeFactor   float64 `json:"size_factor"`
	} `json:"code"`
	SemanticsVerified bool `json:"semantics_verified"`
	// Verified reports the structural re-derivation's verdict
	// (indirect.Verify); it is false unless the request asked for
	// verification (check).
	Verified bool   `json:"verified"`
	IR       string `json:"ir,omitempty"`
}

func (s *Server) handleReplicateIndirect(ctx context.Context, req *Request) (any, error) {
	c, err := s.resolveProgram(req)
	if err != nil {
		return nil, err
	}
	budget, err := s.budgetFor(req)
	if err != nil {
		return nil, err
	}
	// The profile bundle's target table holds every switch event of the
	// recorded run; the clustering pass reads it directly.
	prof, _, err := s.profileFor(ctx, c, req, budget)
	if err != nil {
		return nil, err
	}
	preds := predict.ProfileStatic(prof.Counts).Preds

	// The baseline and clustered runs are only comparable when both execute
	// the whole program: the chain tests add branch events, so a shared
	// branch budget would cut the clustered run at an earlier program point
	// and the checksums would diverge. Scale the workload down to fit the
	// budget instead (programs without a wscale knob run as-is) and keep the
	// budget as a generous envelope rather than the measuring cut-off.
	rc := runConfig(ctx, 4*budget, req)
	if rc.Scale == 0 && c.prog.Global("wscale") != nil {
		scale := int64(budget / 50_000)
		if scale < 1 {
			scale = 1
		}
		if scale > 400 {
			scale = 400
		}
		rc.Scale = scale
	}

	// Both runs are live executions with a dispatch counter: the clustered
	// clone's branch stream (and residual transfer count) is exactly what
	// the recorded trace cannot provide.
	measure := func(prog *ir.Program) (IndirectRun, error) {
		var dispatches uint64
		m, err := core.Exec(prog, rc, func(m *interp.Machine) {
			backstop(budget)(m)
			m.SwHook = func(t *ir.Term, _ int32) {
				if t.Op == ir.TermSwitch {
					dispatches++
				}
			}
		})
		if err != nil {
			return IndirectRun{}, runError(c, err)
		}
		s.eng.CountLiveRun()
		r := IndirectRun{
			Conditional: rateBlock(m.Mispredicted, m.Predicted),
			Dispatches:  dispatches,
			Checksum:    m.Checksum,
		}
		if ev := m.Predicted + dispatches; ev > 0 {
			r.EffectiveMissPct = round4(100 * float64(m.Mispredicted+dispatches) / float64(ev))
		}
		return r, nil
	}

	baseline := ir.CloneProgram(c.prog)
	replicate.Annotate(baseline, preds)
	base, err := measure(baseline)
	if err != nil {
		return nil, err
	}

	clustered := ir.CloneProgram(baseline)
	snap := ir.CloneProgram(clustered)
	st, prov, err := indirect.Cluster(clustered, prof.Targets, indirect.Options{})
	if err != nil {
		return nil, err
	}
	verified := false
	if req.Check {
		if errs := indirect.Verify(snap, clustered, prov); len(errs) > 0 {
			// The transform produced a program the verifier rejects — a
			// daemon-side fault, never the client's.
			s.verifyFail.Add(1)
			return nil, &httpError{http.StatusInternalServerError,
				"indirect verification failed: " + errs[0].Error()}
		}
		s.verifyOK.Add(1)
		verified = true
	}
	clus, err := measure(clustered)
	if err != nil {
		return nil, err
	}

	resp := &IndirectReplicateResponse{
		SchemaV:           Schema,
		Kind:              "replicate",
		Family:            "indirect",
		Program:           c.name,
		Switches:          st.Switches,
		ClusteredSites:    st.Clustered,
		Tests:             st.Tests,
		Baseline:          base,
		Clustered:         clus,
		SemanticsVerified: base.Checksum == clus.Checksum,
		Verified:          verified,
	}
	bm := base.Conditional.Mispredicted + base.Dispatches
	cm := clus.Conditional.Mispredicted + clus.Dispatches
	if bm > 0 {
		resp.MissReductionPct = round4(100 * (float64(bm) - float64(cm)) / float64(bm))
	}
	resp.Code.InstrsBefore = st.InstrsBefore
	resp.Code.InstrsAfter = st.InstrsAfter
	resp.Code.SizeFactor = round4(st.SizeFactor())
	if req.IncludeIR {
		resp.IR = clustered.String()
	}
	return resp, nil
}
