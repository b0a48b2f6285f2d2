package predict

import "repro/internal/ir"

// StaticScore folds a fixed per-site prediction vector over a branch
// stream: the replay equivalent of annotating a program clone and
// measuring it live, since annotation only sets Term.Pred and leaves the
// branch stream untouched. Sites beyond the vector and sites predicted
// PredNone are ignored.
type StaticScore struct {
	Preds []ir.Prediction
	// Predicted counts events whose site carries a prediction;
	// Mispredicted those where the prediction missed.
	Predicted    uint64
	Mispredicted uint64
}

// RecordBranch implements trace.Sink.
func (s *StaticScore) RecordBranch(site int32, taken bool) { s.RecordRun(site, taken, 1) }

// RecordSwitch implements trace.Sink as a no-op.
func (s *StaticScore) RecordSwitch(int32, int32, uint64) {}

// RecordRun implements trace.Sink.
func (s *StaticScore) RecordRun(site int32, taken bool, n uint64) {
	if int(site) >= len(s.Preds) {
		return
	}
	p := s.Preds[site]
	if p == ir.PredNone {
		return
	}
	s.Predicted += n
	if (p == ir.PredTaken) != taken {
		s.Mispredicted += n
	}
}
