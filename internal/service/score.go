package service

import (
	"sync"

	"repro/internal/ir"
	"repro/internal/predict"
	"repro/internal/trace"
)

// scoreState is the per-request replay state of /v1/score,
// recycled through scorePool: the count tables, the dynamic predictors,
// and the prediction vector are all reused across requests (grown
// monotonically, cleared on take), so the score path of the batch
// pipeline stops allocating per request.
type scoreState struct {
	counts *trace.Counts
	last   *predict.LastDirection
	lastN  int
	twobit *predict.TwoBit
	twoN   int
	preds  []ir.Prediction
}

var scorePool = sync.Pool{New: func() any { return new(scoreState) }}

// countsFor returns zeroed count tables covering at least n sites.
func (st *scoreState) countsFor(n int) *trace.Counts {
	if st.counts == nil || len(st.counts.Taken) < n {
		st.counts = trace.NewCounts(n)
		return st.counts
	}
	clear(st.counts.Taken)
	clear(st.counts.NotTaken)
	return st.counts
}

// lastFor returns a reset last-direction predictor covering at least n
// sites.
func (st *scoreState) lastFor(n int) *predict.LastDirection {
	if st.last == nil || st.lastN < n {
		st.last = predict.NewLastDirection(n)
		st.lastN = n
		return st.last
	}
	st.last.Reset()
	return st.last
}

// twobitFor returns a reset two-bit predictor covering at least n sites.
func (st *scoreState) twobitFor(n int) *predict.TwoBit {
	if st.twobit == nil || st.twoN < n {
		st.twobit = predict.NewTwoBit(n)
		st.twoN = n
		return st.twobit
	}
	st.twobit.Reset()
	return st.twobit
}

// predsFor returns a PredNone-filled prediction vector of length n.
func (st *scoreState) predsFor(n int) []ir.Prediction {
	if cap(st.preds) < n {
		st.preds = make([]ir.Prediction, n)
		return st.preds
	}
	st.preds = st.preds[:n]
	clear(st.preds)
	return st.preds
}
