package attention

import (
	"fmt"
	"math"

	"elsa/internal/tensor"
)

// BlockwiseAttend runs approximate attention over a sequence longer than
// one hardware invocation can hold by decomposing the keys/values into
// blocks of at most blockSize rows, filtering and computing per block, and
// merging the per-block partial softmax results exactly with log-sum-exp
// renormalization.
//
// §V-E notes ELSA composes with the long-sequence decompositions of
// Longformer/Blockwise/BigBird, which reduce a very large attention to a
// sequence of conventional-sized ones; this function is that composition:
// the result equals running ELSA once over the union of the per-block
// candidate sets, so with the filter disabled it is exactly full-length
// attention.
func (e *Engine) BlockwiseAttend(q, keys, values *tensor.Matrix, blockSize int, t float64) (*Result, error) {
	if blockSize < 1 {
		return nil, fmt.Errorf("attention: block size must be positive, got %d", blockSize)
	}
	if keys.Rows != values.Rows || keys.Cols != values.Cols {
		return nil, fmt.Errorf("attention: blockwise key/value shape mismatch %dx%d vs %dx%d",
			keys.Rows, keys.Cols, values.Rows, values.Cols)
	}
	if q.Cols != e.cfg.D {
		return nil, fmt.Errorf("attention: query dim %d, engine built for %d", q.Cols, e.cfg.D)
	}
	n := keys.Rows
	nq := q.Rows
	res := &Result{
		Output:          tensor.New(nq, e.cfg.D),
		CandidateCounts: make([]int, nq),
		Candidates:      make([][]int, nq),
	}
	// Per-query running log-sum-exp merge state.
	maxScore := make([]float64, nq)
	sumExp := make([]float64, nq)
	acc := tensor.New(nq, e.cfg.D)
	for i := range maxScore {
		maxScore[i] = math.Inf(-1)
	}

	ws := e.getWorkspace()
	defer e.putWorkspace(ws)
	for lo := 0; lo < n; lo += blockSize {
		hi := lo + blockSize
		if hi > n {
			hi = n
		}
		kb := &tensor.Matrix{Rows: hi - lo, Cols: keys.Cols, Data: keys.Data[lo*keys.Cols : hi*keys.Cols]}
		vb := &tensor.Matrix{Rows: hi - lo, Cols: values.Cols, Data: values.Data[lo*values.Cols : hi*values.Cols]}
		pre, err := e.Preprocess(kb, vb)
		if err != nil {
			return nil, err
		}
		for qi := 0; qi < nq; qi++ {
			qrow := q.Row(qi)
			e.HashVectorInto(ws.hashWords, qrow, ws)
			scratch := e.selectCandidatesWords(ws.hashWords, pre, t, ws.cand[:0])
			ws.cand = scratch
			if len(scratch) == 0 {
				// A block contributing nothing is fine as long as some
				// block contributes; track the best key as a last-resort
				// fallback only when every block comes up empty (handled
				// after the loop via sumExp == 0).
				continue
			}
			res.CandidateCounts[qi] += len(scratch)
			res.TotalCandidates += len(scratch)
			for _, y := range scratch {
				res.Candidates[qi] = append(res.Candidates[qi], lo+y)
			}
			mergeBlock(e, ws, qrow, scratch, pre, acc.Row(qi), &maxScore[qi], &sumExp[qi])
		}
	}
	// Normalize; queries no block selected fall back to the single best
	// approximate key over the whole sequence.
	full, err := e.Preprocess(keys, values)
	if err != nil {
		return nil, err
	}
	for qi := 0; qi < nq; qi++ {
		if sumExp[qi] == 0 {
			res.FallbackQueries++
			e.HashVectorInto(ws.hashWords, q.Row(qi), ws)
			best := e.bestApproxKeyWords(ws.hashWords, full)
			copy(res.Output.Row(qi), values.Row(best))
			res.Candidates[qi] = append(res.Candidates[qi], best)
			res.CandidateCounts[qi] = 1
			res.TotalCandidates++
			continue
		}
		inv := 1 / sumExp[qi]
		out := res.Output.Row(qi)
		for j, v := range acc.Row(qi) {
			out[j] = float32(float64(v) * inv)
		}
	}
	if err := CheckFinite(res.Output); err != nil {
		return nil, err
	}
	return res, nil
}

// mergeBlock folds one block's candidates into the query's running
// log-sum-exp state: on a new maximum, previously accumulated sums are
// rescaled by e^{oldMax-newMax}.
func mergeBlock(e *Engine, ws *Workspace, qrow []float32, cand []int, pre *Preprocessed, acc []float32, maxScore, sumExp *float64) {
	// Block-local scores, staged in the workspace.
	if cap(ws.scores) < len(cand) {
		ws.scores = make([]float64, len(cand))
	}
	scores := ws.scores[:len(cand)]
	blockMax := math.Inf(-1)
	for ci, y := range cand {
		scores[ci] = float64(tensor.Dot(qrow, pre.Keys.Row(y))) * e.cfg.Scale
		if scores[ci] > blockMax {
			blockMax = scores[ci]
		}
	}
	if blockMax > *maxScore {
		// Rescale previous accumulation into the new reference frame.
		if *sumExp > 0 {
			scale := math.Exp(*maxScore - blockMax)
			*sumExp *= scale
			for j := range acc {
				acc[j] = float32(float64(acc[j]) * scale)
			}
		}
		*maxScore = blockMax
	}
	for ci, y := range cand {
		w := math.Exp(scores[ci] - *maxScore)
		*sumExp += w
		vrow := pre.Values.Row(y)
		for j := range acc {
			acc[j] += float32(w * float64(vrow[j]))
		}
	}
}
