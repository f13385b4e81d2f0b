// Package attention implements the paper's subject: the self-attention
// operator, both the exact reference (§II-A) and ELSA's approximate variant
// (§III) with SRP candidate filtering, Kronecker-structured hash
// computation, learned layer thresholds, and optional hardware-accurate
// fixed-point numerics.
package attention

import (
	"errors"
	"fmt"
	"math"

	"elsa/internal/fixed"
	"elsa/internal/tensor"
)

// DefaultScale returns the conventional scaled-dot-product factor 1/√d.
func DefaultScale(d int) float64 { return 1 / math.Sqrt(float64(d)) }

// Exact computes the reference self-attention output
// O = softmax(scale·Q·Kᵀ)·V with the blocked exact row kernel (exactRow).
// Q is n_q×d, K and V are n×d; the result is n_q×d. It panics on shape
// mismatch (static model configuration).
func Exact(q, k, v *tensor.Matrix, scale float64) *tensor.Matrix {
	checkShapes(q, k, v)
	out := tensor.New(q.Rows, v.Cols)
	p := &Preprocessed{Keys: k, Values: v}
	var ws Workspace
	for i := 0; i < q.Rows; i++ {
		exactRow(out.Row(i), q.Row(i), scale, p, &ws)
	}
	return out
}

// ExactWithScores is the exact operator that materializes the
// softmax-normalized attention score matrix S′ (n_q×n) and returns it with
// the output, for the consumers that need S′: the threshold learner and
// the fidelity metrics. Callers that want only the output use Exact.
func ExactWithScores(q, k, v *tensor.Matrix, scale float64) (*tensor.Matrix, *tensor.Matrix) {
	checkShapes(q, k, v)
	scores := tensor.MatMulT(q, k)
	if scale != 1 {
		scores.Scale(float32(scale))
	}
	tensor.SoftmaxRows(scores)
	return tensor.MatMul(scores, v), scores
}

// ErrNonFinite reports an attention output that holds a NaN or an
// infinity. Finite inputs produce one when their logits overflow float32
// (|q|·|k| beyond ~1e38): the softmax then subtracts infinities. Every
// engine entry point checks its output and returns this error (wrapped)
// instead of a NaN context.
var ErrNonFinite = errors.New("attention output is not finite")

// CheckFinite returns ErrNonFinite, wrapped with the first offending
// element, when m holds a NaN or an infinity.
func CheckFinite(m *tensor.Matrix) error {
	for i, x := range m.Data {
		if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
			return fmt.Errorf("%w: output[%d][%d] is %g", ErrNonFinite, i/m.Cols, i%m.Cols, x)
		}
	}
	return nil
}

// RoutesExact reports whether an op at threshold t runs the exact kernel
// instead of the filter pipeline. The filter admits key y when
// ‖K_y‖·cos θ̂ > t·‖K_max‖, and the left side is never below −‖K_max‖, so
// any t < −1 asks for every key: the op is exact attention, and hashing
// keys and queries for it is wasted work. (The filter also gets it wrong
// when every key is zero: its cut is then 0, it admits nothing, and the
// fallback answers with one key.) Quantized engines keep the accelerator
// pipeline (LUT exponent and reciprocal units) at every threshold,
// because they model the hardware.
func (e *Engine) RoutesExact(t float64) bool {
	return !e.cfg.Quantized && t < -1
}

// AttendExactWith runs exact attention over a Preprocessed prefix (from
// PreprocessExact, or a stream's snapshot) inside the caller's
// workspace: every query row attends all n keys through exactRow, cold
// prefix included, and the returned Result is workspace-owned, so a
// steady-state call allocates nothing. No key or query is hashed.
// CandidateCounts[i] = n for every query, Candidates stays nil and
// FallbackQueries is 0. Queries are staged through the engine's input
// quantizer, like AttendLinearScanWith, so on a quantized engine the
// kernel computes float-exact attention on the quantized inputs. A
// non-finite output returns ErrNonFinite.
func (e *Engine) AttendExactWith(ws *Workspace, q *tensor.Matrix, p *Preprocessed) (*Result, error) {
	if err := e.checkQuery(q); err != nil {
		return nil, err
	}
	qm := ws.stageQuery(e, q)
	res := ws.result(q.Rows, e.cfg.D)
	n := p.N()
	for i := 0; i < qm.Rows; i++ {
		exactRow(res.Output.Row(i), qm.Row(i), e.cfg.Scale, p, ws)
		res.CandidateCounts[i] = n
	}
	res.TotalCandidates = qm.Rows * n
	if err := CheckFinite(res.Output); err != nil {
		return nil, err
	}
	return res, nil
}

// exactRow is the exact row kernel: one query's attention output over all
// n keys of p, in three passes.
//
//  1. Logits, four keys at a time through tensor.Dot4 (the tail through
//     tensor.Dot), so each logit is bitwise the one tensor.MatMulT and
//     the linear scan compute, followed by the same float32 scale
//     multiply.
//  2. A float64 max-subtracted softmax: exp(l − max) in place, summed.
//  3. The value accumulation, four value rows at a time: each weight is
//     normalized and rounded to float32 once, and one pass over the
//     output row adds (w0·v0 + w1·v1) + (w2·v2 + w3·v3).
//
// Rows are taken by logical index, four at a time, whether they sit in
// the hot tail or the cold prefix (cold rows decode into the workspace's
// block buffer), so a stream's answer is bitwise the one-shot answer over
// its materialized prefix. The logits live in ws.scores; ws may be a zero
// Workspace when p has no cold prefix.
func exactRow(out, qrow []float32, scale float64, p *Preprocessed, ws *Workspace) {
	n, d := p.N(), len(out)
	var ck, cv *fixed.PackedCodes
	var buf []float32
	if p.Cold != nil {
		ck, cv = p.Cold.Keys, p.Cold.Values
		if len(ws.block) < 4*d {
			ws.block = make([]float32, 4*d)
		}
		buf = ws.block[:4*d]
	}
	if cap(ws.scores) < n {
		ws.scores = make([]float64, n)
	}
	logits := ws.scores[:n]

	y := 0
	for ; y+4 <= n; y += 4 {
		k0, k1, k2, k3 := rows4(p.Keys, ck, y, buf)
		l0, l1, l2, l3 := tensor.Dot4(qrow, k0, k1, k2, k3)
		logits[y], logits[y+1], logits[y+2], logits[y+3] = float64(l0), float64(l1), float64(l2), float64(l3)
	}
	for ; y < n; y++ {
		logits[y] = float64(tensor.Dot(qrow, rowAt(p.Keys, ck, y, buf)))
	}
	scale32 := float32(scale)
	m := math.Inf(-1)
	for y, l := range logits {
		if scale != 1 {
			l = float64(float32(l) * scale32)
			logits[y] = l
		}
		if l > m {
			m = l
		}
	}
	sum := 0.0
	for y, l := range logits {
		w := math.Exp(l - m)
		logits[y] = w
		sum += w
	}
	inv := 1 / sum

	for j := range out {
		out[j] = 0
	}
	y = 0
	for ; y+4 <= n; y += 4 {
		v0, v1, v2, v3 := rows4(p.Values, cv, y, buf)
		v0, v1, v2, v3 = v0[:d], v1[:d], v2[:d], v3[:d]
		w0, w1 := float32(logits[y]*inv), float32(logits[y+1]*inv)
		w2, w3 := float32(logits[y+2]*inv), float32(logits[y+3]*inv)
		for j := range out {
			out[j] += (w0*v0[j] + w1*v1[j]) + (w2*v2[j] + w3*v3[j])
		}
	}
	for ; y < n; y++ {
		v := rowAt(p.Values, cv, y, buf)[:d]
		w := float32(logits[y] * inv)
		for j := range out {
			out[j] += w * v[j]
		}
	}
}

func checkShapes(q, k, v *tensor.Matrix) {
	if q.Cols != k.Cols {
		panic(fmt.Sprintf("attention: query dim %d != key dim %d", q.Cols, k.Cols))
	}
	if k.Rows != v.Rows {
		panic(fmt.Sprintf("attention: %d keys but %d values", k.Rows, v.Rows))
	}
	if k.Cols != v.Cols {
		panic(fmt.Sprintf("attention: key dim %d != value dim %d", k.Cols, v.Cols))
	}
}

// FLOPs accounting for the exact operator (§II-B): n²d MACs for Q·Kᵀ, n²
// exponent ops for softmax, and n²d MACs for S′·V. One MAC counts as two
// floating-point operations.
type FLOPs struct {
	ScoreMACs    int64 // Q·Kᵀ multiply-accumulates
	SoftmaxExps  int64 // exponent evaluations
	WeightedMACs int64 // S′·V multiply-accumulates
}

// ExactFLOPs returns the cost of exact attention with n_q queries over n
// keys of dimension d.
func ExactFLOPs(nq, n, d int) FLOPs {
	return FLOPs{
		ScoreMACs:    int64(nq) * int64(n) * int64(d),
		SoftmaxExps:  int64(nq) * int64(n),
		WeightedMACs: int64(nq) * int64(n) * int64(d),
	}
}

// Total returns the total FLOP count, counting a MAC as two operations and
// an exponent as one.
func (f FLOPs) Total() int64 {
	return 2*(f.ScoreMACs+f.WeightedMACs) + f.SoftmaxExps
}
