package main

import (
	"fmt"
	"math"
	"time"

	"elsa"
	"elsa/internal/attention"
	"elsa/internal/tensor"
)

// The kernels the engine phase times, in the order each round runs them:
// ELSA p=1 and both exact backends on a concentrated instance, then ELSA
// p=1 on an unconcentrated one.
const (
	kElsa = iota
	kScores
	kLinearScan
	kElsaUnconc
	numKernels
)

// engineSet is one instance set with its own calibrated p=1 threshold.
type engineSet struct {
	set      []attn
	thr      elsa.Threshold
	elsaHash []uint64 // first ELSA output per instance
}

// enginePhase times ELSA p=1 and both exact backends on concentrated
// SQuAD-like instances, and ELSA p=1 on unit-normal ones.
type enginePhase struct {
	conc, unconc engineSet
	eng          *elsa.Engine
	durMs        [numKernels][]float64
	opsS         [numKernels]float64
	massRetained float64
	mismatches   int
	ops          int
	workers      int

	// Per-layer timings of internal/attention, filled by traceKernels.
	preprocessMs, attendWithMs, exactMs, linearMs float64
	candFraction, flopsPerOp, gatherBytesPerOp    float64
}

func samplesOf(as []attn) []elsa.Sample {
	var out []elsa.Sample
	for _, a := range as {
		out = append(out, elsa.Sample{Q: a.Q, K: a.K})
	}
	return out
}

// setupEngine builds the engine and calibrates a p=1 threshold for each
// set on that set's own calibration instances, as a deployment calibrates
// on its data.
func setupEngine(in *inputs, workers int) (*enginePhase, error) {
	eng, err := elsa.New(elsa.Options{HeadDim: headDim})
	if err != nil {
		return nil, err
	}
	p := &enginePhase{eng: eng, workers: workers,
		conc:   engineSet{set: in.conc, elsaHash: make([]uint64, len(in.conc))},
		unconc: engineSet{set: in.unconc, elsaHash: make([]uint64, len(in.unconc))},
	}
	if p.conc.thr, err = eng.Calibrate(1, samplesOf(in.concCalib)); err != nil {
		return nil, err
	}
	if p.unconc.thr, err = eng.Calibrate(1, samplesOf(in.unconcCalib)); err != nil {
		return nil, err
	}
	return p, nil
}

func (p *enginePhase) kernel(k, i int) ([][]float32, error) {
	a := p.conc.set[i]
	switch k {
	case kElsa, kElsaUnconc:
		s := &p.conc
		if k == kElsaUnconc {
			s = &p.unconc
		}
		out, err := p.eng.Attend(s.set[i].Q, s.set[i].K, s.set[i].V, s.thr)
		if err != nil {
			return nil, err
		}
		return out.Context, nil
	case kScores:
		return p.eng.ExactAttention(a.Q, a.K, a.V)
	default:
		out, err := p.eng.AttendLinearScan(a.Q, a.K, a.V)
		if err != nil {
			return nil, err
		}
		return out.Context, nil
	}
}

// run times rounds of the kernels on successive instances, one call at a
// time, for budget. Interleaving keeps slow drift in the machine's speed
// from favouring one kernel. A kernel's ops/s is from its median call.
func (p *enginePhase) run(budget time.Duration) error {
	start := time.Now()
	for r := 0; time.Since(start) < budget || r < enginePool; r++ {
		i := r % enginePool
		for k := 0; k < numKernels; k++ {
			t0 := time.Now()
			out, err := p.kernel(k, i)
			d := time.Since(t0)
			if err != nil {
				return fmt.Errorf("engine kernel %d: %w", k, err)
			}
			p.ops++
			p.durMs[k] = append(p.durMs[k], ms(d))
			if r < enginePool {
				switch k {
				case kElsa:
					p.conc.elsaHash[i] = hashRows(out)
				case kElsaUnconc:
					p.unconc.elsaHash[i] = hashRows(out)
				}
			}
		}
	}
	for k := range p.opsS {
		p.opsS[k] = 1000 / median(p.durMs[k])
	}
	return nil
}

func (p *enginePhase) exactOpsS() float64 { return math.Max(p.opsS[kScores], p.opsS[kLinearScan]) }

// check verifies, on both sets, that the two exact backends agree within
// the pinned cross-backend bound and that ELSA's pooled fast path
// returned exactly what Evaluate's collecting path returns; it also
// measures the softmax mass ELSA keeps on the concentrated set.
func (p *enginePhase) check() error {
	mass := make([]float64, enginePool)
	bad := make([]int, enginePool)
	err := parallel(enginePool, p.workers, func(i int) error {
		for _, s := range []*engineSet{&p.conc, &p.unconc} {
			a := s.set[i]
			out, fid, err := p.eng.Evaluate(a.Q, a.K, a.V, s.thr)
			if err != nil {
				return err
			}
			if hashRows(out.Context) != s.elsaHash[i] {
				bad[i]++
			}
			if s == &p.conc {
				mass[i] = fid.RetainedMass
			}
			scores, err := p.eng.ExactAttention(a.Q, a.K, a.V)
			if err != nil {
				return err
			}
			lin, err := p.eng.AttendLinearScan(a.Q, a.K, a.V)
			if err != nil {
				return err
			}
			bad[i] += exactDisagreements(scores, lin.Context, a.V)
		}
		return nil
	})
	if err != nil {
		return err
	}
	for _, b := range bad {
		p.mismatches += b
	}
	p.massRetained = mean(mass)
	return nil
}

// exactDisagreements counts output rows where the scores and linear-scan
// backends differ by more than attention.WithinLinearScanBound allows.
func exactDisagreements(a, b, v [][]float32) int {
	maxAbsV := 0.0
	for _, r := range v {
		for _, x := range r {
			maxAbsV = math.Max(maxAbsV, math.Abs(float64(x)))
		}
	}
	tol := attention.LinearScanTolerance(maxAbsV)
	bad := 0
	for i := range a {
		for j := range a[i] {
			if !attention.WithinLinearScanBound(a[i][j], b[i][j], tol) {
				bad++
				break
			}
		}
	}
	return bad
}

// traceKernels times the internal/attention stages ELSA is built from on
// the concentrated set, and derives operation and gathered-byte counts
// from the shapes and the candidate counts.
func (p *enginePhase) traceKernels() error {
	ae, err := attention.NewEngine(attention.Config{D: headDim})
	if err != nil {
		return err
	}
	ws := attention.NewWorkspace(ae)
	scale := ae.Config().Scale
	const reps = 3
	var pre, att, exact, lin, frac, flops, gather []float64
	for _, a := range p.conc.set {
		// Generated instances are rectangular and non-empty, so FromRows
		// cannot fail on them.
		qm, _ := tensor.FromRows(a.Q)
		km, _ := tensor.FromRows(a.K)
		vm, _ := tensor.FromRows(a.V)
		for r := 0; r < reps; r++ {
			t0 := time.Now()
			pp, err := ae.Preprocess(km, vm)
			t1 := time.Now()
			if err != nil {
				return err
			}
			res, err := ae.AttendWith(ws, qm, pp, p.conc.thr.T)
			t2 := time.Now()
			if err != nil {
				return err
			}
			attention.Exact(qm, km, vm, scale)
			t3 := time.Now()
			attention.ExactLinearScan(qm, km, vm, scale)
			t4 := time.Now()
			pre = append(pre, ms(t1.Sub(t0)))
			att = append(att, ms(t2.Sub(t1)))
			exact = append(exact, ms(t3.Sub(t2)))
			lin = append(lin, ms(t4.Sub(t3)))
			if r == 0 {
				n, nq, d := km.Rows, qm.Rows, headDim
				cand := float64(res.TotalCandidates)
				frac = append(frac, res.CandidateFraction(n))
				// Hashing every key and query through the Kronecker
				// projection, key norms, one selection test per
				// (query, key), and per candidate a d-wide dot product,
				// an exponent and a d-wide weighted-sum update.
				f := 2*float64(ae.HashMuls())*float64(n+nq) + 2*float64(n*d) + float64(n*nq) + cand*float64(4*d+1)
				flops = append(flops, f)
				// Each candidate gathers its key row and its value row.
				gather = append(gather, cand*float64(2*d*4))
			}
		}
	}
	p.preprocessMs, p.attendWithMs = median(pre), median(att)
	p.exactMs, p.linearMs = median(exact), median(lin)
	p.candFraction, p.flopsPerOp, p.gatherBytesPerOp = mean(frac), mean(flops), mean(gather)
	return nil
}
