package attention

import (
	"errors"
	"math"
	"math/rand"
	"sync"
	"testing"

	"elsa/internal/fixed"
	"elsa/internal/tensor"
)

// unitRoundoff is float32's unit roundoff, 2⁻²⁴.
const unitRoundoff = 1.0 / (1 << 24)

// exactKernelBound is the derived error bound of the exact kernel against
// the float64 reference, for n keys and values of magnitude at most
// maxAbsV. Both sides start from the same float32 logits, and the
// kernel's softmax runs in float64, whose error is negligible next to
// float32's. Each output element is then a float32 sum of the n products
// w_y·v_y, with Σ w_y = 1. A term takes one rounding for its float32
// weight, one for its product and two inside its block of four. Its block
// sum then takes one more at each of at most ⌈n/4⌉ + 3 accumulations into
// the output (one per block, one per tail key). That is at most
// k = ⌈n/4⌉ + 7 roundings per term, so the error is below
// γ_k·Σ|w_y·v_y| ≤ (k + 1)·2⁻²⁴·max|V|, the +1 covering γ_k's
// second-order part. This is the n·2⁻²⁴·max|V| shape, with the block
// structure dividing n by four.
func exactKernelBound(n int, maxAbsV float64) float64 {
	k := (n+3)/4 + 7
	return float64(k+1) * unitRoundoff * maxAbsV
}

// neumaier is a compensated float64 accumulator.
type neumaier struct{ sum, c float64 }

func (a *neumaier) add(x float64) {
	t := a.sum + x
	if math.Abs(a.sum) >= math.Abs(x) {
		a.c += (a.sum - t) + x
	} else {
		a.c += (x - t) + a.sum
	}
	a.sum = t
}

func (a *neumaier) value() float64 { return a.sum + a.c }

// exactRef64 is the float64 reference for one query row: the float32
// logits every exact backend shares (tensor.Dot, then the float32 scale
// multiply), then softmax and the weighted sum of values in float64 with
// compensated sums.
func exactRef64(qrow []float32, k, v *tensor.Matrix, scale float64) []float64 {
	n := k.Rows
	logits := make([]float64, n)
	m := math.Inf(-1)
	for y := 0; y < n; y++ {
		l := tensor.Dot(qrow, k.Row(y))
		if scale != 1 {
			l *= float32(scale)
		}
		logits[y] = float64(l)
		m = math.Max(m, logits[y])
	}
	var sum neumaier
	for y := range logits {
		logits[y] = math.Exp(logits[y] - m)
		sum.add(logits[y])
	}
	out := make([]float64, v.Cols)
	for j := range out {
		var acc neumaier
		for y := 0; y < n; y++ {
			acc.add(logits[y] * float64(v.At(y, j)))
		}
		out[j] = acc.value() / sum.value()
	}
	return out
}

// assertNearRef64 checks every element of out (the kernel's answer for
// q, k, v) against the float64 reference within exactKernelBound.
func assertNearRef64(t *testing.T, what string, out, q, k, v *tensor.Matrix, scale float64) {
	t.Helper()
	bound := exactKernelBound(k.Rows, maxAbsV(v))
	for i := 0; i < q.Rows; i++ {
		ref := exactRef64(q.Row(i), k, v, scale)
		for j, r := range ref {
			got := float64(out.At(i, j))
			if math.IsNaN(got) || math.Abs(got-r) > bound {
				t.Fatalf("%s n=%d: out[%d][%d] = %v, float64 reference %v: error %g exceeds bound %g",
					what, k.Rows, i, j, got, r, math.Abs(got-r), bound)
			}
		}
	}
}

// TestExactKernelFloat64Oracle bounds the exact kernel against the
// compensated float64 reference at every n mod 4 block tail, on two
// regimes: near-flat logits, where every key carries about 1/n of the
// mass (so dropping any one key moves the output far past the bound), and
// spread logits, where the max subtraction matters.
func TestExactKernelFloat64Oracle(t *testing.T) {
	const d = 64
	e := newTestEngine(t, Config{D: d, Seed: 3})
	ws := NewWorkspace(e)
	for _, n := range []int{1, 2, 3, 4, 5, 63, 64, 65, 511, 512, 513} {
		for _, regime := range []struct {
			name  string
			qMult float32
		}{{"flat", 0.05}, {"spread", 2}} {
			rng := rand.New(rand.NewSource(int64(n)))
			q := tensor.RandomNormal(rng, 3, d)
			for i := range q.Data {
				q.Data[i] *= regime.qMult
			}
			k := tensor.RandomNormal(rng, n, d)
			v := tensor.RandomNormal(rng, n, d)
			assertNearRef64(t, regime.name+"/Exact", Exact(q, k, v, e.cfg.Scale), q, k, v, e.cfg.Scale)
			p, err := e.PreprocessExact(k, v)
			if err != nil {
				t.Fatal(err)
			}
			res, err := e.AttendExactWith(ws, q, p)
			if err != nil {
				t.Fatal(err)
			}
			assertNearRef64(t, regime.name+"/AttendExactWith", res.Output, q, k, v, e.cfg.Scale)
			for i, c := range res.CandidateCounts {
				if c != n {
					t.Fatalf("n=%d query %d: %d candidates, want all %d", n, i, c, n)
				}
			}
			if res.FallbackQueries != 0 {
				t.Fatalf("n=%d: %d fallbacks", n, res.FallbackQueries)
			}
		}
	}
}

// TestExactKernelLogitsMatchMatMulT pins the kernel's blocked logits to
// the scores path and the linear scan: for block counts with every n mod 4
// tail and an odd head dimension, tensor.Dot4 equals both tensor.MatMulT
// and tensor.Dot bit for bit.
func TestExactKernelLogitsMatchMatMulT(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, d := range []int{7, 64} {
		for _, n := range []int{1, 2, 3, 4, 5, 9} {
			q := tensor.RandomNormal(rng, 2, d)
			k := tensor.RandomNormal(rng, n, d)
			want := tensor.MatMulT(q, k)
			for i := 0; i < q.Rows; i++ {
				for y := 0; y+4 <= n; y += 4 {
					l0, l1, l2, l3 := tensor.Dot4(q.Row(i), k.Row(y), k.Row(y+1), k.Row(y+2), k.Row(y+3))
					for c, l := range []float32{l0, l1, l2, l3} {
						if l != want.At(i, y+c) || l != tensor.Dot(q.Row(i), k.Row(y+c)) {
							t.Fatalf("d=%d n=%d: Dot4 logit %d = %v, MatMulT %v", d, n, y+c, l, want.At(i, y+c))
						}
					}
				}
			}
		}
	}
}

// TestAttendExactWithZeroAlloc: a steady-state AttendExactWith call on a
// warm workspace allocates nothing, hot-only and over a cold prefix.
func TestAttendExactWithZeroAlloc(t *testing.T) {
	e := newTestEngine(t, Config{D: 16, Seed: 4})
	rng := rand.New(rand.NewSource(6))
	q := tensor.RandomNormal(rng, 4, 16)
	p, err := e.PreprocessExact(tensor.RandomNormal(rng, 37, 16), tensor.RandomNormal(rng, 37, 16))
	if err != nil {
		t.Fatal(err)
	}
	ws := NewWorkspace(e)
	if _, err := e.AttendExactWith(ws, q, p); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := e.AttendExactWith(ws, q, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("AttendExactWith allocates %.1f times per call, want 0", allocs)
	}

	st := e.NewStreamCold(0, 8)
	fillStream(t, st, tensor.RandomNormal(rng, 40, 16), tensor.RandomNormal(rng, 40, 16))
	if st.ColdLen() == 0 {
		t.Fatal("no cold prefix to exercise")
	}
	qrow := q.Row(0)
	dst := make([]float32, 16)
	if dst, _, err = st.QueryWith(dst, qrow, ExactThresholdNoApprox); err != nil {
		t.Fatal(err)
	}
	allocs = testing.AllocsPerRun(50, func() {
		dst, _, err = st.QueryWith(dst, qrow, ExactThresholdNoApprox)
	})
	if err != nil {
		t.Fatal(err)
	}
	if allocs != 0 {
		t.Errorf("p=0 cold-prefix stream query allocates %.1f times per query, want 0", allocs)
	}
}

// TestStreamExactMatchesOneShot: a stream appended token by token —
// across cold-watermark demotions — answers a p=0 QueryWith (float
// engine) and QueryExact (any engine) bit-identically to one-shot
// exact attention over its materialized prefix, after every append, and
// never hashes the query to do it (a float p=0 query reports every key
// with no fallback).
func TestStreamExactMatchesOneShot(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	const d, total = 16, 41
	for _, tc := range []struct {
		name      string
		quantized bool
		watermark int
	}{
		{"float-allhot", false, 0},
		{"float-cold", false, 6},
		{"quantized-cold", true, 6},
	} {
		e := newTestEngine(t, Config{D: d, Seed: 2, Quantized: tc.quantized})
		st := e.NewStreamCold(0, tc.watermark)
		k := tensor.RandomNormal(rng, total, d)
		v := tensor.RandomNormal(rng, total, d)
		ws := NewWorkspace(e)
		for i := 0; i < total; i++ {
			if err := st.Append(k.Row(i), v.Row(i)); err != nil {
				t.Fatal(err)
			}
			keys, values := st.Rows()
			km, _ := tensor.FromRows(keys)
			vm, _ := tensor.FromRows(values)
			q := tensor.RandomNormal(rng, 1, d)
			p, err := e.PreprocessExact(km, vm)
			if err != nil {
				t.Fatal(err)
			}
			want, err := e.AttendExactWith(ws, q, p)
			if err != nil {
				t.Fatal(err)
			}
			got, stats, err := st.QueryExact(nil, q.Row(0))
			if err != nil {
				t.Fatal(err)
			}
			if !tc.quantized {
				auto, autoStats, err := st.QueryWith(nil, q.Row(0), ExactThresholdNoApprox)
				if err != nil {
					t.Fatal(err)
				}
				if autoStats != stats {
					t.Fatalf("%s len %d: p=0 QueryWith stats %+v, QueryExact %+v", tc.name, i+1, autoStats, stats)
				}
				for j := range auto {
					if auto[j] != got[j] {
						t.Fatalf("%s len %d: p=0 QueryWith differs from QueryExact at %d", tc.name, i+1, j)
					}
				}
			}
			if stats.Candidates != i+1 || stats.Fallback {
				t.Fatalf("%s len %d: stats %+v, want every key and no fallback", tc.name, i+1, stats)
			}
			for j, x := range want.Output.Row(0) {
				if got[j] != x {
					t.Fatalf("%s len %d (cold %d): stream %v, one-shot %v at %d",
						tc.name, i+1, st.ColdLen(), got[j], x, j)
				}
			}
		}
		if tc.watermark > 0 && st.ColdLen() == 0 {
			t.Fatalf("%s: no demotion happened", tc.name)
		}
	}
}

// overflowCase builds inputs whose logits overflow float32: every query
// and key element is ±1e20, so every q·k is ±Inf.
func overflowCase(seed int64, nq, n, d int) (q, k, v *tensor.Matrix) {
	rng := rand.New(rand.NewSource(seed))
	sign := func(m *tensor.Matrix) *tensor.Matrix {
		for i := range m.Data {
			m.Data[i] = 1e20
			if rng.Intn(2) == 0 {
				m.Data[i] = -1e20
			}
		}
		return m
	}
	return sign(tensor.New(nq, d)), sign(tensor.New(n, d)), tensor.RandomNormal(rng, n, d)
}

// assertNonFinite checks that every engine entry point refuses the
// overflow case with ErrNonFinite instead of a NaN output.
func assertNonFinite(t *testing.T, e *Engine, q, k, v *tensor.Matrix) {
	t.Helper()
	ws := NewWorkspace(e)
	exact, err := e.PreprocessExact(k, v)
	if err != nil {
		t.Fatal(err)
	}
	hashed, err := e.Preprocess(k, v)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		run  func() (*Result, error)
	}{
		{"AttendExactWith", func() (*Result, error) { return e.AttendExactWith(ws, q, exact) }},
		{"AttendLinearScanWith", func() (*Result, error) { return e.AttendLinearScanWith(ws, q, exact) }},
		{"AttendWith p=0", func() (*Result, error) { return e.AttendWith(ws, q, hashed, ExactThresholdNoApprox) }},
		{"Attend t=0.2", func() (*Result, error) { return e.Attend(q, hashed, 0.2) }},
		{"AttendParallel p=0", func() (*Result, error) { return e.AttendParallel(q, hashed, ExactThresholdNoApprox, 2) }},
	} {
		res, err := c.run()
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("%s: err = %v, want ErrNonFinite", c.name, err)
		}
		if res != nil {
			t.Fatalf("%s: returned a result with the error", c.name)
		}
	}
}

// TestNonFiniteOutputIsTypedError: logits that overflow float32 make
// every engine path return ErrNonFinite rather than NaN with a nil error.
func TestNonFiniteOutputIsTypedError(t *testing.T) {
	e := newTestEngine(t, Config{D: 8, Seed: 1})
	q, k, v := overflowCase(1, 2, 5, 8)
	assertNonFinite(t, e, q, k, v)
	st := e.NewStream(0)
	fillStream(t, st, k, v)
	for _, thr := range []float64{ExactThresholdNoApprox, 0.2} {
		if _, _, err := st.QueryWith(nil, q.Row(0), thr); !errors.Is(err, ErrNonFinite) {
			t.Errorf("stream t=%g: err = %v, want ErrNonFinite", thr, err)
		}
	}
	if _, _, err := st.QueryLinearScan(nil, q.Row(0)); !errors.Is(err, ErrNonFinite) {
		t.Errorf("stream linear scan: err = %v, want ErrNonFinite", err)
	}
	if _, err := e.BlockwiseAttend(q, k, v, 2, ExactThresholdNoApprox); !errors.Is(err, ErrNonFinite) {
		t.Errorf("blockwise: err = %v, want ErrNonFinite", err)
	}
	cq, ck, cv := overflowCase(2, 5, 5, 8)
	pre, err := e.Preprocess(ck, cv)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.AttendCausal(cq, pre, ExactThresholdNoApprox); !errors.Is(err, ErrNonFinite) {
		t.Errorf("causal: err = %v, want ErrNonFinite", err)
	}
}

// fuzzEngines caches one engine per head dimension across fuzz inputs.
var fuzzEngines sync.Map

func fuzzEngine(t *testing.T, d int) *Engine {
	if e, ok := fuzzEngines.Load(d); ok {
		return e.(*Engine)
	}
	e := newTestEngine(t, Config{D: d, Seed: 1, BiasSamples: 50})
	fuzzEngines.Store(d, e)
	return e
}

// FuzzExactKernel bounds the exact kernel against the float64 reference
// for arbitrary shapes, scales, seeds and the degenerate softmax regimes
// of buildFuzzCase (modes 0–4), and adds the overflow regime (mode 5):
// logits beyond float32 range must make every engine path return
// ErrNonFinite. The seeded corpus runs in every regular `go test`.
func FuzzExactKernel(f *testing.F) {
	f.Add(uint8(0), int64(1), uint8(4), uint8(16), uint8(8), float64(0))
	f.Add(uint8(0), int64(2), uint8(7), uint8(33), uint8(5), 1.0)
	f.Add(uint8(0), int64(3), uint8(1), uint8(1), uint8(1), 0.125) // n=1, d=1
	f.Add(uint8(1), int64(4), uint8(3), uint8(24), uint8(8), float64(0))
	f.Add(uint8(2), int64(5), uint8(5), uint8(17), uint8(4), float64(0))
	f.Add(uint8(3), int64(6), uint8(2), uint8(12), uint8(8), float64(0))
	f.Add(uint8(4), int64(7), uint8(2), uint8(50), uint8(6), float64(0))
	f.Add(uint8(5), int64(8), uint8(2), uint8(6), uint8(8), float64(0)) // overflow
	f.Add(uint8(5), int64(9), uint8(1), uint8(1), uint8(3), float64(0)) // overflow, n=1
	f.Add(uint8(5), int64(10), uint8(3), uint8(9), uint8(16), 1.0)      // overflow, scale 1
	f.Fuzz(func(t *testing.T, mode uint8, seed int64, nqRaw, nRaw, dRaw uint8, scale float64) {
		nq := int(nqRaw)%16 + 1
		n := int(nRaw)%96 + 1
		d := int(dRaw)%32 + 1
		if mode%6 == 5 {
			q, k, v := overflowCase(seed, nq, n, d)
			assertNonFinite(t, fuzzEngine(t, d), q, k, v)
			return
		}
		if math.IsNaN(scale) || math.IsInf(scale, 0) || math.Abs(scale) > 16 {
			scale = 0
		}
		if scale == 0 {
			scale = DefaultScale(d)
		}
		q, k, v := buildFuzzCase(mode, seed, nq, n, d, scale)
		assertNearRef64(t, "Exact", Exact(q, k, v, scale), q, k, v, scale)
	})
}

// TestExactKernelQuantizedStaging: on a quantized engine the kernel runs
// float arithmetic on the quantized inputs, so it equals the free Exact
// over the staged Q/K/V.
func TestExactKernelQuantizedStaging(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	e := newTestEngine(t, Config{D: 16, Seed: 9, Quantized: true})
	q := tensor.RandomNormal(rng, 3, 16)
	p, err := e.PreprocessExact(tensor.RandomNormal(rng, 21, 16), tensor.RandomNormal(rng, 21, 16))
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.AttendExactWith(NewWorkspace(e), q, p)
	if err != nil {
		t.Fatal(err)
	}
	qs := q.Clone()
	fixed.QKV.QuantizeSlice(qs.Data)
	want := Exact(qs, p.Keys, p.Values, e.cfg.Scale)
	for i, x := range want.Data {
		if res.Output.Data[i] != x {
			t.Fatalf("element %d: engine %v, free Exact on quantized inputs %v", i, res.Output.Data[i], x)
		}
	}
}
