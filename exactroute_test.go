package elsa

import (
	"errors"
	"math/rand"
	"testing"
)

// fill returns an n×d matrix with every element x.
func fill(n, d int, x float32) [][]float32 {
	m := make([][]float32, n)
	for i := range m {
		m[i] = make([]float32, d)
		for j := range m[i] {
			m[i][j] = x
		}
	}
	return m
}

// TestP0ZeroNormKeysAttendEveryKey: with every key zero, the filter's
// cut −2·‖K_max‖ is 0 and rejects every key, so the filter pipeline
// answered p=0 with the fallback key's value alone. Exact attention over
// two keys with equal (zero) logits averages their values: 1 and 3 → 2.
func TestP0ZeroNormKeysAttendEveryKey(t *testing.T) {
	const d = 8
	e := newEngine(t, Options{HeadDim: d})
	q := [][]float32{fill(1, d, 1)[0]}
	k := fill(2, d, 0)
	v := [][]float32{fill(1, d, 1)[0], fill(1, d, 3)[0]}
	check := func(what string, ctx []float32, fallback bool) {
		t.Helper()
		for j, x := range ctx {
			if x != 2 {
				t.Fatalf("%s: context[%d] = %v, want 2 (the mean of both values)", what, j, x)
			}
		}
		if fallback {
			t.Fatalf("%s: reported a filter fallback at p=0", what)
		}
	}
	out, err := e.Attend(q, k, v, Exact())
	if err != nil {
		t.Fatal(err)
	}
	check("Attend", out.Context[0], out.FallbackQueries != 0)
	outs, err := e.AttendBatch([]BatchOp{{Q: q, K: k, V: v}}, Exact(), 1)
	if err != nil {
		t.Fatal(err)
	}
	check("AttendBatch", outs[0].Context[0], outs[0].FallbackQueries != 0)
	st := e.NewStream(2)
	for i := range k {
		if err := st.Append(k[i], v[i]); err != nil {
			t.Fatal(err)
		}
	}
	ctx, stats, err := st.Query(q[0], Exact())
	if err != nil {
		t.Fatal(err)
	}
	check("Stream.Query", ctx, stats.Fallback)
}

// TestNonFiniteIsTypedError: logits that overflow float32 make every
// public entry point return ErrNonFinite, which errors.Is finds through
// AttendBatch's "op N:" wrap, instead of a NaN context with a nil error.
func TestNonFiniteIsTypedError(t *testing.T) {
	const d = 8
	e := newEngine(t, Options{HeadDim: d})
	huge := fill(1, d, 1e20)[0]
	neg := fill(1, d, -1e20)[0]
	// Two keys tie at a +Inf logit, so every backend's softmax subtracts
	// infinities.
	q, k := [][]float32{huge}, [][]float32{huge, huge, neg}
	want := func(what string, err error) {
		t.Helper()
		if !errors.Is(err, ErrNonFinite) {
			t.Errorf("%s: err = %v, want ErrNonFinite", what, err)
		}
	}
	_, err := e.Attend(q, k, k, Exact())
	want("Attend p=0", err)
	_, err = e.ExactAttention(q, k, k)
	want("ExactAttention", err)
	_, err = e.AttendLinearScan(q, k, k)
	want("AttendLinearScan", err)
	_, _, err = e.Evaluate(q, k, k, Exact())
	want("Evaluate p=0", err)
	rng := rand.New(rand.NewSource(1))
	gq, gk, gv := genData(rng, 2, 6, d)
	_, err = e.AttendBatch([]BatchOp{{Q: gq, K: gk, V: gv}, {Q: q, K: k, V: k}}, Exact(), 2)
	want("AttendBatch", err)
	st := e.NewStream(len(k))
	for i := range k {
		if err := st.Append(k[i], k[i]); err != nil {
			t.Fatal(err)
		}
	}
	_, _, err = st.Query(huge, Exact())
	want("Stream.Query", err)
	_, _, err = st.QueryOverrides(nil, huge, Overrides{Backend: BackendLinearScan}, Exact())
	want("Stream linear scan", err)
}

// TestP0EntryPointsBitIdentical pins p=0 across the entry points on a
// float engine: for every prefix length i, one-shot Attend, AttendBatch,
// Evaluate and the BackendScores selector over the prefix, and a stream's
// QueryWith (all hot, and across cold-watermark demotions against the
// materialized prefix), agree bit for bit and report every key with no
// fallback.
func TestP0EntryPointsBitIdentical(t *testing.T) {
	const d, total = 16, 23
	rng := rand.New(rand.NewSource(9))
	e := newEngine(t, Options{HeadDim: d, Seed: 2})
	q, k, v := genData(rng, total, total, d)
	hot := e.NewStream(total)
	cold := e.NewStreamCold(total, 4)
	same := func(what string, i int, got, want []float32) {
		t.Helper()
		for j := range want {
			if got[j] != want[j] {
				t.Fatalf("prefix %d: %s context[%d] = %v, one-shot %v", i+1, what, j, got[j], want[j])
			}
		}
	}
	for i := 0; i < total; i++ {
		for _, st := range []*Stream{hot, cold} {
			if err := st.Append(k[i], v[i]); err != nil {
				t.Fatal(err)
			}
		}
		qi := [][]float32{q[i]}
		one, err := e.Attend(qi, k[:i+1], v[:i+1], Exact())
		if err != nil {
			t.Fatal(err)
		}
		if one.CandidateFraction != 1 || one.FallbackQueries != 0 {
			t.Fatalf("prefix %d: fraction %g, fallbacks %d", i+1, one.CandidateFraction, one.FallbackQueries)
		}
		want := one.Context[0]
		batch, err := e.AttendBatch([]BatchOp{
			{Q: qi, K: k[:i+1], V: v[:i+1]},
			{Q: qi, K: k[:i+1], V: v[:i+1], Overrides: Overrides{Backend: BackendScores}},
		}, Exact(), 2)
		if err != nil {
			t.Fatal(err)
		}
		same("AttendBatch", i, batch[0].Context[0], want)
		same("BackendScores", i, batch[1].Context[0], want)
		ev, fid, err := e.Evaluate(qi, k[:i+1], v[:i+1], Exact())
		if err != nil {
			t.Fatal(err)
		}
		same("Evaluate", i, ev.Context[0], want)
		if fid.RetainedMass < 1-1e-6 {
			t.Fatalf("prefix %d: Evaluate retained mass %g at p=0", i+1, fid.RetainedMass)
		}
		got, stats, err := hot.QueryWith(nil, q[i], Exact())
		if err != nil {
			t.Fatal(err)
		}
		same("Stream.QueryWith", i, got, want)
		if stats.Candidates != i+1 || stats.Fallback {
			t.Fatalf("prefix %d: stream stats %+v", i+1, stats)
		}
		keys, values := cold.Rows()
		coldWant, err := e.Attend(qi, keys, values, Exact())
		if err != nil {
			t.Fatal(err)
		}
		got, _, err = cold.QueryWith(nil, q[i], Exact())
		if err != nil {
			t.Fatal(err)
		}
		same("cold Stream.QueryWith", i, got, coldWant.Context[0])
		got, _, err = cold.QueryOverrides(nil, q[i], Overrides{Backend: BackendScores}, Exact())
		if err != nil {
			t.Fatal(err)
		}
		same("cold BackendScores query", i, got, coldWant.Context[0])
	}
	if cold.ColdLen() == 0 {
		t.Fatal("no demotion happened")
	}
}

// TestP0StreamQueryZeroAlloc: a steady-state p=0 decode query through the
// public Stream allocates nothing, over a cold prefix too.
func TestP0StreamQueryZeroAlloc(t *testing.T) {
	const d = 16
	rng := rand.New(rand.NewSource(3))
	e := newEngine(t, Options{HeadDim: d})
	q, k, v := genData(rng, 1, 40, d)
	for _, st := range []*Stream{e.NewStream(40), e.NewStreamCold(40, 8)} {
		for i := range k {
			if err := st.Append(k[i], v[i]); err != nil {
				t.Fatal(err)
			}
		}
		dst := make([]float32, d)
		var err error
		if dst, _, err = st.QueryWith(dst, q[0], Exact()); err != nil {
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(50, func() {
			dst, _, err = st.QueryWith(dst, q[0], Exact())
		})
		if err != nil {
			t.Fatal(err)
		}
		if allocs != 0 {
			t.Errorf("cold=%d: p=0 stream query allocates %.1f times per query, want 0", st.ColdLen(), allocs)
		}
	}
}
