package serve

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"elsa"
)

// constRows returns rows×testDim rows with every element x.
func constRows(rows int, x float32) [][]float32 {
	m := make([][]float32, rows)
	for i := range m {
		m[i] = make([]float32, testDim)
		for j := range m[i] {
			m[i][j] = x
		}
	}
	return m
}

// TestAttendZeroNormKeysP0: a p=0 op whose keys are all zero attends
// every key — two equal logits average values 1 and 3 to 2 — instead of
// answering with the filter's fallback key alone.
func TestAttendZeroNormKeysP0(t *testing.T) {
	ts := newWireServer(t)
	v := append(constRows(1, 1), constRows(1, 3)...)
	var got AttendResponse
	req := AttendRequest{Q: constRows(1, 1), K: constRows(2, 0), V: v, HeadDim: testDim}
	if code := doJSON(t, ts.Client(), "POST", ts.URL+"/v1/attend", req, &got); code != http.StatusOK {
		t.Fatalf("status %d", code)
	}
	for j, x := range got.Context[0] {
		if x != 2 {
			t.Fatalf("context[%d] = %v, want 2 (the mean of both values)", j, x)
		}
	}
	if got.FallbackQueries != 0 || got.CandidateFraction != 1 {
		t.Fatalf("fallbacks %d, candidate fraction %g; want 0 and 1", got.FallbackQueries, got.CandidateFraction)
	}
}

// TestP0BitIdenticalAcrossServeEntryPoints pins p=0 across the serving
// entry points for every prefix length, on a float engine whose sessions
// demote past a cold watermark: a session query through the dispatch
// loop, the same query offloaded to a remote lane
// (remoteBackend.decodeBatch, which ships the materialized prefix to a
// worker's /v1/attend), a one-shot POST /v1/attend of row i over the
// materialized prefix, and an in-process Stream.QueryWith all agree bit
// for bit.
func TestP0BitIdenticalAcrossServeEntryPoints(t *testing.T) {
	const total, watermark = 19, 3
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	srv := New(Config{Replicas: 1, ColdWatermark: watermark})
	defer srv.Close()
	front := httptest.NewServer(srv)
	defer front.Close()
	workerSrv := New(Config{Replicas: 1})
	defer workerSrv.Close()
	workerTS := httptest.NewServer(workerSrv)
	defer workerTS.Close()
	remote := &remoteBackend{w: newWorker(workerTS.URL, 4, 3, NewMetrics()), opts: opts}

	eng, err := elsa.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	mirror := eng.NewStreamCold(0, watermark)
	set, err := srv.pool.get(opts)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sess, err := srv.sessions.create(ctx, set, opts, 0, nil, "", total, requestMeta{})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(41))
	for i := 0; i < total; i++ {
		k, v, q := genVec(rng), genVec(rng), genVec(rng)
		if _, err := srv.sessions.append(ctx, sess.id, [][]float32{k}, [][]float32{v}); err != nil {
			t.Fatal(err)
		}
		if err := mirror.Append(k, v); err != nil {
			t.Fatal(err)
		}
		want, _, err := mirror.QueryWith(nil, q, elsa.Exact())
		if err != nil {
			t.Fatal(err)
		}
		check := func(what string, got []float32) {
			t.Helper()
			for j := range want {
				if got[j] != want[j] {
					t.Fatalf("prefix %d (cold %d): %s context[%d] = %v, stream %v",
						i+1, mirror.ColdLen(), what, j, got[j], want[j])
				}
			}
		}

		got, stats, _, _, _, err := srv.sessions.query(ctx, sess.id, q, elsa.Overrides{}, time.Time{})
		if err != nil {
			t.Fatal(err)
		}
		check("session query", got)
		if stats.Candidates != i+1 || stats.Fallback {
			t.Fatalf("prefix %d: session stats %+v", i+1, stats)
		}

		dec := &decodeJob{stream: mirror, q: q, thr: elsa.Exact()}
		dec.init()
		dec.j.ctx = ctx
		if errs := remote.decodeBatch([]*job{&dec.j}); errs[0] != nil {
			t.Fatal(errs[0])
		}
		check("remote-offloaded query", dec.out)

		keys, values := mirror.Rows()
		var one AttendResponse
		req := AttendRequest{Q: [][]float32{q}, K: keys, V: values, HeadDim: testDim, Seed: testSeed}
		if code := doJSON(t, front.Client(), "POST", front.URL+"/v1/attend", req, &one); code != http.StatusOK {
			t.Fatalf("prefix %d: attend status %d", i+1, code)
		}
		check("one-shot attend", one.Context[0])
	}
	if mirror.ColdLen() == 0 {
		t.Fatal("no demotion happened")
	}
	if workerSrv.Metrics().MeanBatchSize() == 0 {
		t.Fatal("the worker served no batch; nothing was offloaded")
	}
}

// TestNonFiniteOpFailsAlone: an op whose output is not finite fails on
// its own; the ops sharing its batch still answer, bit-identical to
// running them alone.
func TestNonFiniteOpFailsAlone(t *testing.T) {
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	eng, err := elsa.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(43))
	q, k, v := genOp(rng, 2, 9)
	huge := constRows(1, 1e20)
	bad := append(constRows(2, 1e20), constRows(1, -1e20)...)
	jobs := []*job{
		{ctx: context.Background(), op: elsa.BatchOp{Q: q, K: k, V: v}},
		{ctx: context.Background(), op: elsa.BatchOp{Q: huge, K: bad, V: bad}},
		{ctx: context.Background(), op: elsa.BatchOp{Q: q, K: k, V: v, Overrides: elsa.Overrides{Backend: elsa.BackendLinearScan}}},
	}
	outs, errs := (&localBackend{eng: eng, workers: 2}).attendBatch(jobs)
	if !errors.Is(errs[1], errNonFinite) {
		t.Fatalf("overflowing op: err = %v, want the non-finite error", errs[1])
	}
	for _, i := range []int{0, 2} {
		if errs[i] != nil {
			t.Fatalf("op %d failed with its batch-mate: %v", i, errs[i])
		}
		want, err := eng.AttendBatch([]elsa.BatchOp{jobs[i].op}, elsa.Exact(), 1)
		if err != nil {
			t.Fatal(err)
		}
		if !sameMatrix(outs[i].Context, want[0].Context) {
			t.Fatalf("op %d: context differs from running it alone", i)
		}
	}
}
