package serve

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elsa"
)

// newTestStack builds a pool + dispatcher pair and tears the set loops
// down with the test.
func newTestStack(t *testing.T, replicas, maxEntries, maxBatch, maxQueue int) (*enginePool, *dispatcher, *Metrics) {
	t.Helper()
	m := NewMetrics()
	d := newDispatcher(maxBatch, maxQueue, 0, 2, time.Second, classWeights{}, m)
	p := newEnginePool(replicas, maxEntries, d, newWorkerSet(nil, time.Second, 1, 3, m), m)
	t.Cleanup(d.close)
	return p, d, m
}

// shardHold holds a replica set's shards busy on demand: every batch
// blocks in its backend call until release is closed, which is how a
// test stands in for a slow engine. It also records whether any batch
// ever mixed one-shot ops with decode steps.
type shardHold struct {
	entered chan struct{} // one value per batch as it starts blocking
	release chan struct{}
	once    sync.Once
	mixed   atomic.Bool
}

// holdShards wraps every shard backend of set; call it before any
// traffic reaches the set. The shards stay held until open.
func holdShards(set *replicaSet) *shardHold {
	// entered is buffered past any number of batches a test holds, so a
	// shard never blocks reporting one.
	h := &shardHold{entered: make(chan struct{}, 1024), release: make(chan struct{})}
	for _, sh := range set.shards() {
		sh.backend = &heldBackend{shardBackend: sh.backend, h: h}
	}
	return h
}

// open releases every held batch, now and later. Idempotent.
func (h *shardHold) open() { h.once.Do(func() { close(h.release) }) }

// waitEntered blocks until n batches are being held.
func (h *shardHold) waitEntered(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		select {
		case <-h.entered:
		case <-time.After(10 * time.Second):
			t.Fatalf("only %d of %d batches reached a held shard", i, n)
		}
	}
}

// holdAttendSet builds (or finds) the replica set req routes to on srv
// and holds its shards.
func holdAttendSet(t *testing.T, srv *Server, req AttendRequest) *shardHold {
	t.Helper()
	set, err := srv.pool.get(req.options())
	if err != nil {
		t.Fatal(err)
	}
	return holdShards(set)
}

// waitQueued blocks until exactly n ops are queued in d.
func waitQueued(t *testing.T, d *dispatcher, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		got := d.queued
		d.mu.Unlock()
		if got == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d ops queued, want %d", got, n)
		}
		time.Sleep(time.Millisecond)
	}
}

// heldBackend is one shard's backend under a shardHold.
type heldBackend struct {
	shardBackend
	h *shardHold
}

func (b *heldBackend) hold(jobs []*job, decode bool) {
	for _, j := range jobs {
		if (j.dec != nil) != decode {
			b.h.mixed.Store(true)
		}
	}
	select {
	case <-b.h.release: // open: pass straight through
		return
	default:
	}
	b.h.entered <- struct{}{}
	<-b.h.release
}

func (b *heldBackend) attendBatch(jobs []*job) ([]*elsa.Output, []error) {
	b.hold(jobs, false)
	return b.shardBackend.attendBatch(jobs)
}

func (b *heldBackend) decodeBatch(jobs []*job) []error {
	b.hold(jobs, true)
	return b.shardBackend.decodeBatch(jobs)
}

func TestNormalizeOptions(t *testing.T) {
	got := normalizeOptions(elsa.Options{}, 16)
	if got.HeadDim != 16 || got.HashBits != 16 {
		t.Errorf("head dim should default to the query width: %+v", got)
	}
	if got.Hardware != elsa.DefaultHardware() {
		t.Error("zero hardware should normalize to the default")
	}
	got = normalizeOptions(elsa.Options{}, 0)
	if got.HeadDim != 64 {
		t.Errorf("with no query width the paper default 64 applies, got %d", got.HeadDim)
	}
	got = normalizeOptions(elsa.Options{HeadDim: 32, HashBits: 8}, 16)
	if got.HeadDim != 32 || got.HashBits != 8 {
		t.Errorf("explicit fields must survive normalization: %+v", got)
	}
}

func TestEnginePoolReusesAndRetriesFailures(t *testing.T) {
	p, _, _ := newTestStack(t, 2, 8, 64, 64)
	a, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: 1}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.engines) != 2 || len(a.shards()) != 2 {
		t.Fatalf("replica set has %d engines / %d shards, want 2/2", len(a.engines), len(a.shards()))
	}
	b, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: 1}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same options must return the same pooled replica set")
	}
	c, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: 2}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different seed must build a different replica set")
	}
	if p.size() != 2 {
		t.Errorf("pool size %d, want 2", p.size())
	}
	// A bad config fails but must NOT occupy a pool slot: the next get for
	// the same key retries construction instead of serving a cached error.
	if _, err := p.get(elsa.Options{HeadDim: -1}); err == nil {
		t.Fatal("negative head dim should fail")
	}
	if p.size() != 2 {
		t.Errorf("pool size %d after failed build, want 2 (failure must free its slot)", p.size())
	}
	if _, err := p.get(elsa.Options{HeadDim: -1}); err == nil {
		t.Fatal("retried bad config should fail again")
	}
}

func TestEnginePoolLRUEviction(t *testing.T) {
	p, _, m := newTestStack(t, 1, 2, 64, 64)
	optsFor := func(seed int64) elsa.Options {
		return normalizeOptions(elsa.Options{HeadDim: testDim, Seed: seed}, testDim)
	}
	a, err := p.get(optsFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.get(optsFor(2)); err != nil {
		t.Fatal(err)
	}
	// Touch seed 1 so seed 2 is now least recently used.
	if _, err := p.get(optsFor(1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.get(optsFor(3)); err != nil {
		t.Fatal(err)
	}
	if p.size() != 2 {
		t.Fatalf("pool size %d, want 2 (bounded)", p.size())
	}
	if m.EngineEvictions() != 1 {
		t.Errorf("engine evictions %d, want 1", m.EngineEvictions())
	}
	// Seed 1 must have survived (it was touched); a re-get returns the same
	// set without rebuilding. Seed 2 was evicted and rebuilds fresh.
	a2, err := p.get(optsFor(1))
	if err != nil {
		t.Fatal(err)
	}
	if a2 != a {
		t.Error("recently-used set was evicted instead of the LRU one")
	}
	if _, err := p.get(optsFor(2)); err != nil {
		t.Fatal(err)
	}
	if m.EngineEvictions() != 2 {
		t.Errorf("engine evictions %d after refetching evicted key, want 2", m.EngineEvictions())
	}
}

func TestDispatcherCanceledContext(t *testing.T) {
	p, d, _ := newTestStack(t, 1, 8, 64, 8)
	set, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	rng := rand.New(rand.NewSource(3))
	q, k, v := genOp(rng, 2, 4)
	_, _, _, err = d.submit(ctx, set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestDispatcherRefusesWhenClosed(t *testing.T) {
	p, d, _ := newTestStack(t, 1, 8, 64, 8)
	set, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	d.close()
	rng := rand.New(rand.NewSource(4))
	q, k, v := genOp(rng, 2, 4)
	_, _, _, err = d.submit(context.Background(), set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
	d.close() // idempotent
}

func TestMaxBatchDispatchesEarly(t *testing.T) {
	// Two ops are queued before the loop is woken: its one harvest must
	// take a full batch of MaxBatch = 2 at once.
	p, d, m := newTestStack(t, 1, 8, 2, 16)
	set, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	jobs := make([]*job, 2)
	for i := range jobs {
		q, k, v := genOp(rng, 2, 4)
		thr := elsa.Exact()
		jobs[i] = &job{ctx: context.Background(), op: elsa.BatchOp{Q: q, K: k, V: v, Overrides: elsa.Overrides{Thr: &thr}}, result: make(chan jobResult, 1)}
		if err := d.enqueue(set, jobs[i], time.Time{}); err != nil {
			t.Fatal(err)
		}
	}
	set.loop.wakeup()
	for _, j := range jobs {
		select {
		case r := <-j.result:
			if r.err != nil {
				t.Fatal(r.err)
			}
		case <-time.After(30 * time.Second):
			t.Fatal("full batch never dispatched")
		}
	}
	if mean := m.MeanBatchSize(); mean != 2 {
		t.Errorf("mean batch size %g, want exactly 2", mean)
	}
}

func TestMetricsHistogramRendering(t *testing.T) {
	m := NewMetrics()
	m.ObserveBatch(1)
	m.ObserveBatch(3)
	m.ObserveBatch(300) // beyond the last bound → +Inf bucket
	m.ObserveShardBatch(0, 1)
	m.ObserveShardBatch(1, 3)
	m.ObserveSessionCreated()
	m.ObserveSessionEvicted("ttl")
	var sb strings.Builder
	if _, err := m.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	text := sb.String()
	for _, want := range []string{
		`elsa_serve_batch_size_bucket{le="1"} 1`,
		`elsa_serve_batch_size_bucket{le="4"} 2`,
		`elsa_serve_batch_size_bucket{le="256"} 2`,
		`elsa_serve_batch_size_bucket{le="+Inf"} 3`,
		"elsa_serve_batch_size_sum 304",
		"elsa_serve_batch_size_count 3",
		"elsa_serve_batch_ops_total 304",
		`elsa_serve_shard_batches_total{shard="0"} 1`,
		`elsa_serve_shard_batches_total{shard="1"} 1`,
		`elsa_serve_shard_ops_total{shard="1"} 3`,
		"elsa_serve_sessions 0",
		"elsa_serve_sessions_created_total 1",
		`elsa_serve_session_evictions_total{reason="ttl"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q\n%s", want, text)
		}
	}
	if m.MeanBatchSize() != 304.0/3 {
		t.Errorf("mean batch size %g", m.MeanBatchSize())
	}
}
