package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"elsa"
)

// TestPerShardPacingCoalesces pins the loop's one pacing rule: with both
// shards of a two-replica set held busy, ten ops queue; the moment a
// shard frees, one harvest carries all ten in a single batch.
func TestPerShardPacingCoalesces(t *testing.T) {
	p, d, m := newTestStack(t, 2, 4, 64, 64)
	set, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim))
	if err != nil {
		t.Fatal(err)
	}
	hold := holdShards(set)
	defer hold.open()
	rng := rand.New(rand.NewSource(41))
	q, k, v := genOp(rng, 2, 6)
	submit := func() (int, error) {
		_, size, _, err := d.submit(context.Background(), set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{})
		return size, err
	}

	var wg sync.WaitGroup
	for i := 1; i <= 2; i++ { // one blocker per shard
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := submit(); err != nil {
				t.Errorf("blocker: %v", err)
			}
		}()
		hold.waitEntered(t, 1)
	}
	const waiting = 10
	sizes := make([]int, waiting)
	for i := range sizes {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			var err error
			if sizes[i], err = submit(); err != nil {
				t.Errorf("op %d: %v", i, err)
			}
		}(i)
	}
	waitQueued(t, d, waiting)
	hold.open()
	wg.Wait()
	for i, size := range sizes {
		if size != waiting {
			t.Errorf("op %d rode a batch of %d, want all %d waiting ops in one", i, size, waiting)
		}
	}
	if got := m.ShardBatches(); got[0]+got[1] != 3 {
		t.Errorf("shard batches %v, want 3 (two blockers, one harvest)", got)
	}
}

// TestMixedKindsShareOneLoop drives one-shot attends and session decode
// steps concurrently at one single-replica set. Batches never mix kinds,
// every batch is accounted exactly once, one-shot replies match
// in-process AttendBatch and decode replies the SerialDecode server bit
// for bit, and one-shot ops still complete under a steady decode stream.
func TestMixedKindsShareOneLoop(t *testing.T) {
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	srv := New(Config{Replicas: 1})
	defer srv.Close()
	serial := New(Config{Replicas: 1, SerialDecode: true})
	defer serial.Close()
	set, err := srv.pool.get(opts)
	if err != nil {
		t.Fatal(err)
	}
	hold := holdShards(set)
	hold.open() // record kinds only; never block
	eng, err := elsa.New(opts)
	if err != nil {
		t.Fatal(err)
	}

	const sessions, oneShots, prefix, steps = 6, 6, 16, 6
	bf := buildDecodeSessions(t, srv, opts, sessions, prefix)
	sf := buildDecodeSessions(t, serial, opts, sessions, prefix)
	ctx := context.Background()
	rng := rand.New(rand.NewSource(43))
	for step := 0; step < steps; step++ {
		qs := make([][]float32, sessions)
		for i, f := range bf {
			qs[i] = genVec(f.rng)
		}
		ops := make([]elsa.BatchOp, oneShots)
		for i := range ops {
			q, k, v := genOp(rng, 2, 8)
			ops[i] = elsa.BatchOp{Q: q, K: k, V: v}
		}
		want, err := eng.AttendBatch(ops, elsa.Exact(), 1)
		if err != nil {
			t.Fatal(err)
		}

		got := make([][]float32, sessions)
		outs := make([]*elsa.Output, oneShots)
		var wg sync.WaitGroup
		for i := range bf {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, _, _, _, _, err := srv.sessions.query(ctx, bf[i].id, qs[i], elsa.Overrides{}, time.Time{})
				if err != nil {
					t.Errorf("step %d session %d: %v", step, i, err)
				}
				got[i] = out
			}(i)
		}
		for i := range ops {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, _, _, err := srv.disp.submit(ctx, set, ops[i], elsa.Exact(), ClassInteractive, time.Time{})
				if err != nil {
					t.Errorf("step %d one-shot %d: %v", step, i, err)
				}
				outs[i] = out
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}

		for i := range outs {
			for r := range want[i].Context {
				for c := range want[i].Context[r] {
					if outs[i].Context[r][c] != want[i].Context[r][c] {
						t.Fatalf("step %d one-shot %d: context[%d][%d] differs from AttendBatch", step, i, r, c)
					}
				}
			}
		}
		for i := range sf {
			ref, _, _, _, _, err := serial.sessions.query(ctx, sf[i].id, qs[i], elsa.Overrides{}, time.Time{})
			if err != nil {
				t.Fatalf("step %d serial session %d: %v", step, i, err)
			}
			for j := range ref {
				if got[i][j] != ref[j] {
					t.Fatalf("step %d session %d: context[%d] = %v, serial %v", step, i, j, got[i][j], ref[j])
				}
			}
		}
	}

	// A steady decode stream must not starve one-shot ops.
	stop := make(chan struct{})
	var streams sync.WaitGroup
	stopStreams := sync.OnceFunc(func() {
		close(stop)
		streams.Wait()
	})
	defer stopStreams()
	var decoded atomic.Int64
	for i := range bf {
		streams.Add(1)
		go func(f *decodeFixture) {
			defer streams.Done()
			q := genVec(rand.New(rand.NewSource(int64(i))))
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, _, _, _, _, err := srv.sessions.query(ctx, f.id, q, elsa.Overrides{}, time.Time{}); err != nil {
					t.Errorf("stream query: %v", err)
					return
				}
				decoded.Add(1)
			}
		}(bf[i])
	}
	for start := time.Now(); decoded.Load() < sessions; time.Sleep(time.Millisecond) {
		if time.Since(start) > 10*time.Second {
			t.Fatal("decode stream never got going")
		}
	}
	budget := time.After(10 * time.Second)
	for i := 0; i < 10; i++ {
		q, k, v := genOp(rng, 2, 8)
		done := make(chan error, 1)
		go func() {
			_, _, _, err := srv.disp.submit(ctx, set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{})
			done <- err
		}()
		select {
		case err := <-done:
			if err != nil {
				t.Fatalf("one-shot %d under decode load: %v", i, err)
			}
		case <-budget:
			t.Fatalf("one-shot %d starved by the decode stream", i)
		}
	}
	stopStreams()

	if hold.mixed.Load() {
		t.Error("a batch mixed one-shot ops with decode steps")
	}
	m := srv.Metrics()
	m.mu.Lock()
	oneShotBatches, decodeBatches := m.batches, m.decodeBatches
	m.mu.Unlock()
	var shardBatches int64
	for _, n := range m.ShardBatches() {
		shardBatches += n
	}
	if oneShotBatches == 0 || decodeBatches == 0 {
		t.Fatalf("batches_total %d, decode_batches_total %d: both kinds must have run", oneShotBatches, decodeBatches)
	}
	if oneShotBatches+decodeBatches != shardBatches {
		t.Errorf("batches_total %d + decode_batches_total %d != shard batches %d",
			oneShotBatches, decodeBatches, shardBatches)
	}
}

// TestEvictedSetsAreReclaimed churns 20 configurations through a pool of
// two: each eviction must stop the evicted set's loop and shard
// goroutines once its work is done, so goroutines stay bounded.
func TestEvictedSetsAreReclaimed(t *testing.T) {
	p, d, _ := newTestStack(t, 1, 2, 64, 64)
	base := runtime.NumGoroutine()
	rng := rand.New(rand.NewSource(47))
	q, k, v := genOp(rng, 2, 6)
	for seed := int64(1); seed <= 20; seed++ {
		set, err := p.get(normalizeOptions(elsa.Options{HeadDim: testDim, Seed: seed}, testDim))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, _, err := d.submit(context.Background(), set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{}); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
	// Two resident sets, each one loop plus one shard goroutine.
	const resident = 2 * 2
	deadline := time.Now().Add(10 * time.Second)
	for {
		d.mu.Lock()
		loops := len(d.loops)
		d.mu.Unlock()
		g := runtime.NumGoroutine()
		if loops == p.size() && g <= base+resident+2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after 20 configs at MaxEngines 2: %d running loops for %d resident sets, goroutines %d (baseline %d)",
				loops, p.size(), g, base)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestEvictedSetAnswersQueued evicts a set while an op is queued on it
// behind a held shard: the queued op must still answer 200, and the
// set's loop must stop once it has.
func TestEvictedSetAnswersQueued(t *testing.T) {
	srv := New(Config{Replicas: 1, MaxEngines: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(53))
	q, k, v := genOp(rng, 2, 6)
	req := AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Seed: 1}
	set, err := srv.pool.get(req.options())
	if err != nil {
		t.Fatal(err)
	}
	hold := holdShards(set)
	defer hold.open()
	body, err := json.Marshal(Envelope[AttendRequest]{Op: &req})
	if err != nil {
		t.Fatal(err)
	}
	codes := make(chan int, 2)
	post := func() {
		resp, err := ts.Client().Post(ts.URL+"/v1/attend", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Error(err)
			codes <- 0
			return
		}
		resp.Body.Close()
		codes <- resp.StatusCode
	}
	go post() // the blocker
	hold.waitEntered(t, 1)
	go post() // queued behind it
	waitQueued(t, srv.disp, 1)

	other := req
	other.Seed = 2
	if resp, raw := postAttend(t, ts.Client(), ts.URL, other); resp.StatusCode != http.StatusOK {
		t.Fatalf("evicting request: status %d (%s)", resp.StatusCode, raw)
	}
	if n := srv.Metrics().EngineEvictions(); n != 1 {
		t.Fatalf("engine evictions %d, want 1", n)
	}
	hold.open()
	for i := 0; i < 2; i++ {
		if code := <-codes; code != http.StatusOK {
			t.Errorf("request on the evicted set: status %d, want 200", code)
		}
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		srv.disp.mu.Lock()
		stopped := set.loop.stopped
		srv.disp.mu.Unlock()
		if stopped {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the evicted set's loop never stopped")
		}
		time.Sleep(time.Millisecond)
	}
	// A straggler still holding the evicted set runs inline.
	if _, _, _, err := srv.disp.submit(context.Background(), set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{}); err != nil {
		t.Errorf("submit to a stopped set: %v", err)
	}
}

// TestLoopAlternatesKinds pins the anti-starvation rule: with three
// batches' worth of decode steps and one one-shot op queued behind a held
// shard, the one-shot op rides the second harvest — it does not wait for
// the decode queue to drain.
func TestLoopAlternatesKinds(t *testing.T) {
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	srv := New(Config{Replicas: 1, MaxBatch: 2})
	defer srv.Close()
	set, err := srv.pool.get(opts)
	if err != nil {
		t.Fatal(err)
	}
	const sessions = 6
	fixtures := buildDecodeSessions(t, srv, opts, sessions, 8)
	hold := holdShards(set)
	defer hold.open()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(59))
	q, k, v := genOp(rng, 2, 6)
	oneShot := func() error {
		_, _, _, err := srv.disp.submit(ctx, set, elsa.BatchOp{Q: q, K: k, V: v}, elsa.Exact(), ClassInteractive, time.Time{})
		return err
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the blocker; the next harvest after it prefers decode
		defer wg.Done()
		if err := oneShot(); err != nil {
			t.Errorf("blocker: %v", err)
		}
	}()
	hold.waitEntered(t, 1)
	for _, f := range fixtures {
		wg.Add(1)
		go func(f *decodeFixture) {
			defer wg.Done()
			if _, _, _, _, _, err := srv.sessions.query(ctx, f.id, genVec(f.rng), elsa.Overrides{}, time.Time{}); err != nil {
				t.Errorf("decode step: %v", err)
			}
		}(f)
	}
	waitQueued(t, srv.disp, sessions)
	decodeBefore := make(chan int64, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := oneShot(); err != nil {
			t.Errorf("queued one-shot: %v", err)
		}
		decodeBefore <- srv.Metrics().DecodeBatches()
	}()
	waitQueued(t, srv.disp, sessions+1)
	hold.open()
	wg.Wait()
	// Alternation runs decode, one-shot, decode, decode: by the time the
	// one-shot op answers, the shard has started at most the next batch.
	if n := <-decodeBefore; n >= sessions/2 {
		t.Errorf("one-shot op answered after %d decode batches; it waited for the decode queue to drain", n)
	}
}

// flakyBackend is a remote-like lane whose every op fails retryably
// after a short delay, as a worker answering 5xx would.
type flakyBackend struct {
	decodes atomic.Int64 // decode batches it was handed
}

func (b *flakyBackend) fail(jobs []*job) []error {
	time.Sleep(time.Millisecond)
	errs := make([]error, len(jobs))
	for i := range errs {
		errs[i] = &workerError{addr: "flaky", err: errors.New("injected failure"), retryable: true}
	}
	return errs
}

func (b *flakyBackend) attendBatch(jobs []*job) ([]*elsa.Output, []error) {
	return make([]*elsa.Output, len(jobs)), b.fail(jobs)
}

func (b *flakyBackend) decodeBatch(jobs []*job) []error {
	b.decodes.Add(1)
	return b.fail(jobs)
}

func (b *flakyBackend) available() bool { return true }
func (b *flakyBackend) name() string    { return "remote:flaky" }

// overlapBackend flags a shard that is handed a batch while it is still
// running another. Each batch takes at least a millisecond, so failed
// batches come back for reroute while the shard is likely busy.
type overlapBackend struct {
	shardBackend
	running atomic.Int32
	overlap atomic.Bool
}

func (b *overlapBackend) enter() func() {
	if b.running.Add(1) > 1 {
		b.overlap.Store(true)
	}
	time.Sleep(time.Millisecond)
	return func() { b.running.Add(-1) }
}

func (b *overlapBackend) attendBatch(jobs []*job) ([]*elsa.Output, []error) {
	defer b.enter()()
	return b.shardBackend.attendBatch(jobs)
}

func (b *overlapBackend) decodeBatch(jobs []*job) []error {
	defer b.enter()()
	return b.shardBackend.decodeBatch(jobs)
}

// TestRerouteKeepsOneBatchPerShard runs a float-mode set with one local
// replica and one remote-like lane that fails every op retryably, under
// concurrent one-shot attends and session queries. Decode batches
// offloaded to the failing lane reroute onto the local lane, which must
// still run one batch at a time: its decode buffers are reused across
// batches. Every reply must match in-process AttendBatch or the
// SerialDecode server bit for bit.
func TestRerouteKeepsOneBatchPerShard(t *testing.T) {
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	srv := New(Config{Replicas: 1})
	defer srv.Close()
	serial := New(Config{Replicas: 1, SerialDecode: true})
	defer serial.Close()
	set, err := srv.pool.get(opts)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := elsa.New(opts)
	if err != nil {
		t.Fatal(err)
	}
	const sessions, oneShots, prefix = 4, 4, 16
	bf := buildDecodeSessions(t, srv, opts, sessions, prefix)
	sf := buildDecodeSessions(t, serial, opts, sessions, prefix)
	local := &overlapBackend{shardBackend: set.shards()[0].backend}
	set.shards()[0].backend = local
	flaky := &flakyBackend{}
	srv.disp.addShard(set, newShard(1, set, flaky))

	ctx := context.Background()
	rng := rand.New(rand.NewSource(61))
	for step := 0; step < 200 && (step < 20 || flaky.decodes.Load() == 0); step++ {
		qs := make([][]float32, sessions)
		for i, f := range bf {
			qs[i] = genVec(f.rng)
		}
		ops := make([]elsa.BatchOp, oneShots)
		for i := range ops {
			q, k, v := genOp(rng, 2, 8)
			ops[i] = elsa.BatchOp{Q: q, K: k, V: v}
		}
		want, err := eng.AttendBatch(ops, elsa.Exact(), 1)
		if err != nil {
			t.Fatal(err)
		}
		got := make([][]float32, sessions)
		outs := make([]*elsa.Output, oneShots)
		var wg sync.WaitGroup
		for i := range bf {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, _, _, _, _, err := srv.sessions.query(ctx, bf[i].id, qs[i], elsa.Overrides{}, time.Time{})
				if err != nil {
					t.Errorf("step %d session %d: %v", step, i, err)
				}
				got[i] = out
			}(i)
		}
		for i := range ops {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				out, _, _, err := srv.disp.submit(ctx, set, ops[i], elsa.Exact(), ClassInteractive, time.Time{})
				if err != nil {
					t.Errorf("step %d one-shot %d: %v", step, i, err)
				}
				outs[i] = out
			}(i)
		}
		wg.Wait()
		if t.Failed() {
			t.FailNow()
		}
		for i := range outs {
			for r := range want[i].Context {
				for c := range want[i].Context[r] {
					if outs[i].Context[r][c] != want[i].Context[r][c] {
						t.Fatalf("step %d one-shot %d: context[%d][%d] differs from AttendBatch", step, i, r, c)
					}
				}
			}
		}
		for i := range sf {
			ref, _, _, _, _, err := serial.sessions.query(ctx, sf[i].id, qs[i], elsa.Overrides{}, time.Time{})
			if err != nil {
				t.Fatalf("step %d serial session %d: %v", step, i, err)
			}
			for j := range ref {
				if got[i][j] != ref[j] {
					t.Fatalf("step %d session %d: context[%d] = %v, serial %v", step, i, j, got[i][j], ref[j])
				}
			}
		}
	}
	if flaky.decodes.Load() == 0 {
		t.Fatal("no decode batch was ever offloaded to the failing lane")
	}
	if srv.Metrics().Reroutes() == 0 {
		t.Error("no op was rerouted")
	}
	if local.overlap.Load() {
		t.Error("the local lane ran two batches at once")
	}
}

// TestDecodeWaitsForBusyLocalLane pins decode placement in a set with a
// local replica and a remote lane: under decode-only load the local lane
// is only ever busy with decode, so every decode batch waits for it and
// none ships its sessions' prefixes to the remote lane.
func TestDecodeWaitsForBusyLocalLane(t *testing.T) {
	opts := normalizeOptions(elsa.Options{HeadDim: testDim, Seed: testSeed}, testDim)
	srv := New(Config{Replicas: 1})
	defer srv.Close()
	set, err := srv.pool.get(opts)
	if err != nil {
		t.Fatal(err)
	}
	const sessions, rounds = 6, 30
	bf := buildDecodeSessions(t, srv, opts, sessions, 16)
	set.shards()[0].backend = &overlapBackend{shardBackend: set.shards()[0].backend}
	remote := &flakyBackend{}
	srv.disp.addShard(set, newShard(1, set, remote))

	ctx := context.Background()
	var wg sync.WaitGroup
	for _, f := range bf {
		wg.Add(1)
		go func(f *decodeFixture) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				if _, _, _, _, _, err := srv.sessions.query(ctx, f.id, genVec(f.rng), elsa.Overrides{}, time.Time{}); err != nil {
					t.Errorf("decode step: %v", err)
					return
				}
			}
		}(f)
	}
	wg.Wait()
	if n := remote.decodes.Load(); n != 0 {
		t.Errorf("%d decode batches went to the remote lane while the local lane was busy only with decode", n)
	}
	if n := srv.Metrics().DecodeBatches(); n < 2 {
		t.Errorf("%d decode batches ran, want the local lane busy across several", n)
	}
}
