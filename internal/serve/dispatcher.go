package serve

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"elsa"
)

// Errors surfaced by the dispatcher to the HTTP layer.
var (
	// ErrQueueFull means the submitting class's share of the bounded
	// dispatcher queue is at capacity; the caller should shed load
	// (HTTP 429).
	ErrQueueFull = errors.New("serve: dispatcher queue full")
	// ErrClosed means the server is draining for shutdown (HTTP 503).
	ErrClosed = errors.New("serve: server shutting down")
	// ErrDeadline means the op's remaining deadline cannot cover the
	// estimated queue wait, so it is shed immediately (HTTP 429 with
	// Retry-After) instead of timing out in queue.
	ErrDeadline = errors.New("serve: deadline cannot cover estimated queue wait")
	// ErrNoWorkers means no shard of the target replica set is available
	// — every remote worker is ejected and the frontend holds no local
	// replicas (HTTP 503 with Retry-After, so clients back off until a
	// probe re-admits a worker).
	ErrNoWorkers = errors.New("serve: no available workers")
)

// shedError wraps a shed sentinel with the Retry-After the HTTP layer
// should surface.
type shedError struct {
	sentinel   error
	retryAfter time.Duration
}

func (e *shedError) Error() string { return e.sentinel.Error() }
func (e *shedError) Unwrap() error { return e.sentinel }

// retryAfterOf extracts a shed error's Retry-After hint (0 when absent).
func retryAfterOf(err error) time.Duration {
	var se *shedError
	if errors.As(err, &se) {
		return se.retryAfter
	}
	return 0
}

// jobResult is what a dispatched job hands back to its waiting request.
type jobResult struct {
	out       *elsa.Output
	batchSize int
	shard     int
	err       error
}

// Job kinds. A batch never mixes them: one-shot attend ops run through
// the backend's attendBatch, session decode steps through decodeBatch.
const (
	kindOneShot = iota
	kindDecode
	numKinds
)

// job is one queued op plus its completion channel: a one-shot attention
// op carrying its own per-op threshold (BatchOp.Thr), which is what lets
// ops calibrated at different operating points share a batch, or — with
// dec set — one session's decode step. attempts counts reroutes after
// retryable worker failures; only the executing goroutine touches it.
type job struct {
	ctx      context.Context
	op       elsa.BatchOp
	dec      *decodeJob
	class    Class
	attempts int
	result   chan jobResult // buffered: dispatch never blocks on a gone requester
}

func (j *job) kind() int {
	if j.dec != nil {
		return kindDecode
	}
	return kindOneShot
}

// setLoop is one replica set's dispatch queue: admitted jobs wait here,
// bucketed by kind and priority class, until the set's loop hands them
// to an idle shard. Every field but wake is guarded by dispatcher.mu.
type setLoop struct {
	jobs     [numKinds][NumClasses][]*job
	count    [numKinds]int
	next     int       // kind harvested first on the next pass, alternating
	reroutes []reroute // failed batches waiting for an idle sibling shard

	retired bool // the pool evicted the set: stop once its work is done
	stopped bool // the loop exited; late submissions run inline

	wake chan struct{} // cap 1: submissions and batch completions
}

// wakeup nudges the loop; a pending nudge is enough.
func (l *setLoop) wakeup() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// reroute is the part of a batch that failed retryably on skip, waiting
// for the loop to place it on another idle shard of the set.
type reroute struct {
	jobs []*job
	skip *shard
}

// takeBatch removes up to maxBatch ready jobs of one kind into buf by
// priority weight: the highest waiting class fills freely, each lower
// class is capped at its weight share (capped-out jobs are counted
// preempted and stay for the next harvest), so background work
// progresses every batch but never displaces interactive ops. drain
// takes everything. Class queues are compacted in place so their
// backing arrays survive: the steady-state decode cycle must not
// reallocate per token. Callers hold dispatcher.mu.
func (l *setLoop) takeBatch(kind int, buf []*job, maxBatch int, weights classWeights, drain bool, m *Metrics) []*job {
	capacity := maxBatch
	if drain {
		capacity = l.count[kind]
	}
	take := buf[:0]
	leading := true
	for c := Class(0); c < NumClasses; c++ {
		jobs := l.jobs[kind][c]
		if len(jobs) == 0 {
			continue
		}
		room := capacity - len(take)
		if room <= 0 {
			break
		}
		n := len(jobs)
		if !drain && !leading {
			if limit := weights.dispatchCap(c, maxBatch); n > limit {
				m.ObservePreempted(c.String(), n-limit)
				n = limit
			}
		}
		n = min(n, room)
		take = append(take, jobs[:n]...)
		copy(jobs, jobs[n:])
		clear(jobs[len(jobs)-n:])
		l.jobs[kind][c] = jobs[:len(jobs)-n]
		leading = false
	}
	l.count[kind] -= len(take)
	return take
}

// shard is one dispatch lane of a replica set: it executes the batches
// its set's loop hands it, one at a time, against its backend — an
// in-process engine replica or a remote worker — mirroring one
// accelerator unit consuming its own work queue. set points back at the
// owning replica set so a failed batch can reroute to a sibling shard.
type shard struct {
	id      int // lane index within its set
	set     *replicaSet
	backend shardBackend
	queue   chan []*job  // cap 1: the loop only sends to an idle shard
	depth   atomic.Int64 // batches in flight: 0 (idle) or 1
	kind    int          // kind of the batch in flight; guarded by dispatcher.mu
	take    []*job       // the loop's harvest buffer, reused once idle
}

func newShard(id int, set *replicaSet, backend shardBackend) *shard {
	return &shard{id: id, set: set, backend: backend, queue: make(chan []*job, 1)}
}

// dispatcher implements continuous micro-batching over replicated
// engines, the software form of the paper's batch-level parallelism
// (§IV-D). Each replica set runs one loop with one pacing rule: every
// shard has at most one batch in flight, and whenever an eligible shard
// is idle the loop harvests up to maxBatch ready jobs of one kind onto
// it. Work that arrives while every shard is busy coalesces, so the
// previous batch's service time is the batching window — there is no
// timer, and a lone request on an idle shard goes out at once.
type dispatcher struct {
	maxBatch      int
	maxQueue      int
	workers       int
	retries       int           // reroute attempts per op after retryable worker failures
	noWorkerRetry time.Duration // Retry-After hint when no shard is available
	weights       classWeights
	metrics       *Metrics

	mu       sync.Mutex
	closed   bool
	queued   int
	queuedBy [NumClasses]int // queue occupancy per class, summing to queued
	svcEWMA  float64         // smoothed batch service time, seconds
	loops    map[*replicaSet]struct{}
	wg       sync.WaitGroup // running set loops and shard goroutines
}

func newDispatcher(maxBatch, maxQueue, workers, retries int, noWorkerRetry time.Duration, weights classWeights, m *Metrics) *dispatcher {
	return &dispatcher{
		maxBatch:      maxBatch,
		maxQueue:      maxQueue,
		workers:       workers,
		retries:       retries,
		noWorkerRetry: noWorkerRetry,
		weights:       weights.normalize(),
		metrics:       m,
		loops:         make(map[*replicaSet]struct{}),
	}
}

// startSet publishes set's shards and starts its loop and shard
// goroutines. After close nothing starts: the set's loop counts as
// stopped, so admission refuses its work.
func (d *dispatcher) startSet(set *replicaSet, shards []*shard) {
	d.mu.Lock()
	defer d.mu.Unlock()
	set.shardsv.Store(shards)
	if d.closed {
		set.loop.stopped = true
		return
	}
	for _, sh := range shards {
		d.startShard(sh)
	}
	d.loops[set] = struct{}{}
	d.wg.Add(1)
	go d.run(set) // a retire while building left a wakeup: it stops at once
}

// addShard gives a running set one more lane (a newly joined worker).
func (d *dispatcher) addShard(set *replicaSet, sh *shard) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if set.loop.stopped {
		return
	}
	shards := set.shards()
	next := make([]*shard, len(shards), len(shards)+1)
	copy(next, shards)
	set.shardsv.Store(append(next, sh))
	d.startShard(sh)
	set.loop.wakeup()
}

// startShard runs a shard goroutine until its set's loop closes the
// queue. Callers hold d.mu.
func (d *dispatcher) startShard(sh *shard) {
	d.wg.Add(1)
	go func() {
		defer d.wg.Done()
		for jobs := range sh.queue {
			d.runBatch(sh, jobs)
			clear(jobs) // the buffer outlives the batch; drop its references
			sh.depth.Add(-1)
			d.metrics.AddShardDepth(sh.id, -1)
			sh.set.loop.wakeup()
		}
	}()
}

// retire marks an evicted set: its loop finishes what is already queued
// or in flight, then stops and closes the set's shard queues, so every
// goroutine of the set exits.
func (d *dispatcher) retire(set *replicaSet) {
	d.mu.Lock()
	set.loop.retired = true
	d.mu.Unlock()
	set.loop.wakeup()
}

// run is one replica set's loop.
func (d *dispatcher) run(set *replicaSet) {
	defer d.wg.Done()
	for range set.loop.wake {
		if !d.pump(set) {
			return
		}
	}
}

// pump hands ready batches to idle shards until no more can go. Once the
// server is closing or the set is retired, and nothing is queued,
// awaiting reroute or in flight, the loop stops: it closes its shards'
// queues and reports false.
func (d *dispatcher) pump(set *replicaSet) bool {
	l := &set.loop
	for {
		// Yield once before harvesting: a submission wakes this loop with
		// a direct handoff, so on a single-P runtime the loop would
		// otherwise always run ahead of every other ready submitter and
		// harvest batches of one. One scheduler pass lets already-runnable
		// submitters enqueue first, at ~100ns to a lone request.
		runtime.Gosched()
		d.mu.Lock()
		sh, take := d.harvestLocked(set)
		if take == nil {
			stop := (d.closed || l.retired) && l.count == [numKinds]int{} && len(l.reroutes) == 0 && set.idle()
			if stop {
				l.stopped = true
				delete(d.loops, set)
				for _, lane := range set.shards() {
					close(lane.queue)
				}
			}
			d.mu.Unlock()
			return !stop
		}
		d.mu.Unlock()
		if sh == nil {
			// Every eligible shard went unavailable after these ops were
			// admitted, or a failed batch has no sibling left: fail them
			// rather than parking them on a dead lane.
			for _, j := range take {
				d.metrics.ObserveClassShed(j.class)
				j.result <- jobResult{err: &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}}
			}
			continue
		}
		sh.queue <- take
	}
}

// harvestLocked takes the next batch for set. Failed batches awaiting
// reroute go first, each to an idle shard other than the one it failed
// on; then kinds alternate when both are waiting. A batch goes only when
// an eligible shard is idle — any available shard for one-shot ops,
// pickShardDecode's rule for decode steps — so every shard keeps at most
// one batch in flight. It returns a nil batch when nothing can go now,
// and a nil shard with a batch when no eligible shard exists at all. On
// close the harvest drains a whole kind at once. Callers hold d.mu.
func (d *dispatcher) harvestLocked(set *replicaSet) (*shard, []*job) {
	l := &set.loop
	for i, r := range l.reroutes {
		sh := set.pick(r.jobs[0].kind(), r.skip)
		if sh != nil && sh.depth.Load() > 0 {
			continue
		}
		l.reroutes = append(l.reroutes[:i], l.reroutes[i+1:]...)
		if sh != nil {
			d.claimLocked(sh, r.jobs[0].kind())
		}
		return sh, r.jobs
	}
	for i := 0; i < numKinds; i++ {
		kind := (l.next + i) % numKinds
		if l.count[kind] == 0 {
			continue
		}
		sh := set.pick(kind, nil)
		if sh != nil && sh.depth.Load() > 0 {
			continue
		}
		var buf []*job
		if sh != nil {
			buf = sh.take
		}
		take := l.takeBatch(kind, buf, d.maxBatch, d.weights, d.closed, d.metrics)
		d.queued -= len(take)
		for _, j := range take {
			d.queuedBy[j.class]--
		}
		d.noteQueuedLocked()
		l.next = (kind + 1) % numKinds
		if sh != nil {
			sh.take = take
			d.claimLocked(sh, kind)
		}
		return sh, take
	}
	return nil, nil
}

// claimLocked marks sh busy with one batch of kind. Callers hold d.mu.
func (d *dispatcher) claimLocked(sh *shard, kind int) {
	sh.kind = kind
	sh.depth.Add(1)
	d.metrics.AddShardDepth(sh.id, 1)
}

// noteQueuedLocked pushes the total and per-class queue gauges after any
// change to d.queued / d.queuedBy. Callers hold d.mu.
func (d *dispatcher) noteQueuedLocked() {
	d.metrics.SetQueueDepth(d.queued)
	d.metrics.SetClassQueueDepths(d.queuedBy)
}

// estimateWaitLocked predicts how long a newly submitted op for set
// waits before its result exists: the batches ahead of it — in flight
// and queued — spread over the set's available shards, plus its own
// batch, each at the smoothed batch service time. Callers hold d.mu.
func (d *dispatcher) estimateWaitLocked(set *replicaSet) time.Duration {
	svc := d.svcEWMA * float64(time.Second)
	shards, ahead := 0, 0
	for _, sh := range set.shards() {
		if sh.backend.available() {
			shards++
			ahead += int(sh.depth.Load())
		}
	}
	if shards == 0 {
		return time.Duration(svc)
	}
	for _, n := range set.loop.count {
		ahead += (n + d.maxBatch - 1) / d.maxBatch
	}
	return time.Duration((float64(ahead)/float64(shards) + 1) * svc)
}

// enqueue runs the admission gates every job passes — closed, set
// availability, per-class queue share, deadline shedding — and queues j
// on its set's loop without waking it: the caller owes the loop a
// wakeup, then receives j.result. A step wave enqueues every entry
// before one wakeup, so the whole wave is visible to one harvest. On a
// set whose loop has stopped (evicted, with a straggler still holding
// it) the job runs inline on the set's first engine instead.
func (d *dispatcher) enqueue(set *replicaSet, j *job, deadline time.Time) error {
	d.mu.Lock()
	if d.closed {
		d.mu.Unlock()
		return ErrClosed
	}
	if set.loop.stopped {
		d.mu.Unlock()
		d.runBatch(&shard{set: set, backend: &localBackend{eng: set.engines[0], workers: d.workers}}, []*job{j})
		return nil
	}
	if !set.available() {
		// The whole fleet for this configuration is ejected: fail fast
		// with a Retry-After covering one probe cycle rather than queueing
		// work nothing can run.
		d.mu.Unlock()
		d.metrics.ObserveClassShed(j.class)
		return &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}
	}
	if d.queued >= d.weights.queueCap(j.class, d.maxQueue) {
		est := d.estimateWaitLocked(set)
		d.mu.Unlock()
		d.metrics.ObserveClassShed(j.class)
		return &shedError{sentinel: ErrQueueFull, retryAfter: est}
	}
	if !deadline.IsZero() {
		if est := d.estimateWaitLocked(set); time.Until(deadline) < est {
			d.mu.Unlock()
			d.metrics.ObserveClassShed(j.class)
			return &shedError{sentinel: ErrDeadline, retryAfter: est}
		}
	}
	l := &set.loop
	kind := j.kind()
	l.jobs[kind][j.class] = append(l.jobs[kind][j.class], j)
	l.count[kind]++
	d.queued++
	d.queuedBy[j.class]++
	d.noteQueuedLocked()
	d.mu.Unlock()
	return nil
}

// submit enqueues one op with its operating point, class and absolute
// deadline (zero = none) and blocks until its batch has run, ctx is
// done, or the server refuses it (class queue share full / deadline
// unmeetable / closing). It returns the op's output, how many ops shared
// its batch, and which shard ran it.
func (d *dispatcher) submit(ctx context.Context, set *replicaSet, op elsa.BatchOp, thr elsa.Threshold, class Class, deadline time.Time) (*elsa.Output, int, int, error) {
	op.Thr = &thr
	j := &job{ctx: ctx, op: op, class: class, result: make(chan jobResult, 1)}
	if err := d.enqueue(set, j, deadline); err != nil {
		return nil, 0, 0, err
	}
	set.loop.wakeup()
	select {
	case r := <-j.result:
		return r.out, r.batchSize, r.shard, r.err
	case <-ctx.Done():
		return nil, 0, 0, ctx.Err()
	}
}

// runBatch executes one batch on its shard: jobs whose context already
// expired are answered immediately, the rest go through the shard's
// backend in one call, each op at its own operating point.
func (d *dispatcher) runBatch(sh *shard, jobs []*job) {
	live := jobs[:0]
	for _, j := range jobs {
		if err := j.ctx.Err(); err != nil {
			j.result <- jobResult{err: err}
			continue
		}
		live = append(live, j)
	}
	if len(live) == 0 {
		return
	}
	switch {
	case live[0].attempts > 0:
		// A rerouted batch was counted when it first ran.
	case live[0].dec != nil:
		d.metrics.ObserveDecodeBatch(len(live))
	default:
		d.metrics.ObserveBatch(len(live))
	}
	d.execute(sh, live)
}

// execute runs jobs through sh's backend and delivers results. Ops that
// failed with a retryable worker error (transport fault, worker 5xx or
// overload) and still have reroute budget go back to the set's loop as
// one batch, which it places on an idle sibling shard like any other —
// never on a busy one, so a shard's batches still run one at a time and
// the local backend's reused decode buffers are never shared. With no
// sibling available, or the budget spent, they fail as ErrNoWorkers with
// a probe-interval Retry-After — the fleet is at fault, not the request.
// Attend ops are idempotent (pinned thresholds, no server-side state), so
// a sibling yields the bit-identical output; a retryable decode failure
// can only come off a remote lane, and quantized decode never reaches
// one (see pickShardDecode).
func (d *dispatcher) execute(sh *shard, jobs []*job) {
	d.metrics.ObserveShardBatch(sh.id, len(jobs))
	start := time.Now()
	var outs []*elsa.Output
	var errs []error
	if jobs[0].dec != nil {
		errs = sh.backend.decodeBatch(jobs)
	} else {
		outs, errs = sh.backend.attendBatch(jobs)
	}
	d.observeService(time.Since(start))
	var failed []*job
	for i, j := range jobs {
		err := errs[i]
		if err == nil {
			r := jobResult{batchSize: len(jobs), shard: sh.id}
			if outs != nil {
				r.out = outs[i]
				d.metrics.ObserveCandidateFraction(r.out.CandidateFraction)
			}
			j.result <- r
			continue
		}
		var we *workerError
		if errors.As(err, &we) && we.retryable {
			if j.attempts < d.retries {
				j.attempts++
				failed = append(failed, j)
				continue
			}
			err = &shedError{sentinel: ErrNoWorkers, retryAfter: d.noWorkerRetry}
		}
		j.result <- jobResult{err: err}
	}
	if len(failed) == 0 {
		return
	}
	d.metrics.ObserveReroutes(len(failed))
	// Queued before sh goes idle, whose completion wakes the loop; the
	// loop does not stop while sh has a batch in flight.
	d.mu.Lock()
	sh.set.loop.reroutes = append(sh.set.loop.reroutes, reroute{jobs: failed, skip: sh})
	d.mu.Unlock()
}

// observeService folds one batch's wall time into the smoothed service
// time that deadline shedding estimates queue wait with.
func (d *dispatcher) observeService(dur time.Duration) {
	s := dur.Seconds()
	d.mu.Lock()
	if d.svcEWMA == 0 {
		d.svcEWMA = s
	} else {
		d.svcEWMA = 0.8*d.svcEWMA + 0.2*s
	}
	d.mu.Unlock()
}

// close stops admission and waits for every loop to drain its queue —
// on close a harvest takes a whole kind at once — and for every shard to
// finish its last batch. Safe to call more than once.
func (d *dispatcher) close() {
	d.mu.Lock()
	d.closed = true
	for set := range d.loops {
		set.loop.wakeup()
	}
	d.mu.Unlock()
	d.wg.Wait()
}
