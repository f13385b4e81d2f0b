package serve

import (
	"context"
	"time"

	"elsa"
)

// decodeJob is one session's in-flight decode step. The session owns
// exactly one — the submit/complete handoff guarantees at most one query
// in flight per session — so the struct, its embedded dispatcher job and
// the job's result channel are all reused across the session's queries
// and the steady-state decode cycle allocates nothing per token.
type decodeJob struct {
	stream *elsa.Stream
	q      []float32
	// thr is the query's resolved operating point (session threshold or
	// the request's override), pinned so mixed-session batches carry every
	// op's threshold explicitly; p rides along for the wire.
	thr elsa.Threshold
	p   float64
	// backend is the query's effective exact backend ("" = resolved from
	// thr), so mixed batches route each session's steps correctly.
	backend string
	// out is the recycled context buffer going in and the (possibly
	// grown) result coming out; stats the query's work counters.
	out   []float32
	stats elsa.StreamStats
	// j is the dispatcher job wrapping this step, reused with it.
	j job
}

// init wires the embedded job's back-pointer and result channel once,
// at session creation.
func (dec *decodeJob) init() {
	dec.j.dec = dec
	dec.j.result = make(chan jobResult, 1)
}

// submitDecode queues one session decode step on its set's loop and
// blocks until the step has run. It passes the same admission gates as
// a one-shot op, so decode traffic obeys the same QoS envelope. Unlike
// submit, the wait is unconditional: delivery is guaranteed on every
// dispatcher path (expired contexts are answered by runBatch, shutdown
// by the loop's final drain), and returning early on ctx.Done would let
// the loop write into dec after the session's gate moved on.
func (d *dispatcher) submitDecode(ctx context.Context, set *replicaSet, dec *decodeJob, class Class, deadline time.Time) (int, error) {
	if err := d.enqueueDecode(ctx, set, dec, class, deadline); err != nil {
		return 0, err
	}
	set.loop.wakeup()
	r := <-dec.j.result
	return r.batchSize, r.err
}

// enqueueDecode queues dec on its set's loop without waking it — the
// building block submitDecode and the registry's cross-session step wave
// share. On success the caller owes the loop a wakeup and must then
// receive dec.j.result unconditionally (see submitDecode).
func (d *dispatcher) enqueueDecode(ctx context.Context, set *replicaSet, dec *decodeJob, class Class, deadline time.Time) error {
	j := &dec.j
	j.ctx, j.class, j.attempts = ctx, class, 0
	return d.enqueue(set, j, deadline)
}
