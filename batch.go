package elsa

import (
	"context"
	"fmt"
	"runtime"
	"sync"
)

// BatchOp is one self-attention operation in a batch.
type BatchOp struct {
	Q, K, V [][]float32

	// Overrides carries the op's operating-point overrides. A non-nil Thr
	// overrides the batch-level threshold for this op, so ops calibrated
	// at different operating points can share one dispatch
	// (mixed-threshold batches); the zero value selects the threshold
	// passed to AttendBatch — the uniform-threshold fast path. The
	// embedding keeps the historical op.Thr field name working.
	Overrides
}

// validate rejects malformed operations up front so a bad op fails with a
// clear shape error instead of surfacing from deep inside the tensor layer
// mid-dispatch.
func (op BatchOp) validate() error {
	for _, part := range []struct {
		name string
		rows [][]float32
	}{{"Q", op.Q}, {"K", op.K}, {"V", op.V}} {
		if len(part.rows) == 0 {
			return fmt.Errorf("%s has no rows", part.name)
		}
		cols := len(part.rows[0])
		if cols == 0 {
			return fmt.Errorf("%s row 0 is empty", part.name)
		}
		for i, r := range part.rows {
			if r == nil {
				return fmt.Errorf("%s row %d is nil", part.name, i)
			}
			if len(r) != cols {
				return fmt.Errorf("%s is ragged: row %d has %d columns, row 0 has %d",
					part.name, i, len(r), cols)
			}
		}
	}
	if len(op.K) != len(op.V) {
		return fmt.Errorf("%d keys but %d values", len(op.K), len(op.V))
	}
	return op.checkBackend()
}

// run executes one validated op through the one attend path: an exact
// backend the op names serves it as named; otherwise it runs at its
// resolved threshold — the filter pipeline, or on a float engine the
// exact kernel when that threshold disables the filter (p = 0).
func (e *Engine) run(op BatchOp, thr Threshold) (*Output, error) {
	out, _, err := e.attend(op.Q, op.K, op.V, op.Resolve(thr), op.Backend, false)
	return out, err
}

// AttendBatch runs a batch of approximate-attention operations
// concurrently across worker goroutines — the software analogue of the
// paper's batch-level parallelism over replicated accelerators (§IV-D).
// thr applies to every op that does not carry its own BatchOp.Thr override.
// workers <= 0 selects GOMAXPROCS. Results are returned in input order; the
// first error aborts the batch.
func (e *Engine) AttendBatch(ops []BatchOp, thr Threshold, workers int) ([]*Output, error) {
	return e.AttendBatchContext(context.Background(), ops, thr, workers)
}

// AttendBatchContext is AttendBatch with cancellation: once ctx is done no
// further ops are dispatched to the workers, in-flight ops finish, and the
// context's error is returned. Every op's shape is validated before any
// work starts; validation and execution errors carry the op index
// (`op 17: ...`).
func (e *Engine) AttendBatchContext(ctx context.Context, ops []BatchOp, thr Threshold, workers int) ([]*Output, error) {
	if len(ops) == 0 {
		return nil, nil
	}
	for i, op := range ops {
		if err := op.validate(); err != nil {
			return nil, fmt.Errorf("elsa: op %d: %w", i, err)
		}
	}
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("elsa: batch: %w", err)
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(ops) {
		workers = len(ops)
	}
	outs := make([]*Output, len(ops))
	errs := make([]error, len(ops))
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				if ctx.Err() != nil {
					return
				}
				out, err := e.run(ops[i], thr)
				outs[i], errs[i] = out, err
			}
		}()
	}
feed:
	for i := range ops {
		select {
		case next <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(next)
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, fmt.Errorf("elsa: batch: %w", err)
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("elsa: op %d: %w", i, err)
		}
	}
	return outs, nil
}

// SimulateBatch simulates a batch of operations on a fleet of accelerators
// (twelve in the paper's evaluation) and reports the aggregate schedule:
// per-op reports plus the fleet makespan, throughput and utilization.
type BatchReport struct {
	// Ops holds each operation's individual hardware report.
	Ops []*HardwareReport
	// MakespanSeconds is when the last accelerator finishes the batch.
	MakespanSeconds float64
	// ThroughputOpsPerSec is the batch throughput.
	ThroughputOpsPerSec float64
	// Utilization is mean fleet busy fraction over the makespan.
	Utilization float64
	// Accelerators echoes the fleet size used.
	Accelerators int
}

// SimulateBatch runs every op through the cycle simulator and dispatches
// the resulting durations onto `accelerators` replicated units
// (earliest-available-first). accelerators <= 0 selects the paper's 12.
func (e *Engine) SimulateBatch(ops []BatchOp, thr Threshold, accelerators int) (*BatchReport, error) {
	if accelerators <= 0 {
		accelerators = 12
	}
	rep := &BatchReport{Ops: make([]*HardwareReport, len(ops)), Accelerators: accelerators}
	cycles := make([]int64, len(ops))
	for i, op := range ops {
		r, err := e.Simulate(op.Q, op.K, op.V, thr)
		if err != nil {
			return nil, fmt.Errorf("elsa: op %d: %w", i, err)
		}
		rep.Ops[i] = r
		cycles[i] = r.TotalCycles
	}
	fleet, err := e.fleet(accelerators)
	if err != nil {
		return nil, err
	}
	sched, err := fleet.Dispatch(cycles)
	if err != nil {
		return nil, fmt.Errorf("elsa: %w", err)
	}
	freq := e.sim.Config().FreqHz
	rep.MakespanSeconds = float64(sched.MakespanCycles) / freq
	rep.ThroughputOpsPerSec = sched.Throughput(len(ops), freq)
	rep.Utilization = sched.Utilization(accelerators)
	return rep, nil
}
