package main

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/serve/client"
)

const (
	// attendLimit is the latency limit goodput counts answers against.
	attendLimit = 250 * time.Millisecond
	// After one pool pass of warm-up, the attend budget is split into
	// attendCycles equal cycles; goodput is their median, which keeps a
	// slow spell of the machine out of the reading.
	attendCycles = 14
)

// attendRec is one one-shot request: when it was sent and answered
// (relative to its stretch's start), how long the load generator took to
// send it after the previous answer, and what it answered.
type attendRec struct {
	inst       int
	sent, done time.Duration
	lag        time.Duration
	err        bool
	traced     bool
	hash       uint64
	thr        elsa.Threshold
}

func (r *attendRec) latency() time.Duration { return r.done - r.sent }

type attendPhase struct {
	in     *inputs
	rig    *rig
	t      *tracer
	cursor int // next index into in.order

	recs []attendRec // every request sent in the timed phase

	goodput, p50, tail, lagP95 float64
	traced, plain              []float64 // latencies with and without spans
	failed, mismatches         int
	checkMsPerOp               float64
	exactOpsS                  float64 // p=0 requests answered per second of their own latency
	massRetained               float64
}

func attendOptions(inst int) client.AttendOptions {
	if inst%2 == 1 {
		return client.AttendOptions{HeadDim: headDim, Overrides: elsa.Overrides{P: 1}}
	}
	return client.AttendOptions{HeadDim: headDim}
}

// setupAttend builds the server with serve.Config defaults and sends one
// op of each kind, which builds the engine and calibrates the p=1
// threshold.
func setupAttend(in *inputs, t *tracer) (*attendPhase, error) {
	r, err := startRig(serve.Config{}, 1, t)
	if err != nil {
		return nil, err
	}
	for inst := 0; inst < 2; inst++ {
		a := in.attend[inst]
		if _, err := r.cl.Attend(context.Background(), a.Q, a.K, a.V, attendOptions(inst)); err != nil {
			r.close()
			return nil, fmt.Errorf("attend set-up op: %w", err)
		}
	}
	return &attendPhase{in: in, rig: r, t: t}, nil
}

// stream sends requests one at a time, each as soon as the previous one
// is answered, walking the shuffled pool passes of in.order: n requests,
// or for dur when n is 0. In a traced run every other request is traced.
func (p *attendPhase) stream(dur time.Duration, n int) []attendRec {
	var recs []attendRec
	start := time.Now()
	prev := time.Duration(0)
	for (n > 0 && len(recs) < n) || (n == 0 && time.Since(start) < dur) {
		i := p.cursor
		p.cursor++
		rec := attendRec{inst: p.in.order[i%len(p.in.order)], sent: time.Since(start)}
		rec.lag = rec.sent - prev
		var t *tracer
		if p.t != nil && i%2 == 0 {
			t, rec.traced = p.t, true
		}
		ctx, end := t.begin(context.Background(), "client.attend")
		a := p.in.attend[rec.inst]
		res, err := p.rig.cl.Attend(ctx, a.Q, a.K, a.V, attendOptions(rec.inst))
		end()
		rec.done = time.Since(start)
		prev = rec.done
		if err != nil {
			rec.err = true
			p.failed++
		} else {
			rec.hash, rec.thr = hashRows(res.Context), res.Threshold
		}
		recs = append(recs, rec)
	}
	p.recs = append(p.recs, recs...)
	return recs
}

// run warms up with one pass over the pool, then runs the measuring
// cycles.
func (p *attendPhase) run(budget time.Duration) error {
	start := time.Now()
	p.stream(0, attendPool)
	warm := len(p.recs)
	cycle := (budget - time.Since(start)) / attendCycles
	var rates []float64
	for c := 0; c < attendCycles; c++ {
		rates = append(rates, goodput(p.stream(cycle, 0)))
	}
	fmt.Printf("attend ops/s within %v per cycle: %.1f\n", attendLimit, rates)
	p.goodput = median(rates)

	var lat, lag, exact []float64
	for _, r := range p.recs[warm:] {
		l := ms(r.latency())
		lat = append(lat, l)
		lag = append(lag, ms(r.lag))
		if r.inst%2 == 0 && !r.err {
			exact = append(exact, l)
		}
		if r.traced {
			p.traced = append(p.traced, l)
		} else {
			p.plain = append(p.plain, l)
		}
	}
	p.p50, p.tail = quantile(lat, 0.5), quantile(lat, tailQuantile)
	p.exactOpsS = 1000 / median(exact)
	p.lagP95 = quantile(lag, 0.95)
	return nil
}

// goodput is the answers within attendLimit per second of one stretch of
// requests, from its start to its last answer.
func goodput(recs []attendRec) float64 {
	good, end := 0, time.Duration(0)
	for _, r := range recs {
		end = max(end, r.done)
		if !r.err && r.latency() <= attendLimit {
			good++
		}
	}
	if end == 0 {
		return 0
	}
	return float64(good) / end.Seconds()
}

// check replays every answered request in process through
// elsa.Engine.AttendBatch with the threshold the server echoed, and
// counts outputs that differ from the server's in any bit.
func (p *attendPhase) check() error {
	eng, err := elsa.New(elsa.Options{HeadDim: headDim})
	if err != nil {
		return err
	}
	const chunk = 16
	var ops []elsa.BatchOp
	var want []uint64
	var elapsed time.Duration
	n := 0
	flush := func() error {
		start := time.Now()
		outs, err := eng.AttendBatch(ops, elsa.Exact(), runtime.GOMAXPROCS(0))
		elapsed += time.Since(start)
		if err != nil {
			return fmt.Errorf("attend replay: %w", err)
		}
		for i, o := range outs {
			if hashRows(o.Context) != want[i] {
				p.mismatches++
			}
		}
		n += len(ops)
		ops, want = ops[:0], want[:0]
		return nil
	}
	for i := range p.recs {
		r := &p.recs[i]
		if r.err {
			continue
		}
		a := p.in.attend[r.inst]
		thr := r.thr
		ops = append(ops, elsa.BatchOp{Q: a.Q, K: a.K, V: a.V, Overrides: elsa.Overrides{Thr: &thr}})
		want = append(want, r.hash)
		if len(ops) == chunk {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if len(ops) > 0 {
		if err := flush(); err != nil {
			return err
		}
	}
	if n > 0 {
		p.checkMsPerOp = ms(elapsed) / float64(n)
	}
	return p.mass(eng)
}

// mass measures the softmax mass ELSA keeps on the p=1 half of the pool
// at the server's calibrated threshold.
func (p *attendPhase) mass(eng *elsa.Engine) error {
	var thr *elsa.Threshold
	for i := range p.recs {
		if r := &p.recs[i]; r.inst%2 == 1 && !r.err {
			thr = &r.thr
			break
		}
	}
	if thr == nil {
		return fmt.Errorf("attend: no p=1 request was answered")
	}
	var mass []float64
	for inst := 1; inst < len(p.in.attend); inst += 2 {
		a := p.in.attend[inst]
		_, fid, err := eng.Evaluate(a.Q, a.K, a.V, *thr)
		if err != nil {
			return err
		}
		mass = append(mass, fid.RetainedMass)
	}
	p.massRetained = mean(mass)
	return nil
}
