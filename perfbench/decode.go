package main

import (
	"context"
	"fmt"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/serve/client"
)

// decodeResult is one session's answer in one wave.
type decodeResult struct {
	hash uint64
	thr  elsa.Threshold
	err  bool
}

type decodePhase struct {
	in      *inputs
	rig     *rig
	t       *tracer
	workers int
	thr     elsa.Threshold // pinned p=1 threshold of the ELSA sessions
	sess    []*client.Session

	waves  [][]decodeResult // [wave][session]
	waveMs []float64
	allMs  []float64 // every wave's time, traced or not, in order

	failed, mismatches int
	tracedWaveMs       []float64 // traced runs: waves with spans; waveMs holds the rest
	appendUs, queryUs  float64
	linearUs           float64 // median mirror query time of the linear-scan sessions
	massRetained       float64
}

func sessionOverrides(i int, thr elsa.Threshold) elsa.Overrides {
	if i%2 == 0 {
		return elsa.Overrides{Thr: &thr}
	}
	return elsa.Overrides{Backend: elsa.BackendLinearScan}
}

// checkEvery thins the decode check: every append is replayed, but only
// the queries of every checkEvery-th wave are recomputed and compared. A
// full replay costs as much CPU as the timed phase itself.
const checkEvery = 8

// massEvery is how often (in waves) the check measures the softmax mass
// an ELSA session's query keeps, on the full-precision prefix. It is a
// multiple of checkEvery.
const massEvery = 16

// token returns the document row session appends in wave w. Waves past
// the generated document wrap around its tail.
func token(w int) int { return decodePrefix + w%decodeExtra }

// setupDecode calibrates the pinned threshold, builds the server with a
// cold watermark, and creates and prefills every session.
func setupDecode(in *inputs, workers int, t *tracer) (*decodePhase, error) {
	eng, err := elsa.New(elsa.Options{HeadDim: headDim})
	if err != nil {
		return nil, err
	}
	// Calibrate on the regime the sessions serve: the last queries of each
	// ELSA session's prefix against the whole prefix.
	var samples []elsa.Sample
	for i, d := range in.decode {
		if sessionOverrides(i, elsa.Threshold{}).Backend == elsa.BackendAuto {
			samples = append(samples, elsa.Sample{Q: d.Q[decodePrefix-512 : decodePrefix], K: d.K[:decodePrefix]})
		}
	}
	thr, err := eng.Calibrate(1, samples)
	if err != nil {
		return nil, err
	}
	r, err := startRig(serve.Config{ColdWatermark: decodeWatermark}, workers, t)
	if err != nil {
		return nil, err
	}
	p := &decodePhase{in: in, rig: r, t: t, workers: workers, thr: thr, sess: make([]*client.Session, decodeSessions)}
	ctx := context.Background()
	err = parallel(decodeSessions, workers, func(i int) error {
		s, err := r.cl.NewSession(ctx, client.SessionOptions{
			Overrides: sessionOverrides(i, thr), HeadDim: headDim, Capacity: decodePrefix + decodeExtra,
		})
		if err != nil {
			return fmt.Errorf("session %d create: %w", i, err)
		}
		p.sess[i] = s
		const chunk = 512
		d := in.decode[i]
		for lo := 0; lo < decodePrefix; lo += chunk {
			if _, err := s.AppendBatch(ctx, d.K[lo:lo+chunk], d.V[lo:lo+chunk]); err != nil {
				return fmt.Errorf("session %d prefill: %w", i, err)
			}
		}
		return nil
	})
	if err != nil {
		r.close()
		return nil, err
	}
	return p, nil
}

// run drives closed-loop waves for budget: each wave appends one token to
// every session, then decodes all of them with one Step.
func (p *decodePhase) run(budget time.Duration) error {
	ctx := context.Background()
	start := time.Now()
	for w := 0; time.Since(start) < budget; w++ {
		ws := time.Now()
		row := token(w)
		t := p.t
		if w%2 == 1 {
			t = nil // every other wave untraced, to measure tracing overhead
		}
		results := make([]decodeResult, decodeSessions)
		parallel(decodeSessions, p.workers, func(i int) error {
			c, end := t.begin(ctx, "client.append")
			d := p.in.decode[i]
			_, err := p.sess[i].Append(c, d.K[row], d.V[row])
			end()
			if err != nil {
				results[i].err = true
			}
			return nil
		})
		queries := make([]client.StepQuery, decodeSessions)
		for i := range queries {
			queries[i] = client.StepQuery{Session: p.sess[i], Q: p.in.decode[i].Q[row]}
		}
		c, end := t.begin(ctx, "client.step")
		out, err := p.rig.cl.Step(c, queries)
		end()
		for i := range results {
			switch {
			case err != nil || out[i].Err != nil:
				results[i].err = true
			case !results[i].err:
				results[i].hash = hashVec(fnvOffset, out[i].Context)
				results[i].thr = out[i].Threshold
			}
			if results[i].err {
				p.failed++
			}
		}
		p.waves = append(p.waves, results)
		wm := ms(time.Since(ws))
		p.allMs = append(p.allMs, wm)
		if t != nil {
			p.tracedWaveMs = append(p.tracedWaveMs, wm)
		} else {
			p.waveMs = append(p.waveMs, wm)
		}
	}
	return nil
}

// decodeBlock is how many consecutive waves one tokens/s reading spans.
const decodeBlock = 32

// tokensPerSec is the median over consecutive blocks of decodeBlock waves
// of the tokens decoded per second of the block (the last, partial block
// too when there is no whole one). The median keeps a burst of other work
// on the machine out of the reading.
func tokensPerSec(waveMs []float64) float64 {
	var rates []float64
	for lo := 0; lo < len(waveMs); lo += decodeBlock {
		if lo > 0 && lo+decodeBlock > len(waveMs) {
			break
		}
		blk := waveMs[lo:min(lo+decodeBlock, len(waveMs))]
		total := 0.0
		for _, m := range blk {
			total += m
		}
		rates = append(rates, float64(decodeSessions*len(blk))*1000/total)
	}
	return median(rates)
}

// check replays every session on an in-process elsa.Stream with the same
// watermark, appending the same tokens in the same order, and compares
// the sampled queries with the server's answers bit for bit.
func (p *decodePhase) check() error {
	eng, err := elsa.New(elsa.Options{HeadDim: headDim})
	if err != nil {
		return err
	}
	type tally struct {
		appendT, queryT       time.Duration
		appends, queries, bad int
		mass, queryUs         []float64
	}
	tallies := make([]tally, decodeSessions)
	replay := func(i int) error {
		tl := &tallies[i]
		d := p.in.decode[i]
		st := eng.NewStreamCold(decodePrefix+decodeExtra, decodeWatermark)
		for j := 0; j < decodePrefix; j++ {
			if err := st.Append(d.K[j], d.V[j]); err != nil {
				return fmt.Errorf("mirror prefill: %w", err)
			}
		}
		backend := sessionOverrides(i, p.thr).Backend
		var dst []float32
		for w, wave := range p.waves {
			row := token(w)
			t0 := time.Now()
			if err := st.Append(d.K[row], d.V[row]); err != nil {
				return fmt.Errorf("mirror append: %w", err)
			}
			t1 := time.Now()
			tl.appendT += t1.Sub(t0)
			tl.appends++
			res := wave[i]
			if res.err || w%checkEvery != 0 {
				continue
			}
			thr := res.thr
			out, _, err := st.QueryOverrides(dst, d.Q[row], elsa.Overrides{Thr: &thr, Backend: backend}, elsa.Exact())
			q := time.Since(t1)
			tl.queryT += q
			tl.queries++
			tl.queryUs = append(tl.queryUs, float64(q)/1e3)
			if err != nil {
				return fmt.Errorf("mirror query: %w", err)
			}
			if hashVec(fnvOffset, out) != res.hash {
				tl.bad++
			}
			dst = out
			if backend == elsa.BackendAuto && w%massEvery == 0 {
				keys := append(append([][]float32(nil), d.K[:decodePrefix]...), make([][]float32, w+1)...)
				vals := append(append([][]float32(nil), d.V[:decodePrefix]...), make([][]float32, w+1)...)
				for j := 0; j <= w; j++ {
					keys[decodePrefix+j], vals[decodePrefix+j] = d.K[token(j)], d.V[token(j)]
				}
				_, fid, err := eng.Evaluate([][]float32{d.Q[row]}, keys, vals, thr)
				if err != nil {
					return fmt.Errorf("mirror mass: %w", err)
				}
				tl.mass = append(tl.mass, fid.RetainedMass)
			}
		}
		return nil
	}
	// The ELSA sessions replay side by side. The linear-scan sessions
	// replay one at a time: their query times are exact_ops_s, and a
	// second thread beside them would also time the load other tenants
	// put on the other vCPU.
	var elsaIdx, linIdx []int
	for i := 0; i < decodeSessions; i++ {
		if sessionOverrides(i, p.thr).Backend == elsa.BackendLinearScan {
			linIdx = append(linIdx, i)
		} else {
			elsaIdx = append(elsaIdx, i)
		}
	}
	if err := parallel(len(elsaIdx), p.workers, func(j int) error { return replay(elsaIdx[j]) }); err != nil {
		return err
	}
	for _, i := range linIdx {
		if err := replay(i); err != nil {
			return err
		}
	}
	var appendT, queryT time.Duration
	var appends, queries int
	var mass, linUs []float64
	for i, tl := range tallies {
		appendT += tl.appendT
		queryT += tl.queryT
		appends += tl.appends
		queries += tl.queries
		p.mismatches += tl.bad
		mass = append(mass, tl.mass...)
		if sessionOverrides(i, p.thr).Backend == elsa.BackendLinearScan {
			linUs = append(linUs, tl.queryUs...)
		}
	}
	p.linearUs = median(linUs)
	p.massRetained = mean(mass)
	if appends > 0 {
		p.appendUs = float64(appendT) / 1e3 / float64(appends)
	}
	if queries > 0 {
		p.queryUs = float64(queryT) / 1e3 / float64(queries)
	}
	return nil
}
