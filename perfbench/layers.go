package main

import "strings"

// Each phase's half of the phase interface: the end-to-end readings of
// its workload and the per-layer metrics its layers produce.

// rigLayers fills the HTTP and serve-layer metrics every HTTP phase shares.
func rigLayers(vals map[string]float64, spans []span, r *rig) {
	lt := layerTimes(spans)
	vals["http.transport_ms"] = lt["http"].SelfMs
	vals["http.conns_opened"] = float64(r.dials.Load())
	vals["serve.handler_ms"] = lt["serve.handler"].MeanMs
	vals["serve.body_read_ms"] = lt["serve.body_read"].MeanMs
	vals["serve.handler_self_ms"] = lt["serve.handler"].SelfMs
	m := r.srv.Metrics()
	vals["serve.calibrations"] = float64(m.Calibrations())
	shed := int64(0)
	for k, v := range m.AdmissionDecisions() {
		if strings.HasPrefix(k, "shed") {
			shed += v
		}
	}
	vals["serve.admission_shed"] = float64(shed)
}

func overheadPct(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return 100 * (median(traced)/median(plain) - 1)
}

func (p *attendPhase) close() { p.rig.close() }

func (p *attendPhase) counts() (int, int, int) { return len(p.recs), p.failed, p.mismatches }

func (p *attendPhase) endToEnd(vals map[string]float64) {
	vals["ops_s"] = p.goodput
	vals["p50_ms"] = p.p50
	vals["tail_ms"] = p.tail
	vals["exact_ops_s"] = p.exactOpsS
	vals["mass_retained"] = p.massRetained
}

func (p *attendPhase) layers(vals map[string]float64, spans []span) error {
	rigLayers(vals, spans, p.rig)
	vals["loadgen.lag_p95_ms"] = p.lagP95
	vals["loadgen.sent"] = float64(len(p.recs))
	vals["loadgen.failed"] = float64(p.failed)
	vals["client.attend_self_ms"] = layerTimes(spans)["client.attend"].SelfMs
	if n := p.rig.tt.reqCount.Load(); n > 0 {
		vals["client.request_kb"] = float64(p.rig.tt.reqBytes.Load()) / float64(n) / 1024
	}
	vals["serve.mean_batch"] = p.rig.srv.Metrics().MeanBatchSize()
	vals["elsa.attend_batch_ms_per_op"] = p.checkMsPerOp
	vals["trace.overhead_pct"] = overheadPct(p.traced, p.plain)
	return nil
}

func (p *decodePhase) close() { p.rig.close() }

func (p *decodePhase) counts() (int, int, int) {
	return 2 * decodeSessions * len(p.waves), p.failed, p.mismatches
}

func (p *decodePhase) endToEnd(vals map[string]float64) {
	vals["ops_s"] = tokensPerSec(p.allMs)
	vals["p50_ms"] = quantile(p.waveMs, 0.5)
	vals["tail_ms"] = quantile(p.waveMs, tailQuantile)
	vals["exact_ops_s"] = 1e6 / p.linearUs
	vals["mass_retained"] = p.massRetained
}

func (p *decodePhase) layers(vals map[string]float64, spans []span) error {
	rigLayers(vals, spans, p.rig)
	lt := layerTimes(spans)
	vals["loadgen.sent"] = float64(2 * decodeSessions * len(p.waves))
	vals["loadgen.failed"] = float64(p.failed)
	vals["client.append_self_ms"] = lt["client.append"].SelfMs
	vals["client.step_self_ms"] = lt["client.step"].SelfMs
	m := p.rig.srv.Metrics()
	vals["serve.decode_mean_batch"] = m.MeanDecodeBatchSize()
	vals["serve.decode_coalesced"] = float64(m.DecodeCoalesced())
	vals["elsa.stream_query_us"] = p.queryUs
	vals["elsa.stream_append_us"] = p.appendUs
	vals["trace.overhead_pct"] = overheadPct(p.tracedWaveMs, p.waveMs)
	return nil
}

func (p *enginePhase) close() {}

func (p *enginePhase) counts() (int, int, int) { return p.ops, 0, p.mismatches }

func (p *enginePhase) endToEnd(vals map[string]float64) {
	vals["ops_s"] = p.opsS[kElsa]
	vals["p50_ms"] = quantile(p.durMs[kElsa], 0.5)
	vals["tail_ms"] = quantile(p.durMs[kElsa], tailQuantile)
	vals["exact_ops_s"] = p.exactOpsS()
	vals["mass_retained"] = p.massRetained
}

func (p *enginePhase) layers(vals map[string]float64, _ []span) error {
	if err := p.traceKernels(); err != nil {
		return err
	}
	vals["elsa.speedup_vs_fastest_exact"] = p.opsS[kElsa] / p.exactOpsS()
	vals["elsa.unconc_ops_s"] = p.opsS[kElsaUnconc]
	vals["attention.preprocess_ms"] = p.preprocessMs
	vals["attention.attend_with_ms"] = p.attendWithMs
	vals["attention.exact_scores_ms"] = p.exactMs
	vals["attention.linear_scan_ms"] = p.linearMs
	vals["attention.candidate_fraction"] = p.candFraction
	vals["attention.flops_per_op"] = p.flopsPerOp
	vals["attention.gather_bytes_per_op"] = p.gatherBytesPerOp
	return nil
}
