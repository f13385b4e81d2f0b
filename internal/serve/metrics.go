package serve

import (
	"fmt"
	"io"
	"sort"
	"sync"
	"time"
)

// latencyBuckets are the request-latency histogram bounds in seconds.
var latencyBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10,
}

// batchSizeBuckets are the dispatched-batch-size histogram bounds.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128, 256}

// histogram is a fixed-bucket cumulative histogram in the Prometheus
// sense: counts[i] tallies observations <= bounds[i], with a final
// implicit +Inf bucket.
type histogram struct {
	bounds []float64
	counts []int64
	sum    float64
	total  int64
}

func newHistogram(bounds []float64) *histogram {
	return &histogram{bounds: bounds, counts: make([]int64, len(bounds)+1)}
}

func (h *histogram) observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i]++
	h.sum += v
	h.total++
}

// writeProm renders the histogram in Prometheus text exposition format.
func (h *histogram) writeProm(w io.Writer, name string) {
	fmt.Fprintf(w, "# TYPE %s histogram\n", name)
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, fmtFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	fmt.Fprintf(w, "%s_sum %s\n", name, fmtFloat(h.sum))
	fmt.Fprintf(w, "%s_count %d\n", name, h.total)
}

// writePromLabeled renders the histogram's series with a fixed extra
// label (e.g. `class="interactive"`) prepended to every line's label set,
// so several labeled histograms can share one metric family.
func (h *histogram) writePromLabeled(w io.Writer, name, label string) {
	var cum int64
	for i, b := range h.bounds {
		cum += h.counts[i]
		fmt.Fprintf(w, "%s_bucket{%s,le=%q} %d\n", name, label, fmtFloat(b), cum)
	}
	cum += h.counts[len(h.bounds)]
	fmt.Fprintf(w, "%s_bucket{%s,le=\"+Inf\"} %d\n", name, label, cum)
	fmt.Fprintf(w, "%s_sum{%s} %s\n", name, label, fmtFloat(h.sum))
	fmt.Fprintf(w, "%s_count{%s} %d\n", name, label, h.total)
}

func fmtFloat(v float64) string { return fmt.Sprintf("%g", v) }

// Metrics aggregates the server's runtime counters and histograms and
// renders them in Prometheus text format. All methods are safe for
// concurrent use.
type Metrics struct {
	mu sync.Mutex

	requestsByCode map[string]int64 // HTTP status → count, /v1/attend only
	rejectedByWhy  map[string]int64 // queue_full | timeout | closed | bad_request

	batches  int64 // dispatched micro-batches
	batchOps int64 // ops across all dispatched batches

	batchSize *histogram
	latency   *histogram // request wall time, seconds

	admission    map[string]int64       // admission decision → count
	preempted    map[string]int64       // class → ops deferred by weighted dequeue
	classLatency [NumClasses]*histogram // request wall time by class, seconds
	quotaClients int64                  // resident per-client quota buckets

	candFracSum   float64 // admitted-candidate fraction, from Output stats
	candFracCount int64

	queueDepth  int64             // current scheduler queue occupancy
	queuedClass [NumClasses]int64 // current queue occupancy per class
	shedsClass  [NumClasses]int64 // ops shed before dispatch per class
	engines     int64             // replica sets resident in the pool

	// Windowed shed-rate state: shedRates holds the events/s observed over
	// the last completed window, rolled forward lazily at read time so no
	// background ticker is needed. clock is injectable for tests.
	clock        func() time.Time
	shedWindow   time.Duration
	shedPrev     [NumClasses]int64
	shedPrevTime time.Time
	shedRates    [NumClasses]float64

	mirrorTokens  int64 // tokens replayed onto local shadow mirrors
	mirrorNanos   int64 // wall nanos spent replaying them
	mirrorFlushes int64 // mirror replays (one per flushed batch)
	mirrorPending int64 // gauge: append chunks queued, not yet replayed

	shardBatches map[int]int64 // replica index → dispatched batches
	shardOps     map[int]int64 // replica index → ops in those batches
	shardDepth   map[int]int64 // replica index → batches in flight, at most one per shard

	engineEvictions int64 // replica sets evicted from the bounded pool

	sessionsActive  int64            // live decode sessions
	sessionsCreated int64            // sessions ever created
	sessionEvicted  map[string]int64 // evicted sessions by reason: ttl | lru | deleted
	sessionTokens   int64            // tokens appended across all sessions
	sessionQueries  int64            // decode queries served across all sessions

	sessionsSpilled    int64 // idle sessions spilled to the state dir
	sessionsRehydrated int64 // spilled sessions rehydrated on demand
	sessionsMigrated   int64 // sessions live-migrated between workers
	sessionsRecovered  int64 // sessions re-placed after a worker loss
	thresholdEvictions int64 // state-dir threshold files removed by the cap

	decodeBatches   int64      // decode batches the dispatch loops ran
	decodeOps       int64      // session queries across those batches
	decodeCoalesced int64      // queries that shared a decode batch (batch size > 1)
	decodeBatchSize *histogram // queries coalesced per decode batch

	calibrations        int64 // thresholds calibrated online
	thresholdLoads      int64 // thresholds restored from the state dir
	thresholdCorruption int64 // corrupt state-dir entries discarded on load

	workerHealthy      map[string]int64 // worker addr → 1 admitted / 0 ejected
	workerEjections    map[string]int64 // worker addr → ejections after consecutive failures
	workerReadmissions map[string]int64 // worker addr → re-admissions after recovery
	remoteOps          map[string]int64 // worker addr → attend ops sent over the wire
	reroutes           int64            // ops re-executed on a sibling shard after a worker failure

	clusterJoins      int64            // join requests that created or revived a member
	clusterHeartbeats int64            // join requests that merely refreshed one
	membersActivated  int64            // joining → active transitions
	membersDraining   int64            // members marked draining
	membersExpired    int64            // members expired to gone by missed heartbeats
	memberStates      map[string]int64 // membership state → member count (gauge, set at scrape)
	membershipVersion int64            // the table's current version (gauge)
}

// NewMetrics returns an empty metrics registry.
func NewMetrics() *Metrics {
	m := &Metrics{
		requestsByCode:  make(map[string]int64),
		rejectedByWhy:   make(map[string]int64),
		batchSize:       newHistogram(batchSizeBuckets),
		latency:         newHistogram(latencyBuckets),
		admission:       make(map[string]int64),
		preempted:       make(map[string]int64),
		shardBatches:    make(map[int]int64),
		shardOps:        make(map[int]int64),
		shardDepth:      make(map[int]int64),
		sessionEvicted:  make(map[string]int64),
		decodeBatchSize: newHistogram(batchSizeBuckets),

		workerHealthy:      make(map[string]int64),
		workerEjections:    make(map[string]int64),
		workerReadmissions: make(map[string]int64),
		remoteOps:          make(map[string]int64),
		memberStates:       make(map[string]int64),

		clock:      time.Now,
		shedWindow: time.Second,
	}
	for c := range m.classLatency {
		m.classLatency[c] = newHistogram(latencyBuckets)
	}
	return m
}

// ObserveAdmission records one admission-control decision: "admitted",
// "shed_quota", or "shed_deadline".
func (m *Metrics) ObserveAdmission(decision string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.admission[decision]++
}

// AdmissionDecisions returns a copy of the decision counters.
func (m *Metrics) AdmissionDecisions() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.admission))
	for k, v := range m.admission {
		out[k] = v
	}
	return out
}

// ObservePreempted tallies n ops of a class deferred to a later batch by
// the weighted dequeue.
func (m *Metrics) ObservePreempted(class string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.preempted[class] += int64(n)
}

// Preemptions returns a copy of the per-class preempted-op counters.
func (m *Metrics) Preemptions() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.preempted))
	for k, v := range m.preempted {
		out[k] = v
	}
	return out
}

// ObserveClassLatency records one finished /v1/attend request's wall time
// under its priority class.
func (m *Metrics) ObserveClassLatency(c Class, seconds float64) {
	if c < 0 || int(c) >= NumClasses {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.classLatency[c].observe(seconds)
}

// SetQuotaClients updates the resident-quota-bucket gauge.
func (m *Metrics) SetQuotaClients(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.quotaClients = int64(n)
}

// ObserveRequest records one finished /v1/attend request.
func (m *Metrics) ObserveRequest(code int, seconds float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.requestsByCode[fmt.Sprintf("%d", code)]++
	m.latency.observe(seconds)
}

// ObserveRejection tallies a refused request by reason.
func (m *Metrics) ObserveRejection(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.rejectedByWhy[reason]++
}

// ObserveBatch records one dispatched micro-batch of the given size.
func (m *Metrics) ObserveBatch(size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.batches++
	m.batchOps += int64(size)
	m.batchSize.observe(float64(size))
}

// ObserveCandidateFraction records one op's admitted-candidate fraction.
func (m *Metrics) ObserveCandidateFraction(f float64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.candFracSum += f
	m.candFracCount++
}

// ObserveShardBatch records one micro-batch executed by the given replica
// shard. Shards are labelled by replica index, so the same index aggregates
// across replica sets — shard fairness is a per-fleet property.
func (m *Metrics) ObserveShardBatch(shard, size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shardBatches[shard]++
	m.shardOps[shard] += int64(size)
}

// AddShardDepth adjusts the in-flight-batch gauge for one replica shard.
func (m *Metrics) AddShardDepth(shard int, delta int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shardDepth[shard] += delta
}

// ShardBatches returns a copy of the per-replica dispatched-batch counts.
func (m *Metrics) ShardBatches() map[int]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[int]int64, len(m.shardBatches))
	for k, v := range m.shardBatches {
		out[k] = v
	}
	return out
}

// ObserveEngineEviction tallies one replica set evicted from the pool.
func (m *Metrics) ObserveEngineEviction() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.engineEvictions++
}

// EngineEvictions reports how many replica sets the pool has evicted.
func (m *Metrics) EngineEvictions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.engineEvictions
}

// ObserveSessionCreated records a new decode session.
func (m *Metrics) ObserveSessionCreated() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsCreated++
	m.sessionsActive++
}

// ObserveSessionEvicted records a session leaving the registry, by reason
// ("ttl", "lru", or "deleted").
func (m *Metrics) ObserveSessionEvicted(reason string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionEvicted[reason]++
	m.sessionsActive--
}

// SessionEvictions reports evicted-session counts by reason.
func (m *Metrics) SessionEvictions() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.sessionEvicted))
	for k, v := range m.sessionEvicted {
		out[k] = v
	}
	return out
}

// ObserveSessionAppend tallies tokens appended to a session.
func (m *Metrics) ObserveSessionAppend(tokens int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionTokens += int64(tokens)
}

// ObserveSessionQuery tallies one decode query served from a session.
func (m *Metrics) ObserveSessionQuery() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionQueries++
}

// ObserveSessionSpilled tallies one idle session spilled to the state dir.
func (m *Metrics) ObserveSessionSpilled() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsSpilled++
}

// SessionsSpilled reports how many idle sessions were spilled to disk.
func (m *Metrics) SessionsSpilled() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessionsSpilled
}

// ObserveSessionRehydrated tallies one spilled session rehydrated on its
// next query.
func (m *Metrics) ObserveSessionRehydrated() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsRehydrated++
}

// SessionsRehydrated reports how many spilled sessions were rehydrated.
func (m *Metrics) SessionsRehydrated() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessionsRehydrated
}

// ObserveSessionMigrated tallies one session live-migrated to another
// worker (drain relocation or an explicit export/import).
func (m *Metrics) ObserveSessionMigrated() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsMigrated++
}

// SessionsMigrated reports how many sessions were live-migrated.
func (m *Metrics) SessionsMigrated() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessionsMigrated
}

// ObserveSessionRecovered tallies one session re-placed from its portable
// state after its worker was lost mid-decode.
func (m *Metrics) ObserveSessionRecovered() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.sessionsRecovered++
}

// SessionsRecovered reports how many sessions were recovered after a
// worker loss.
func (m *Metrics) SessionsRecovered() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessionsRecovered
}

// ObserveThresholdEviction tallies one state-dir threshold file removed
// by the on-disk cap.
func (m *Metrics) ObserveThresholdEviction() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.thresholdEvictions++
}

// ThresholdEvictions reports how many state-dir threshold files the cap
// removed.
func (m *Metrics) ThresholdEvictions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.thresholdEvictions
}

// ObserveDecodeBatch records one decode batch a dispatch loop ran. A
// batch of size > 1 means its queries were coalesced — each would have
// been a serialized dispatch without the loop.
func (m *Metrics) ObserveDecodeBatch(size int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.decodeBatches++
	m.decodeOps += int64(size)
	m.decodeBatchSize.observe(float64(size))
	if size > 1 {
		m.decodeCoalesced += int64(size)
	}
}

// DecodeBatches reports how many decode batches the dispatch loops ran.
func (m *Metrics) DecodeBatches() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.decodeBatches
}

// DecodeCoalesced reports how many session queries shared a decode
// batch with at least one other session's query.
func (m *Metrics) DecodeCoalesced() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.decodeCoalesced
}

// MeanDecodeBatchSize returns queries-per-decode-batch so far (0 before
// any decode dispatch).
func (m *Metrics) MeanDecodeBatchSize() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.decodeBatches == 0 {
		return 0
	}
	return float64(m.decodeOps) / float64(m.decodeBatches)
}

// TotalShardDepth sums the in-flight-batch gauge across all shards — the
// fleet-wide busy-lane count the healthz fleet view reports.
func (m *Metrics) TotalShardDepth() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var total int64
	for _, d := range m.shardDepth {
		total += d
	}
	return total
}

// ActiveSessions reports the live-session gauge.
func (m *Metrics) ActiveSessions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.sessionsActive
}

// ObserveCalibration tallies one online threshold calibration.
func (m *Metrics) ObserveCalibration() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.calibrations++
}

// Calibrations reports how many thresholds were calibrated online.
func (m *Metrics) Calibrations() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.calibrations
}

// ObserveThresholdLoad tallies one threshold restored from the state dir.
func (m *Metrics) ObserveThresholdLoad() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.thresholdLoads++
}

// ThresholdLoads reports how many thresholds were restored from disk.
func (m *Metrics) ThresholdLoads() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.thresholdLoads
}

// ObserveThresholdCorrupt tallies one corrupt state-dir entry discarded
// at load time (the operating point recalibrates on the next request).
func (m *Metrics) ObserveThresholdCorrupt() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.thresholdCorruption++
}

// ThresholdCorruptions reports how many corrupt state-dir entries were
// discarded.
func (m *Metrics) ThresholdCorruptions() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.thresholdCorruption
}

// SetWorkerHealthy updates one remote worker's admission gauge.
func (m *Metrics) SetWorkerHealthy(addr string, healthy bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if healthy {
		m.workerHealthy[addr] = 1
	} else {
		m.workerHealthy[addr] = 0
	}
}

// ObserveWorkerEjection tallies one worker ejected from routing after
// consecutive probe/dispatch failures.
func (m *Metrics) ObserveWorkerEjection(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workerEjections[addr]++
}

// ObserveWorkerReadmission tallies one ejected worker re-admitted after
// a successful health probe or dispatch.
func (m *Metrics) ObserveWorkerReadmission(addr string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.workerReadmissions[addr]++
}

// WorkerEjections returns a copy of the per-worker ejection counters.
func (m *Metrics) WorkerEjections() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.workerEjections))
	for k, v := range m.workerEjections {
		out[k] = v
	}
	return out
}

// WorkerReadmissions returns a copy of the per-worker re-admission
// counters.
func (m *Metrics) WorkerReadmissions() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.workerReadmissions))
	for k, v := range m.workerReadmissions {
		out[k] = v
	}
	return out
}

// ObserveRemoteOps tallies attend ops sent over the wire to one worker.
func (m *Metrics) ObserveRemoteOps(addr string, n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.remoteOps[addr] += int64(n)
}

// RemoteOps returns a copy of the per-worker wire-op counters.
func (m *Metrics) RemoteOps() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, len(m.remoteOps))
	for k, v := range m.remoteOps {
		out[k] = v
	}
	return out
}

// ObserveReroutes tallies n ops re-executed on a sibling shard after a
// retryable worker failure.
func (m *Metrics) ObserveReroutes(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.reroutes += int64(n)
}

// Reroutes reports how many ops were re-executed on a sibling shard.
func (m *Metrics) Reroutes() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.reroutes
}

// ObserveClusterJoin records one POST /v1/cluster/join: changed means a
// member was created or revived, the rest are heartbeats.
func (m *Metrics) ObserveClusterJoin(changed bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if changed {
		m.clusterJoins++
	} else {
		m.clusterHeartbeats++
	}
}

// ClusterJoins reports how many joins created or revived a member.
func (m *Metrics) ClusterJoins() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clusterJoins
}

// ClusterHeartbeats reports how many joins were heartbeat refreshes.
func (m *Metrics) ClusterHeartbeats() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.clusterHeartbeats
}

// ObserveMemberActivated tallies one joining → active promotion.
func (m *Metrics) ObserveMemberActivated() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.membersActivated++
}

// MembersActivated reports how many members were promoted to active.
func (m *Metrics) MembersActivated() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.membersActivated
}

// ObserveMemberDraining tallies one member marked draining.
func (m *Metrics) ObserveMemberDraining() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.membersDraining++
}

// ObserveMemberExpired tallies one member expired to gone by missed
// heartbeats.
func (m *Metrics) ObserveMemberExpired() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.membersExpired++
}

// MembersExpired reports how many members expired to gone.
func (m *Metrics) MembersExpired() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.membersExpired
}

// SetClusterMembers updates the per-state membership gauge and the table
// version gauge (called at scrape time).
func (m *Metrics) SetClusterMembers(states map[string]int64, version uint64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.memberStates = states
	m.membershipVersion = int64(version)
}

// SetQueueDepth updates the scheduler-occupancy gauge.
func (m *Metrics) SetQueueDepth(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.queueDepth = int64(n)
}

// SetClassQueueDepths updates the per-class queue-occupancy gauges in one
// call (the dispatcher maintains the array under its own lock).
func (m *Metrics) SetClassQueueDepths(depths [NumClasses]int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for c, n := range depths {
		m.queuedClass[c] = int64(n)
	}
}

// QueueDepthsByClass returns the current per-class queue occupancy keyed
// by class name — the scale signal GET /v1/cluster surfaces.
func (m *Metrics) QueueDepthsByClass() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, NumClasses)
	for c, n := range m.queuedClass {
		out[Class(c).String()] = n
	}
	return out
}

// ObserveClassShed tallies one op refused before dispatch (queue full,
// deadline unmeetable, no workers) under its priority class.
func (m *Metrics) ObserveClassShed(c Class) {
	if c < 0 || int(c) >= NumClasses {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	m.shedsClass[c]++
}

// ShedsByClass returns the cumulative shed counts keyed by class name.
func (m *Metrics) ShedsByClass() map[string]int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int64, NumClasses)
	for c, n := range m.shedsClass {
		out[Class(c).String()] = n
	}
	return out
}

// shedRatesLocked rolls the shed-rate window forward if at least one full
// window has elapsed and returns the last completed window's rates. Called
// with m.mu held. The first call seeds the window and reports zeros — a
// controller's hysteresis absorbs the one-poll warm-up.
func (m *Metrics) shedRatesLocked() [NumClasses]float64 {
	now := m.clock()
	if m.shedPrevTime.IsZero() {
		m.shedPrevTime = now
		m.shedPrev = m.shedsClass
	} else if elapsed := now.Sub(m.shedPrevTime); elapsed >= m.shedWindow {
		secs := elapsed.Seconds()
		for c := range m.shedsClass {
			m.shedRates[c] = float64(m.shedsClass[c]-m.shedPrev[c]) / secs
		}
		m.shedPrev = m.shedsClass
		m.shedPrevTime = now
	}
	return m.shedRates
}

// ShedRates returns the per-class shed rate in events/s over the last
// completed window (~1s), keyed by class name. Unlike ShedsByClass this is
// a rate, not a lifetime counter, so a controller's hysteresis bands act
// on current pressure rather than whole-lifetime averages.
func (m *Metrics) ShedRates() map[string]float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	rates := m.shedRatesLocked()
	out := make(map[string]float64, NumClasses)
	for c, r := range rates {
		out[Class(c).String()] = r
	}
	return out
}

// ObserveMirrorReplay records one shadow-mirror replay: tokens applied to
// local shadow streams in d wall time. The ratio nanos/tokens is the
// steady-state mirror cost the autoscale bench family bounds.
func (m *Metrics) ObserveMirrorReplay(tokens int, d time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mirrorTokens += int64(tokens)
	m.mirrorNanos += int64(d)
	m.mirrorFlushes++
}

// MirrorReplay reports the cumulative tokens replayed onto shadow mirrors
// and the wall nanoseconds spent replaying them.
func (m *Metrics) MirrorReplay() (tokens, nanos int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mirrorTokens, m.mirrorNanos
}

// AddMirrorPending adjusts the queued-but-unreplayed mirror chunk gauge.
func (m *Metrics) AddMirrorPending(delta int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.mirrorPending += int64(delta)
}

// MirrorPending reports mirror append chunks accepted remotely but not yet
// replayed onto their local shadows.
func (m *Metrics) MirrorPending() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.mirrorPending
}

// SetEngines updates the engine-pool-size gauge.
func (m *Metrics) SetEngines(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.engines = int64(n)
}

// MeanBatchSize returns ops-per-dispatched-batch so far (0 before any
// dispatch).
func (m *Metrics) MeanBatchSize() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.batches == 0 {
		return 0
	}
	return float64(m.batchOps) / float64(m.batches)
}

// WriteTo renders every metric in Prometheus text exposition format.
func (m *Metrics) WriteTo(w io.Writer) (int64, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	cw := &countingWriter{w: w}

	fmt.Fprintf(cw, "# HELP elsa_serve_requests_total Finished /v1/attend requests by HTTP status.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_requests_total counter\n")
	for _, code := range sortedKeys(m.requestsByCode) {
		fmt.Fprintf(cw, "elsa_serve_requests_total{code=%q} %d\n", code, m.requestsByCode[code])
	}
	fmt.Fprintf(cw, "# HELP elsa_serve_rejected_total Requests refused before attention ran, by reason.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_rejected_total counter\n")
	for _, why := range sortedKeys(m.rejectedByWhy) {
		fmt.Fprintf(cw, "elsa_serve_rejected_total{reason=%q} %d\n", why, m.rejectedByWhy[why])
	}
	fmt.Fprintf(cw, "# HELP elsa_serve_batches_total Micro-batches dispatched to the attention engine.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_batches_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_batches_total %d\n", m.batches)
	fmt.Fprintf(cw, "# HELP elsa_serve_batch_ops_total Attention ops dispatched across all micro-batches.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_batch_ops_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_batch_ops_total %d\n", m.batchOps)

	fmt.Fprintf(cw, "# HELP elsa_serve_batch_size Ops coalesced per dispatched micro-batch.\n")
	m.batchSize.writeProm(cw, "elsa_serve_batch_size")
	fmt.Fprintf(cw, "# HELP elsa_serve_request_seconds Request wall time for /v1/attend.\n")
	m.latency.writeProm(cw, "elsa_serve_request_seconds")

	fmt.Fprintf(cw, "# HELP elsa_serve_admission_total Admission-control decisions for /v1/attend.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_admission_total counter\n")
	for _, d := range sortedKeys(m.admission) {
		fmt.Fprintf(cw, "elsa_serve_admission_total{decision=%q} %d\n", d, m.admission[d])
	}
	fmt.Fprintf(cw, "# HELP elsa_serve_preempted_total Ops deferred to a later batch by the weighted dequeue, by class.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_preempted_total counter\n")
	for _, c := range sortedKeys(m.preempted) {
		fmt.Fprintf(cw, "elsa_serve_preempted_total{class=%q} %d\n", c, m.preempted[c])
	}
	fmt.Fprintf(cw, "# HELP elsa_serve_class_request_seconds Request wall time for /v1/attend, by priority class.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_class_request_seconds histogram\n")
	for c, h := range m.classLatency {
		if h.total == 0 {
			continue
		}
		h.writePromLabeled(cw, "elsa_serve_class_request_seconds", fmt.Sprintf("class=%q", Class(c).String()))
	}
	fmt.Fprintf(cw, "# HELP elsa_serve_quota_clients Resident per-client quota buckets.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_quota_clients gauge\n")
	fmt.Fprintf(cw, "elsa_serve_quota_clients %d\n", m.quotaClients)

	fmt.Fprintf(cw, "# HELP elsa_serve_candidate_fraction_sum Summed admitted-candidate fractions over served ops.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_candidate_fraction_sum counter\n")
	fmt.Fprintf(cw, "elsa_serve_candidate_fraction_sum %s\n", fmtFloat(m.candFracSum))
	fmt.Fprintf(cw, "# TYPE elsa_serve_candidate_fraction_count counter\n")
	fmt.Fprintf(cw, "elsa_serve_candidate_fraction_count %d\n", m.candFracCount)

	fmt.Fprintf(cw, "# HELP elsa_serve_shard_batches_total Micro-batches executed per replica shard.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_shard_batches_total counter\n")
	for _, sh := range sortedIntKeys(m.shardBatches) {
		fmt.Fprintf(cw, "elsa_serve_shard_batches_total{shard=\"%d\"} %d\n", sh, m.shardBatches[sh])
	}
	fmt.Fprintf(cw, "# HELP elsa_serve_shard_ops_total Attention ops executed per replica shard.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_shard_ops_total counter\n")
	for _, sh := range sortedIntKeys(m.shardOps) {
		fmt.Fprintf(cw, "elsa_serve_shard_ops_total{shard=\"%d\"} %d\n", sh, m.shardOps[sh])
	}
	fmt.Fprintf(cw, "# HELP elsa_serve_shard_depth Batches in flight (at most one per shard), by replica shard index.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_shard_depth gauge\n")
	for _, sh := range sortedIntKeys(m.shardDepth) {
		fmt.Fprintf(cw, "elsa_serve_shard_depth{shard=\"%d\"} %d\n", sh, m.shardDepth[sh])
	}

	fmt.Fprintf(cw, "# HELP elsa_serve_queue_depth Requests currently queued in the micro-batch dispatcher.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_queue_depth gauge\n")
	fmt.Fprintf(cw, "elsa_serve_queue_depth %d\n", m.queueDepth)
	fmt.Fprintf(cw, "# HELP elsa_serve_class_queue_depth Requests currently queued, by priority class.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_class_queue_depth gauge\n")
	for c, n := range m.queuedClass {
		fmt.Fprintf(cw, "elsa_serve_class_queue_depth{class=%q} %d\n", Class(c).String(), n)
	}
	fmt.Fprintf(cw, "# HELP elsa_serve_class_sheds_total Ops refused before dispatch, by priority class.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_class_sheds_total counter\n")
	for c, n := range m.shedsClass {
		fmt.Fprintf(cw, "elsa_serve_class_sheds_total{class=%q} %d\n", Class(c).String(), n)
	}
	shedRates := m.shedRatesLocked()
	fmt.Fprintf(cw, "# HELP elsa_serve_class_shed_rate Ops shed per second over the last window, by priority class.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_class_shed_rate gauge\n")
	for c, r := range shedRates {
		fmt.Fprintf(cw, "elsa_serve_class_shed_rate{class=%q} %s\n", Class(c).String(), fmtFloat(r))
	}
	fmt.Fprintf(cw, "# HELP elsa_serve_engines Replica sets resident in the pool.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_engines gauge\n")
	fmt.Fprintf(cw, "elsa_serve_engines %d\n", m.engines)
	fmt.Fprintf(cw, "# HELP elsa_serve_engine_evictions_total Replica sets evicted from the bounded pool.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_engine_evictions_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_engine_evictions_total %d\n", m.engineEvictions)

	fmt.Fprintf(cw, "# HELP elsa_serve_sessions Live autoregressive decode sessions.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_sessions gauge\n")
	fmt.Fprintf(cw, "elsa_serve_sessions %d\n", m.sessionsActive)
	fmt.Fprintf(cw, "# HELP elsa_serve_sessions_created_total Decode sessions ever created.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_sessions_created_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_sessions_created_total %d\n", m.sessionsCreated)
	fmt.Fprintf(cw, "# HELP elsa_serve_session_evictions_total Sessions removed from the registry, by reason.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_session_evictions_total counter\n")
	for _, why := range sortedKeys(m.sessionEvicted) {
		fmt.Fprintf(cw, "elsa_serve_session_evictions_total{reason=%q} %d\n", why, m.sessionEvicted[why])
	}
	fmt.Fprintf(cw, "# HELP elsa_serve_session_tokens_total Tokens appended across all sessions.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_session_tokens_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_session_tokens_total %d\n", m.sessionTokens)
	fmt.Fprintf(cw, "# HELP elsa_serve_session_queries_total Decode queries served across all sessions.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_session_queries_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_session_queries_total %d\n", m.sessionQueries)
	fmt.Fprintf(cw, "# HELP elsa_serve_sessions_spilled_total Idle sessions spilled to the state directory.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_sessions_spilled_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_sessions_spilled_total %d\n", m.sessionsSpilled)
	fmt.Fprintf(cw, "# HELP elsa_serve_sessions_rehydrated_total Spilled sessions rehydrated on demand.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_sessions_rehydrated_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_sessions_rehydrated_total %d\n", m.sessionsRehydrated)
	fmt.Fprintf(cw, "# HELP elsa_serve_sessions_migrated_total Sessions live-migrated between workers.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_sessions_migrated_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_sessions_migrated_total %d\n", m.sessionsMigrated)
	fmt.Fprintf(cw, "# HELP elsa_serve_sessions_recovered_total Sessions re-placed from portable state after a worker loss.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_sessions_recovered_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_sessions_recovered_total %d\n", m.sessionsRecovered)
	fmt.Fprintf(cw, "# HELP elsa_serve_mirror_tokens_total Tokens replayed onto local shadow mirrors.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_mirror_tokens_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_mirror_tokens_total %d\n", m.mirrorTokens)
	fmt.Fprintf(cw, "# HELP elsa_serve_mirror_seconds_total Wall time spent replaying shadow-mirror appends.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_mirror_seconds_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_mirror_seconds_total %s\n", fmtFloat(float64(m.mirrorNanos)/1e9))
	fmt.Fprintf(cw, "# HELP elsa_serve_mirror_flushes_total Shadow-mirror replay batches flushed.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_mirror_flushes_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_mirror_flushes_total %d\n", m.mirrorFlushes)
	fmt.Fprintf(cw, "# HELP elsa_serve_mirror_pending Mirror append chunks accepted remotely but not yet replayed.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_mirror_pending gauge\n")
	fmt.Fprintf(cw, "elsa_serve_mirror_pending %d\n", m.mirrorPending)
	fmt.Fprintf(cw, "# HELP elsa_serve_decode_batches_total Session decode batches run by the dispatch loops.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_decode_batches_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_decode_batches_total %d\n", m.decodeBatches)
	fmt.Fprintf(cw, "# HELP elsa_serve_decode_batch_ops_total Session queries dispatched across all decode batches.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_decode_batch_ops_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_decode_batch_ops_total %d\n", m.decodeOps)
	fmt.Fprintf(cw, "# HELP elsa_serve_decode_coalesced_total Session queries that shared a decode batch with another session.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_decode_coalesced_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_decode_coalesced_total %d\n", m.decodeCoalesced)
	fmt.Fprintf(cw, "# HELP elsa_serve_decode_batch_size Session queries coalesced per decode batch.\n")
	m.decodeBatchSize.writeProm(cw, "elsa_serve_decode_batch_size")

	fmt.Fprintf(cw, "# HELP elsa_serve_calibrations_total Thresholds calibrated online.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_calibrations_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_calibrations_total %d\n", m.calibrations)
	fmt.Fprintf(cw, "# HELP elsa_serve_threshold_loads_total Thresholds restored from the state directory.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_threshold_loads_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_threshold_loads_total %d\n", m.thresholdLoads)
	fmt.Fprintf(cw, "# HELP elsa_serve_threshold_corrupt_total Corrupt state-dir threshold entries discarded at load.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_threshold_corrupt_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_threshold_corrupt_total %d\n", m.thresholdCorruption)
	fmt.Fprintf(cw, "# HELP elsa_serve_threshold_evictions_total State-dir threshold files removed by the on-disk cap.\n")
	fmt.Fprintf(cw, "# TYPE elsa_serve_threshold_evictions_total counter\n")
	fmt.Fprintf(cw, "elsa_serve_threshold_evictions_total %d\n", m.thresholdEvictions)

	if len(m.workerHealthy) > 0 {
		fmt.Fprintf(cw, "# HELP elsa_serve_worker_healthy Remote worker admission state (1 routed, 0 ejected).\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_worker_healthy gauge\n")
		for _, addr := range sortedKeys(m.workerHealthy) {
			fmt.Fprintf(cw, "elsa_serve_worker_healthy{worker=%q} %d\n", addr, m.workerHealthy[addr])
		}
		fmt.Fprintf(cw, "# HELP elsa_serve_worker_ejections_total Workers ejected from routing after consecutive failures.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_worker_ejections_total counter\n")
		for _, addr := range sortedKeys(m.workerEjections) {
			fmt.Fprintf(cw, "elsa_serve_worker_ejections_total{worker=%q} %d\n", addr, m.workerEjections[addr])
		}
		fmt.Fprintf(cw, "# HELP elsa_serve_worker_readmissions_total Ejected workers re-admitted after recovery.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_worker_readmissions_total counter\n")
		for _, addr := range sortedKeys(m.workerReadmissions) {
			fmt.Fprintf(cw, "elsa_serve_worker_readmissions_total{worker=%q} %d\n", addr, m.workerReadmissions[addr])
		}
		fmt.Fprintf(cw, "# HELP elsa_serve_remote_ops_total Attend ops dispatched to remote workers over the wire.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_remote_ops_total counter\n")
		for _, addr := range sortedKeys(m.remoteOps) {
			fmt.Fprintf(cw, "elsa_serve_remote_ops_total{worker=%q} %d\n", addr, m.remoteOps[addr])
		}
		fmt.Fprintf(cw, "# HELP elsa_serve_reroutes_total Ops re-executed on a sibling shard after a worker failure.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_reroutes_total counter\n")
		fmt.Fprintf(cw, "elsa_serve_reroutes_total %d\n", m.reroutes)
	}
	if len(m.memberStates) > 0 {
		fmt.Fprintf(cw, "# HELP elsa_serve_cluster_members Fleet members by membership state.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_cluster_members gauge\n")
		for _, state := range sortedKeys(m.memberStates) {
			fmt.Fprintf(cw, "elsa_serve_cluster_members{state=%q} %d\n", state, m.memberStates[state])
		}
		fmt.Fprintf(cw, "# HELP elsa_serve_cluster_version The membership table's current version.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_cluster_version gauge\n")
		fmt.Fprintf(cw, "elsa_serve_cluster_version %d\n", m.membershipVersion)
		fmt.Fprintf(cw, "# HELP elsa_serve_cluster_joins_total Join requests that created or revived a member.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_cluster_joins_total counter\n")
		fmt.Fprintf(cw, "elsa_serve_cluster_joins_total %d\n", m.clusterJoins)
		fmt.Fprintf(cw, "# HELP elsa_serve_cluster_heartbeats_total Join requests that refreshed an existing member.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_cluster_heartbeats_total counter\n")
		fmt.Fprintf(cw, "elsa_serve_cluster_heartbeats_total %d\n", m.clusterHeartbeats)
		fmt.Fprintf(cw, "# HELP elsa_serve_cluster_activated_total Members promoted joining → active.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_cluster_activated_total counter\n")
		fmt.Fprintf(cw, "elsa_serve_cluster_activated_total %d\n", m.membersActivated)
		fmt.Fprintf(cw, "# HELP elsa_serve_cluster_draining_total Members marked draining.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_cluster_draining_total counter\n")
		fmt.Fprintf(cw, "elsa_serve_cluster_draining_total %d\n", m.membersDraining)
		fmt.Fprintf(cw, "# HELP elsa_serve_cluster_expired_total Members expired to gone by missed heartbeats.\n")
		fmt.Fprintf(cw, "# TYPE elsa_serve_cluster_expired_total counter\n")
		fmt.Fprintf(cw, "elsa_serve_cluster_expired_total %d\n", m.membersExpired)
	}
	return cw.n, cw.err
}

func sortedIntKeys(m map[int]int64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// countingWriter tracks bytes written and the first error for WriteTo.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}
