#!/usr/bin/env bash
# CI gate: vet, formatting, build, the race-enabled test suite, the
# zero-allocation hot-path assertions, and the perf trajectory check.
# The serving scheduler is concurrent by design — the -race run is the
# contract that it stays race-clean.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== go vet =="
# -tests=true (the default, stated explicitly) also vets *_test.go, which
# covers the benchmark files.
go vet -tests=true ./...

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== serving subsystem under -race =="
# The dispatcher, replica pool, threshold registry, session registry and
# the cross-host fleet path (remote workers, health probes, reroute, the
# servetest fault-injection suite) are the most concurrent code in the
# tree; run the whole subtree explicitly with -count=1 so the race
# detector can never be satisfied from cache.
go test -race -count=1 ./internal/serve/...

echo "== session migration churn under -race =="
# The portable-session-state paths — export/import round trips, idle
# spill + rehydrate, drain-time relocation, worker-loss recovery from
# the shadow mirror — race session gates against the registry lock and
# the recovery retry; run the suite explicitly so a -run filter above
# can never silently drop it, with -count=1 to defeat caching.
go test -race -count=1 -run 'TestSessionExportImport|TestSessionSpill|TestMemberDrainRelocates|TestWorkerLossRecovers|TestZeroPinnedDrain' ./internal/serve/

echo "== unified dispatch loop under -race =="
# One loop per replica set runs one-shot ops and decode steps: run its
# pacing, alternation, reroute, decode-placement, eviction-reclaim and
# metrics-surface tests and the tests that hold a shard busy in place of
# a batching window explicitly, with -count=1 so a -run filter above can
# never satisfy them from cache.
go test -race -count=1 -run 'TestPerShardPacingCoalesces|TestMixedKindsShareOneLoop|TestLoopAlternatesKinds|TestEvictedSetsAreReclaimed|TestEvictedSetAnswersQueued|TestMetricsFamiliesGolden|TestRequestTimeoutAnswers504|TestBackpressure429|TestGracefulCloseDrainsPending|TestMixedThresholdsShareDispatch|TestDeadlineShedSkipsQueueWait|TestWeightedDequeueDefersBackground|TestMaxBatchDispatchesEarly|TestDecodeContinuousMatchesSerial|TestRerouteKeepsOneBatchPerShard|TestDecodeWaitsForBusyLocalLane|TestWorkerDeathMidLoadReroutes|Test5xxBurstRerouted|TestFrontendMixesLocalAndRemote' ./internal/serve/

echo "== autoscale loop under -race =="
# The closed autoscale loop races the controller (polling the versioned
# cluster view and driving drain/rebalance) against live traffic, session
# migration and the batched shadow-mirror flusher; run the policy package
# and the fake-fleet e2e explicitly so a -run filter above can never
# silently drop them, with -count=1 to defeat caching.
go test -race -count=1 ./internal/serve/autoscale/
go test -race -count=1 -run 'TestAutoscale' ./internal/serve/

echo "== exact linear-scan differential suite under -race =="
# The linear-scan backend is the oracle every fidelity bound leans on, so
# its own correctness gate runs explicitly: the seeded fuzz corpus (the
# f.Add cases — degenerate softmax regimes included — run as regular
# tests), the streaming ≡ batch equivalence suite across the cold-
# watermark demotion boundary, and the cross-oracle agreement checks in
# the experiments package. -count=1 so a -run filter above can never
# satisfy this from cache.
go test -race -count=1 \
    -run 'FuzzLinearScanMatchesScores|TestLinearScan' ./internal/attention/
go test -race -count=1 \
    -run 'TestAblationOracleAgreement|TestFilteringKeepsFidelityOnClusteredData' \
    ./internal/experiments/ ./internal/attention/
go test -race -count=1 -run 'TestAttendBackendSelection|TestServerDefaultExactBackend|TestSessionBackend|TestSessionStepBackendPerEntry|TestMigrationPreservesBackend' ./internal/serve/

echo "== exact kernel under -race =="
# Every p=0 op on a float engine runs the blocked exact kernel, so its
# gate runs explicitly: the float64-oracle bound at every n mod 4 tail and
# the seeded fuzz corpus (overflow regime included), the zero-alloc
# workspace and stream paths, p=0 bit-identity across one-shot, batch,
# stream (hot and cold) and remote-offloaded session queries, the
# zero-norm-key regression, and the typed non-finite error from the
# engine up to the 422. -count=1 so a -run filter above can never satisfy
# this from cache.
go test -race -count=1 \
    -run 'TestExactKernel|FuzzExactKernel|TestAttendExactWithZeroAlloc|TestStreamExactMatchesOneShot|TestNonFiniteOutputIsTypedError' \
    ./internal/attention/
go test -race -count=1 -run 'TestP0|TestNonFiniteIsTypedError' .
go test -race -count=1 \
    -run 'TestAttendZeroNormKeysP0|TestP0BitIdenticalAcrossServeEntryPoints|TestNonFiniteOpFailsAlone|TestNonFiniteOutputAnswers422|TestRemoteNonFiniteAnswers422' \
    ./internal/serve/

echo "== packed wire codec under -race =="
# Vectors ride the wire packed on every op, so the packed codec is on the
# path of every request: the seeded fuzz corpus of the server-side packed
# matrix decode (malformed base64, lengths that are not a multiple of 4,
# ragged rows, both forms at once), packed/JSON wire parity down to the
# bit, the non-finite 422 guard locally and across a worker hop, the
# buffered reply writer, and the client's keep-alive contract. -count=1
# so a -run filter above can never satisfy this from cache.
go test -race -count=1 \
    -run 'FuzzUnpackAttendRows|TestWireParity|TestPackedMalformedAnswers400|TestPackVecKeepsSpecialBits|TestNonFiniteOutputAnswers422|TestRemoteNonFiniteAnswers422|TestWriteJSONEncodeFailureAnswers500' \
    ./internal/serve/
go test -race -count=1 -run 'TestKeepAliveReusesOneConnection' ./serve/client/

echo "== zero-alloc hot path =="
# The alloc assertions are the steady-state performance contract; run them
# explicitly so they can never be skipped under -short, with -count=1 to
# defeat test caching.
go test -count=1 -run 'ZeroAlloc' ./internal/attention/ ./internal/serve/

echo "== perf trajectory (committed files) =="
# Gate the committed trajectory itself: compare the two newest BENCH_*.json
# files against each other without re-measuring, so a PR that commits a
# regressed snapshot is caught even on noisy hardware. Warns by default;
# PERF_STRICT=1 makes it fail the build.
# BENCH_*_serving.json files hold serving-layer rows, not the engine ns/op
# shape the compare gate reads; keep them out of both globs.
mapfile -t bench_files < <(ls -1 BENCH_*.json 2>/dev/null | grep -v '_serving\.json' | sort -V)
if [ "${#bench_files[@]}" -ge 2 ]; then
    prev="${bench_files[-2]}"
    newest="${bench_files[-1]}"
    echo "comparing committed $newest vs $prev"
    if go run ./cmd/elsabench -experiment bench \
        -compare "$newest" -baseline "$prev"; then
        :
    else
        if [ "${PERF_STRICT:-0}" = "1" ]; then
            echo "committed perf trajectory regressed (PERF_STRICT=1): failing" >&2
            exit 1
        fi
        echo "WARNING: committed $newest regressed >15% vs $prev (set PERF_STRICT=1 to fail)" >&2
    fi
else
    echo "fewer than two committed BENCH_*.json files; skipping"
fi

echo "== serving perf trajectory (committed files) =="
# Same idea for the serving-layer trajectory: compare the two newest
# committed BENCH_*_serving.json snapshots on ops/s per {replicas,
# concurrency} point, on decode mean_batch per {sessions, mode} point,
# and on the exact-backend family per {workload, backend} point — the
# memory-ceiling row (linear-scan bytes/op must stay under the scores
# backend's), the pinned differential bound, and streaming tokens/s.
# Families absent from either snapshot skip their slice of the gate, so
# snapshots predating decode batching / autoscale / the exact backends
# still compare on what they have. Warns by default; PERF_STRICT=1
# fails the build.
mapfile -t serving_files < <(ls -1 BENCH_*_serving.json 2>/dev/null | sort -V)
if [ "${#serving_files[@]}" -ge 2 ]; then
    prev="${serving_files[-2]}"
    newest="${serving_files[-1]}"
    echo "comparing committed $newest vs $prev"
    if go run ./cmd/elsabench -experiment serve \
        -compare "$newest" -baseline "$prev"; then
        :
    else
        if [ "${PERF_STRICT:-0}" = "1" ]; then
            echo "committed serving trajectory regressed (PERF_STRICT=1): failing" >&2
            exit 1
        fi
        echo "WARNING: committed $newest dropped >15% ops/s or decode mean_batch vs $prev (set PERF_STRICT=1 to fail)" >&2
    fi
else
    echo "fewer than two committed BENCH_*_serving.json files; skipping"
fi

echo "== perf trajectory (fresh run) =="
# Compare ns/op against the newest committed BENCH_*.json. Measurements on
# shared CI machines are noisy, so a >15% regression warns by default; set
# PERF_STRICT=1 to make it fail the build.
baseline=$(ls -1 BENCH_*.json 2>/dev/null | grep -v '_serving\.json' | sort -V | tail -n 1 || true)
if [ -n "$baseline" ]; then
    echo "baseline: $baseline"
    perf_json=$(mktemp /tmp/elsabench.XXXXXX.json)
    if go run ./cmd/elsabench -experiment bench -json "$perf_json" \
        -baseline "$baseline"; then
        :
    else
        if [ "${PERF_STRICT:-0}" = "1" ]; then
            echo "perf regression (PERF_STRICT=1): failing" >&2
            rm -f "$perf_json"
            exit 1
        fi
        echo "WARNING: ns/op regressed >15% vs $baseline (set PERF_STRICT=1 to fail)" >&2
    fi
    rm -f "$perf_json"
else
    echo "no committed BENCH_*.json baseline; skipping"
fi

echo "CI OK"
