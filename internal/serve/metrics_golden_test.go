package serve

// Golden test for the metric families /v1/metrics exposes: autoscale
// controllers, dashboards and the benchmark harness read these names, so
// a refactor of the serving internals must not add, drop or rename one.
// Values are not pinned — only the set of # HELP / # TYPE family names
// after a representative mix of traffic.

import (
	"bytes"
	"encoding/json"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"testing"
)

// metricFamiliesGolden is the sorted family list a standalone server
// exposes after one attend, one session query and one shed.
var metricFamiliesGolden = []string{
	"elsa_serve_admission_total",
	"elsa_serve_batch_ops_total",
	"elsa_serve_batch_size",
	"elsa_serve_batches_total",
	"elsa_serve_calibrations_total",
	"elsa_serve_candidate_fraction_count",
	"elsa_serve_candidate_fraction_sum",
	"elsa_serve_class_queue_depth",
	"elsa_serve_class_request_seconds",
	"elsa_serve_class_shed_rate",
	"elsa_serve_class_sheds_total",
	"elsa_serve_decode_batch_ops_total",
	"elsa_serve_decode_batch_size",
	"elsa_serve_decode_batches_total",
	"elsa_serve_decode_coalesced_total",
	"elsa_serve_engine_evictions_total",
	"elsa_serve_engines",
	"elsa_serve_mirror_flushes_total",
	"elsa_serve_mirror_pending",
	"elsa_serve_mirror_seconds_total",
	"elsa_serve_mirror_tokens_total",
	"elsa_serve_preempted_total",
	"elsa_serve_queue_depth",
	"elsa_serve_quota_clients",
	"elsa_serve_rejected_total",
	"elsa_serve_request_seconds",
	"elsa_serve_requests_total",
	"elsa_serve_session_evictions_total",
	"elsa_serve_session_queries_total",
	"elsa_serve_session_tokens_total",
	"elsa_serve_sessions",
	"elsa_serve_sessions_created_total",
	"elsa_serve_sessions_migrated_total",
	"elsa_serve_sessions_recovered_total",
	"elsa_serve_sessions_rehydrated_total",
	"elsa_serve_sessions_spilled_total",
	"elsa_serve_shard_batches_total",
	"elsa_serve_shard_depth",
	"elsa_serve_shard_ops_total",
	"elsa_serve_threshold_corrupt_total",
	"elsa_serve_threshold_evictions_total",
	"elsa_serve_threshold_loads_total",
}

// postEnvelope posts one v1 envelope and returns the status and body.
func postEnvelope(t *testing.T, url string, env any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, raw
}

func TestMetricsFamiliesGolden(t *testing.T) {
	srv := New(Config{QuotaRPS: 0.001, QuotaBurst: 8})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	rng := rand.New(rand.NewSource(testSeed))
	q, k, v := genOp(rng, 2, 6)
	attend := AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Seed: testSeed}
	if code, raw := postEnvelope(t, ts.URL+"/v1/attend", Envelope[AttendRequest]{ClientID: "attend", Op: &attend}); code != http.StatusOK {
		t.Fatalf("attend: status %d: %s", code, raw)
	}

	create := SessionCreateRequest{HeadDim: testDim, Seed: testSeed}
	code, raw := postEnvelope(t, ts.URL+"/v1/sessions", Envelope[SessionCreateRequest]{ClientID: "session", Op: &create})
	if code != http.StatusOK {
		t.Fatalf("session create: status %d: %s", code, raw)
	}
	var created SessionCreateResponse
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}
	base := ts.URL + "/v1/sessions/" + created.ID
	appendOp := SessionAppendRequest{Keys: k, Values: v}
	if code, raw := postEnvelope(t, base+"/append", Envelope[SessionAppendRequest]{Op: &appendOp}); code != http.StatusOK {
		t.Fatalf("session append: status %d: %s", code, raw)
	}
	query := SessionQueryRequest{Q: q[0]}
	if code, raw := postEnvelope(t, base+"/query", Envelope[SessionQueryRequest]{Op: &query}); code != http.StatusOK {
		t.Fatalf("session query: status %d: %s", code, raw)
	}

	// One client past its burst: the first refusal is the shed.
	shed := false
	for i := 0; i < 16 && !shed; i++ {
		code, raw := postEnvelope(t, ts.URL+"/v1/attend", Envelope[AttendRequest]{ClientID: "flood", Op: &attend})
		switch code {
		case http.StatusOK:
		case http.StatusTooManyRequests:
			shed = true
		default:
			t.Fatalf("flood attend %d: status %d: %s", i, code, raw)
		}
	}
	if !shed {
		t.Fatal("flooding client was never shed")
	}

	resp, err := http.Get(ts.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, line := range strings.Split(string(text), "\n") {
		fields := strings.Fields(line)
		if len(fields) >= 3 && fields[0] == "#" && (fields[1] == "HELP" || fields[1] == "TYPE") {
			names[fields[2]] = true
		}
	}
	got := make([]string, 0, len(names))
	for name := range names {
		got = append(got, name)
	}
	sort.Strings(got)
	if strings.Join(got, "\n") != strings.Join(metricFamiliesGolden, "\n") {
		t.Errorf("metric families changed:\n got  %v\n want %v", got, metricFamiliesGolden)
	}
}
