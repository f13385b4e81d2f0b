package client_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"

	"elsa"
	"elsa/internal/serve"
	"elsa/serve/client"
)

// TestAttendRoundTrip drives the real serving stack through the client
// and checks the result matches a direct engine call.
func TestAttendRoundTrip(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const dim = 16
	q := [][]float32{make([]float32, dim)}
	k := [][]float32{make([]float32, dim), make([]float32, dim)}
	v := [][]float32{make([]float32, dim), make([]float32, dim)}
	q[0][0], k[0][0], k[1][1] = 1, 1, 1
	v[0][0], v[1][1] = 2, 3

	eng, err := elsa.New(elsa.Options{HeadDim: dim})
	if err != nil {
		t.Fatal(err)
	}
	want, err := eng.Attend(q, k, v, elsa.Exact())
	if err != nil {
		t.Fatal(err)
	}

	c := client.New(ts.URL, client.WithClientID("roundtrip"))
	got, err := c.Attend(context.Background(), q, k, v, client.AttendOptions{HeadDim: dim})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Context {
		for j := range want.Context[i] {
			if got.Context[i][j] != want.Context[i][j] {
				t.Fatalf("context[%d][%d] = %g, want %g", i, j, got.Context[i][j], want.Context[i][j])
			}
		}
	}
	if got.BatchSize < 1 {
		t.Errorf("batch size %d, want >= 1", got.BatchSize)
	}
}

// TestSessionLifecycle exercises the session handle end to end.
func TestSessionLifecycle(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	const dim = 16
	c := client.New(ts.URL, client.WithClientID("sess"))
	s, err := c.NewSession(context.Background(), client.SessionOptions{HeadDim: dim})
	if err != nil {
		t.Fatal(err)
	}
	if s.Threshold == nil || s.Threshold.T != elsa.Exact().T {
		t.Errorf("p=0 session should resolve the exact threshold at create, got %+v", s.Threshold)
	}
	key := make([]float32, dim)
	key[0] = 1
	if n, err := s.Append(context.Background(), key, key); err != nil || n != 1 {
		t.Fatalf("append: n=%d err=%v", n, err)
	}
	res, err := s.Query(context.Background(), key, elsa.Overrides{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Len != 1 || len(res.Context) != dim {
		t.Fatalf("query: len=%d context=%d", res.Len, len(res.Context))
	}
	if err := s.Close(context.Background()); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Query(context.Background(), key, elsa.Overrides{}); err == nil {
		t.Fatal("query after close should fail")
	}
}

// TestRetriesHonorRetryAfter verifies the retry loop obeys the server's
// backoff hint and that the envelope carries identity, priority, and the
// context deadline.
func TestRetriesHonorRetryAfter(t *testing.T) {
	var calls atomic.Int64
	var sawEnvelope atomic.Bool
	var firstArrival, secondArrival time.Time
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var env struct {
			ClientID   string          `json:"client_id"`
			Priority   string          `json:"priority"`
			DeadlineMS int64           `json:"deadline_ms"`
			Op         json.RawMessage `json:"op"`
		}
		if err := json.NewDecoder(r.Body).Decode(&env); err == nil &&
			env.ClientID == "retrier" && env.Priority == "background" &&
			env.DeadlineMS > 0 && env.Op != nil {
			sawEnvelope.Store(true)
		}
		switch calls.Add(1) {
		case 1:
			firstArrival = time.Now()
			w.Header().Set("Retry-After", "1")
			w.WriteHeader(http.StatusTooManyRequests)
			json.NewEncoder(w).Encode(map[string]string{"error": "throttled"}) //nolint:errcheck
		default:
			secondArrival = time.Now()
			json.NewEncoder(w).Encode(map[string]any{"context": [][]float32{{1}}}) //nolint:errcheck
		}
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	c := client.New(ts.URL, client.WithClientID("retrier"), client.WithPriority("background"), client.WithRetries(2))
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	q := [][]float32{{1}}
	if _, err := c.Attend(ctx, q, q, q, client.AttendOptions{}); err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("server saw %d calls, want 2 (one throttled, one retried)", got)
	}
	if !sawEnvelope.Load() {
		t.Error("request envelope missing client_id/priority/deadline_ms/op")
	}
	if gap := secondArrival.Sub(firstArrival); gap < time.Second {
		t.Errorf("retry arrived %v after the 429; must honour Retry-After: 1", gap)
	}
}

// TestNoRetryWithoutOptIn verifies a throttled request surfaces the
// client.APIError (with its RetryAfter hint) when retries are off.
func TestNoRetryWithoutOptIn(t *testing.T) {
	h := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "7")
		w.WriteHeader(http.StatusTooManyRequests)
		json.NewEncoder(w).Encode(map[string]string{"error": "throttled"}) //nolint:errcheck
	})
	ts := httptest.NewServer(h)
	defer ts.Close()

	q := [][]float32{{1}}
	_, err := client.New(ts.URL).Attend(context.Background(), q, q, q, client.AttendOptions{})
	apiErr, ok := err.(*client.APIError)
	if !ok {
		t.Fatalf("want *client.APIError, got %v", err)
	}
	if apiErr.Status != http.StatusTooManyRequests || apiErr.RetryAfter != 7*time.Second {
		t.Errorf("client.APIError = %+v, want status 429 with 7s Retry-After", apiErr)
	}
}

// TestClusterParsesPreSchemaServers pins the wire compat promise: a
// reply from a pre-schema_version server (legacy top-level members +
// queue/shed fields, no signals or targets blocks) normalizes into the
// same typed ClusterInfo consumers get from a v1 server.
func TestClusterParsesPreSchemaServers(t *testing.T) {
	legacy := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/v1/cluster" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{
			"version": 4,
			"members": [
				{"addr": "http://w1", "state": "active", "weight": 2, "pinned_sessions": 3},
				{"addr": "http://w2", "state": "draining", "pinned_sessions": 1}
			],
			"queue_depth_by_class": {"interactive": 5, "batch": 2},
			"sheds_by_class": {"interactive": 7}
		}`))
	}))
	defer legacy.Close()

	info, err := client.New(legacy.URL).Cluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.SchemaVersion != 0 {
		t.Fatalf("schema version %d from a pre-schema server, want 0", info.SchemaVersion)
	}
	if info.Version != 4 {
		t.Fatalf("membership version %d, want 4", info.Version)
	}
	if len(info.Members) != 2 || info.Members[0].Addr != "http://w1" ||
		info.Members[0].Weight != 2 || info.Members[0].PinnedSessions != 3 ||
		info.Members[1].State != "draining" {
		t.Fatalf("members not normalized: %+v", info.Members)
	}
	if info.Signals.QueueDepth != 7 {
		t.Fatalf("queue depth %d, want 7 (summed from legacy per-class fields)", info.Signals.QueueDepth)
	}
	if info.Signals.QueueDepthByClass["batch"] != 2 || info.Signals.ShedsByClass["interactive"] != 7 {
		t.Fatalf("legacy per-class fields not carried into signals: %+v", info.Signals)
	}
	if len(info.Signals.ShedRateByClass) != 0 {
		t.Fatalf("pre-schema server cannot report windowed rates, got %+v", info.Signals.ShedRateByClass)
	}
}

// TestClusterTypedViewFromV1Server pins the v1 path end to end against a
// real frontend: schema_version 1, signals block present, targets
// normalized into Members.
func TestClusterTypedViewFromV1Server(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	info, err := client.New(ts.URL).Cluster(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if info.SchemaVersion != 1 {
		t.Fatalf("schema version %d, want 1", info.SchemaVersion)
	}
	if info.Signals.QueueDepthByClass == nil || info.Signals.ShedRateByClass == nil {
		t.Fatalf("v1 signals block incomplete: %+v", info.Signals)
	}
}

// TestKeepAliveReusesOneConnection pins that the client reads every reply
// to EOF, success or error, so sequential calls share one connection:
// 50 Attend calls, every fifth of them answered 400, open exactly one.
// The server's replies carry a Content-Length, which lets the transport
// see EOF early; the padded run also serves them chunked with trailing
// whitespace, so the JSON decoder stops well before EOF and only the
// client's own drain keeps the connection.
func TestKeepAliveReusesOneConnection(t *testing.T) {
	srv := serve.New(serve.Config{})
	defer srv.Close()
	padded := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		srv.ServeHTTP(unsizedWriter{w}, r)
		w.Write(bytes.Repeat([]byte(" "), 16<<10)) //nolint:errcheck
	})
	for _, tc := range []struct {
		name string
		h    http.Handler
	}{{"server", srv}, {"padded chunked replies", padded}} {
		t.Run(tc.name, func(t *testing.T) {
			ts := httptest.NewUnstartedServer(tc.h)
			var opened atomic.Int64
			ts.Config.ConnState = func(_ net.Conn, state http.ConnState) {
				if state == http.StateNew {
					opened.Add(1)
				}
			}
			ts.Start()
			defer ts.Close()

			const dim = 16
			row := func(i int) []float32 {
				r := make([]float32, dim)
				r[i%dim] = 1
				return r
			}
			q := [][]float32{row(0)}
			k := [][]float32{row(0), row(1), row(2)}
			ragged := [][]float32{row(0), row(1)[:dim-1]}
			c := client.New(ts.URL, client.WithHTTPClient(ts.Client()))
			for i := 0; i < 50; i++ {
				if i%5 == 4 {
					_, err := c.Attend(context.Background(), q, ragged, ragged, client.AttendOptions{HeadDim: dim})
					var apiErr *client.APIError
					if !errors.As(err, &apiErr) || apiErr.Status != http.StatusBadRequest {
						t.Fatalf("call %d: want a 400 APIError for ragged keys, got %v", i, err)
					}
					continue
				}
				if _, err := c.Attend(context.Background(), q, k, k, client.AttendOptions{HeadDim: dim}); err != nil {
					t.Fatalf("call %d: %v", i, err)
				}
			}
			if n := opened.Load(); n != 1 {
				t.Fatalf("50 sequential calls opened %d connections, want 1", n)
			}
		})
	}
}

// unsizedWriter drops the Content-Length a handler sets, so the reply is
// sent chunked.
type unsizedWriter struct{ http.ResponseWriter }

func (w unsizedWriter) WriteHeader(code int) {
	w.Header().Del("Content-Length")
	w.ResponseWriter.WriteHeader(code)
}
