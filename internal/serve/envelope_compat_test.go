package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"reflect"
	"strings"
	"testing"
	"time"
)

// The golden bodies below are pinned literals, not round-tripped through
// json.Marshal: the bare pre-envelope wire format is a compatibility
// contract with deployed clients, and these tests exist to break loudly if
// a field rename or type change on any POST payload would strand them.
//
// Since the envelope sunset, the bare format is opt-in: the golden
// behavior now carries a compat switch. With legacy compat on (the
// -compat-legacy elsaserve flag), the bare bodies must decode exactly as
// they always did; with it off (the default), they must be rejected with
// a 400 that tells the client how to migrate.

// decodeVia runs one body through decodeEnvelope exactly as the handlers
// do — legacy honours the CompatLegacy switch — and returns the resolved
// meta.
func decodeVia[T any](t *testing.T, body string, headers map[string]string, legacy bool, payload *T) requestMeta {
	t.Helper()
	r := httptest.NewRequest("POST", "/v1/test", strings.NewReader(body))
	for k, v := range headers {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	meta, ok := decodeEnvelope(w, r, 1<<20, legacy, payload)
	if !ok {
		t.Fatalf("decodeEnvelope rejected %q: %s", body, w.Body.String())
	}
	return meta
}

// rejectVia runs one body through decodeEnvelope expecting rejection and
// returns the error body written.
func rejectVia[T any](t *testing.T, body string, legacy bool, payload *T) string {
	t.Helper()
	r := httptest.NewRequest("POST", "/v1/test", strings.NewReader(body))
	w := httptest.NewRecorder()
	if _, ok := decodeEnvelope(w, r, 1<<20, legacy, payload); ok {
		t.Fatalf("decodeEnvelope accepted %q, want rejection", body)
	}
	if w.Code != 400 {
		t.Fatalf("rejection status %d, want 400", w.Code)
	}
	return w.Body.String()
}

// goldenCase is one pinned bare body with its payload type bound:
// decode and reject run it through decodeVia / rejectVia into a fresh
// payload of that type.
type goldenCase struct {
	name   string
	bare   string // pinned legacy golden body
	decode func(t *testing.T, body string, legacy bool) (any, requestMeta)
	reject func(t *testing.T, body string, legacy bool) string
}

func golden[T any](name, bare string) goldenCase {
	return goldenCase{
		name: name,
		bare: bare,
		decode: func(t *testing.T, body string, legacy bool) (any, requestMeta) {
			t.Helper()
			p := new(T)
			return p, decodeVia(t, body, nil, legacy, p)
		},
		reject: func(t *testing.T, body string, legacy bool) string {
			t.Helper()
			return rejectVia(t, body, legacy, new(T))
		},
	}
}

var envelopeGolden = []goldenCase{
	golden[AttendRequest]("attend",
		`{"q":[[1,0]],"k":[[0.5,0.5],[1,0]],"v":[[1,2],[3,4]],"p":0.4,"head_dim":2,"hash_bits":8,"seed":9,"quantized":true}`),
	golden[AttendRequest]("attend explicit threshold",
		`{"q":[[1,0]],"k":[[1,0]],"v":[[1,2]],"p":0.3,"t":-0.25}`),
	golden[SessionCreateRequest]("session create",
		`{"head_dim":16,"hash_bits":12,"seed":3,"quantized":true,"p":0.5,"capacity":128}`),
	golden[SessionAppendRequest]("session append single",
		`{"key":[1,0,0.5],"value":[2,1,0]}`),
	golden[SessionAppendRequest]("session append batch",
		`{"keys":[[1,0],[0,1]],"values":[[2,1],[1,2]]}`),
	golden[SessionQueryRequest]("session query",
		`{"q":[0.25,0.75],"t":-0.125}`),
}

// TestEnvelopeBareCompat pins, for every POST endpoint payload, that with
// legacy compat ON a bare legacy body and the same payload wrapped in a
// v1 envelope decode to deeply equal structs — and that the bare form
// resolves to the legacy admission defaults (anonymous client,
// interactive class, no deadline).
func TestEnvelopeBareCompat(t *testing.T) {
	for _, tc := range envelopeGolden {
		t.Run(tc.name, func(t *testing.T) {
			bare, meta := tc.decode(t, tc.bare, true)
			if meta.clientID != "" || meta.class != ClassInteractive || meta.deadline != 0 {
				t.Errorf("bare body must resolve to legacy defaults, got %+v", meta)
			}

			envBody := fmt.Sprintf(`{"client_id":"tenant-a","priority":"batch","deadline_ms":250,"op":%s}`, tc.bare)
			wrapped, emeta := tc.decode(t, envBody, true)
			if !reflect.DeepEqual(bare, wrapped) {
				t.Errorf("enveloped op decoded differently from bare body:\nbare:    %+v\nwrapped: %+v", bare, wrapped)
			}
			if emeta.clientID != "tenant-a" || emeta.class != ClassBatch || emeta.deadline != 250*time.Millisecond {
				t.Errorf("envelope meta not resolved: %+v", emeta)
			}
		})
	}
}

// TestEnvelopeBareSunset pins the flag-off half of the contract: every
// golden bare body is rejected with a 400 carrying the migration hint,
// while the same payload in a v1 envelope still decodes identically.
func TestEnvelopeBareSunset(t *testing.T) {
	for _, tc := range envelopeGolden {
		t.Run(tc.name, func(t *testing.T) {
			errBody := tc.reject(t, tc.bare, false)
			if !strings.Contains(errBody, "-compat-legacy") || !strings.Contains(errBody, "envelope") {
				t.Errorf("bare rejection must carry the migration hint, got %s", errBody)
			}

			viaCompat, _ := tc.decode(t, tc.bare, true)
			envBody := fmt.Sprintf(`{"op":%s}`, tc.bare)
			wrapped, meta := tc.decode(t, envBody, false)
			if !reflect.DeepEqual(viaCompat, wrapped) {
				t.Errorf("enveloped decode drifted from the golden bare decode:\ncompat:  %+v\nwrapped: %+v", viaCompat, wrapped)
			}
			if meta.clientID != "" || meta.class != ClassInteractive || meta.deadline != 0 {
				t.Errorf("minimal envelope must resolve to defaults, got %+v", meta)
			}
		})
	}

	// Malformed JSON stays a plain parse error on both settings — the
	// migration hint is only for well-formed bodies missing the envelope.
	errBody := rejectVia(t, `{"q":`, false, &SessionQueryRequest{})
	if !strings.Contains(errBody, "invalid JSON body") {
		t.Errorf("malformed body must be a parse error, got %s", errBody)
	}
	errBody = rejectVia(t, `{"q":`, true, &SessionQueryRequest{})
	if !strings.Contains(errBody, "invalid JSON body") {
		t.Errorf("malformed body must be a parse error under compat, got %s", errBody)
	}
}

// TestEnvelopeHeaderFallback pins the precedence rules: envelope fields
// win, headers fill the gaps for clients that cannot change their body.
func TestEnvelopeHeaderFallback(t *testing.T) {
	headers := map[string]string{"X-Elsa-Client": "hdr-client", "X-Elsa-Priority": "background"}

	var req SessionQueryRequest
	meta := decodeVia(t, `{"q":[1,0]}`, headers, true, &req)
	if meta.clientID != "hdr-client" || meta.class != ClassBackground {
		t.Errorf("bare body must take headers: %+v", meta)
	}

	meta = decodeVia(t, `{"client_id":"body-client","priority":"batch","op":{"q":[1,0]}}`, headers, false, &req)
	if meta.clientID != "body-client" || meta.class != ClassBatch {
		t.Errorf("envelope fields must win over headers: %+v", meta)
	}

	// Mixed: envelope names the client, header supplies the priority.
	meta = decodeVia(t, `{"client_id":"body-client","op":{"q":[1,0]}}`, headers, false, &req)
	if meta.clientID != "body-client" || meta.class != ClassBackground {
		t.Errorf("headers must fill unset envelope fields: %+v", meta)
	}
}

// TestEnvelopeAttendByteIdentical runs the same exact (p=0) op through
// /v1/attend bare and enveloped against one compat-enabled server: the
// response bodies must match byte for byte, the end-to-end form of the
// decode guarantee. Against a default (sunset) server, the bare body must
// come back 400 with the migration hint while the enveloped one still
// serves.
func TestEnvelopeAttendByteIdentical(t *testing.T) {
	bare := []byte(`{"q":[[1,0,0,0,0,0,0,0,0,0,0,0,0,0,0,1]],` +
		`"k":[[0.5,0,0,0,0,0,0,0,0,0,0,0,0,0,0,0.5],[0,1,0,0,0,0,0,0,0,0,0,0,0,0,0,0]],` +
		`"v":[[1,2,0,0,0,0,0,0,0,0,0,0,0,0,0,0],[3,4,0,0,0,0,0,0,0,0,0,0,0,0,0,0]],"seed":7}`)
	env := append([]byte(`{"client_id":"golden","op":`), bare...)
	env = append(env, '}')

	doPost := func(t *testing.T, ts *httptest.Server, body []byte) (int, []byte) {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/v1/attend", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf bytes.Buffer
		if _, err := buf.ReadFrom(resp.Body); err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, buf.Bytes()
	}

	t.Run("compat on", func(t *testing.T) {
		srv := New(Config{CompatLegacy: true})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()

		code, bareResp := doPost(t, ts, bare)
		if code != 200 {
			t.Fatalf("bare status %d: %s", code, bareResp)
		}
		code, envResp := doPost(t, ts, env)
		if code != 200 {
			t.Fatalf("env status %d: %s", code, envResp)
		}
		if !bytes.Equal(bareResp, envResp) {
			t.Errorf("bare and enveloped responses differ:\nbare: %s\nenv:  %s", bareResp, envResp)
		}
		var parsed AttendResponse
		if err := json.Unmarshal(bareResp, &parsed); err != nil {
			t.Fatalf("response is not an AttendResponse: %v", err)
		}
		if len(parsed.Context) != 1 {
			t.Errorf("want 1 context row, got %d", len(parsed.Context))
		}
	})

	t.Run("sunset default", func(t *testing.T) {
		srv := New(Config{})
		defer srv.Close()
		ts := httptest.NewServer(srv)
		defer ts.Close()

		code, body := doPost(t, ts, bare)
		if code != 400 {
			t.Fatalf("bare body on a sunset server: status %d (%s), want 400", code, body)
		}
		if !bytes.Contains(body, []byte("-compat-legacy")) {
			t.Errorf("400 body must carry the migration hint, got %s", body)
		}
		code, envResp := doPost(t, ts, env)
		if code != 200 {
			t.Fatalf("enveloped op on a sunset server: status %d (%s), want 200", code, envResp)
		}
	})
}
