package serve

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"elsa/serve/client"
)

// postOp wraps op in the v1 envelope, POSTs it and returns the status
// and the raw reply body.
func postOp(t *testing.T, ts *httptest.Server, path string, op any) (int, []byte) {
	t.Helper()
	body, err := json.Marshal(Envelope[any]{Op: &op})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(body))
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

// sameBits fails the test unless a and b hold the same float32 bit
// patterns row for row.
func sameBits(t *testing.T, what string, a, b [][]float32) {
	t.Helper()
	if len(a) != len(b) {
		t.Fatalf("%s: %d rows vs %d", what, len(a), len(b))
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s row %d: %d columns vs %d", what, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if math.Float32bits(a[i][j]) != math.Float32bits(b[i][j]) {
				t.Fatalf("%s[%d][%d]: %g vs %g differ in bits", what, i, j, a[i][j], b[i][j])
			}
		}
	}
}

func newWireServer(t *testing.T) *httptest.Server {
	t.Helper()
	srv := New(Config{})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return ts
}

// TestWireParityAttend sends one attend op as JSON arrays and packed, at
// p=0 and at a calibrated p: the replies must agree in every bit, and a
// packed request that asks for a JSON reply must answer byte for byte
// what the plain request answered.
func TestWireParityAttend(t *testing.T) {
	ts := newWireServer(t)
	rng := rand.New(rand.NewSource(testSeed))
	q, k, v := genOp(rng, 4, 24)
	for _, p := range []float64{0, 1} {
		plain := AttendRequest{Q: q, K: k, V: v, P: p, HeadDim: testDim, Seed: testSeed}
		code, plainBody := postOp(t, ts, "/v1/attend", plain)
		if code != http.StatusOK {
			t.Fatalf("p=%g plain: %d %s", p, code, plainBody)
		}

		packedIn := AttendRequest{QP: client.PackRows(q), KP: client.PackRows(k), VP: client.PackRows(v),
			P: p, HeadDim: testDim, Seed: testSeed}
		code, mixedBody := postOp(t, ts, "/v1/attend", packedIn)
		if code != http.StatusOK {
			t.Fatalf("p=%g packed in, JSON out: %d %s", p, code, mixedBody)
		}
		if !bytes.Equal(plainBody, mixedBody) {
			t.Errorf("p=%g: packed request answered differently:\nplain:  %s\npacked: %s", p, plainBody, mixedBody)
		}

		packedIn.Packed = true
		code, packedBody := postOp(t, ts, "/v1/attend", packedIn)
		if code != http.StatusOK {
			t.Fatalf("p=%g packed: %d %s", p, code, packedBody)
		}
		var a, b AttendResponse
		if err := json.Unmarshal(plainBody, &a); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(packedBody, &b); err != nil {
			t.Fatal(err)
		}
		if b.Context != nil || len(b.ContextPacked) != len(q) {
			t.Fatalf("p=%g: packed reply must carry only context_packed, got %s", p, packedBody)
		}
		ctx, err := client.UnpackRows(b.ContextPacked)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "context", a.Context, ctx)
		b.Context, b.ContextPacked = ctx, nil
		a.BatchSize, b.BatchSize = 0, 0
		if !bytes.Equal(mustJSON(t, a), mustJSON(t, b)) {
			t.Errorf("p=%g: replies differ beyond the context:\nplain:  %+v\npacked: %+v", p, a, b)
		}
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestWireParitySession appends the same tokens to two identical
// sessions, one as JSON arrays and one packed, then queries each in both
// forms: every reply must agree in every bit.
func TestWireParitySession(t *testing.T) {
	ts := newWireServer(t)
	rng := rand.New(rand.NewSource(testSeed))
	keys, values := make([][]float32, 40), make([][]float32, 40)
	for i := range keys {
		keys[i], values[i] = genVec(rng), genVec(rng)
	}
	q := genVec(rng)

	ids := make([]string, 2)
	for i, body := range []SessionAppendRequest{
		{Keys: keys, Values: values},
		{KP: client.PackRows(keys), VP: client.PackRows(values)},
	} {
		var created SessionCreateResponse
		code, raw := postOp(t, ts, "/v1/sessions", SessionCreateRequest{HeadDim: testDim, Seed: testSeed, P: 1})
		if code != http.StatusOK {
			t.Fatalf("create: %d %s", code, raw)
		}
		if err := json.Unmarshal(raw, &created); err != nil {
			t.Fatal(err)
		}
		ids[i] = created.ID
		code, raw = postOp(t, ts, "/v1/sessions/"+created.ID+"/append", body)
		if code != http.StatusOK || !bytes.Contains(raw, []byte(`"len":40`)) {
			t.Fatalf("append %d: %d %s", i, code, raw)
		}
	}

	// The first query calibrates each session's threshold lazily over the
	// same prefix, so the sessions end up with the same operating point.
	var replies [][]byte
	for _, id := range ids {
		for _, body := range []SessionQueryRequest{
			{Q: q},
			{QP: client.PackVec(q)},
			{QP: client.PackVec(q), Packed: true},
		} {
			code, raw := postOp(t, ts, "/v1/sessions/"+id+"/query", body)
			if code != http.StatusOK {
				t.Fatalf("query: %d %s", code, raw)
			}
			replies = append(replies, raw)
		}
	}
	var want SessionQueryResponse
	if err := json.Unmarshal(replies[0], &want); err != nil {
		t.Fatal(err)
	}
	want.BatchSize = 0
	for i, raw := range replies {
		var got SessionQueryResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if got.Context != nil || got.ContextPacked == "" {
				t.Fatalf("reply %d: packed query must carry only context_packed, got %s", i, raw)
			}
			ctx, err := client.UnpackVec(got.ContextPacked)
			if err != nil {
				t.Fatal(err)
			}
			got.Context, got.ContextPacked = ctx, ""
		}
		sameBits(t, "query context", [][]float32{want.Context}, [][]float32{got.Context})
		got.BatchSize = 0
		if !bytes.Equal(mustJSON(t, want), mustJSON(t, got)) {
			t.Errorf("reply %d differs from the plain reply:\nwant %s\ngot  %s", i, mustJSON(t, want), raw)
		}
	}
}

// TestPackedMalformedAnswers400 pins that every malformed packed input is
// a client error with a named reason, never a 5xx or a silent accept.
func TestPackedMalformedAnswers400(t *testing.T) {
	ts := newWireServer(t)
	row := func(n int) string { return client.PackVec(make([]float32, n)) }
	good := []string{row(testDim)}
	attend := []struct {
		name string
		op   AttendRequest
		want string
	}{
		{"bad base64", AttendRequest{QP: []string{"not base64!"}, KP: good, VP: good}, "qp: row 0"},
		{"length not a multiple of 4", AttendRequest{QP: good, KP: []string{"AAA="}, VP: good}, "not a multiple of 4"},
		{"ragged packed rows", AttendRequest{QP: []string{row(testDim), row(testDim - 1)}, KP: good, VP: good}, "ragged"},
		{"both q and qp", AttendRequest{Q: [][]float32{make([]float32, testDim)}, QP: good, KP: good, VP: good}, "mutually exclusive"},
		{"both v and vp", AttendRequest{QP: good, KP: good, VP: good, V: [][]float32{make([]float32, testDim)}}, "mutually exclusive"},
		{"empty packed matrix", AttendRequest{QP: []string{}, KP: good, VP: good}, "at least one row"},
	}
	for _, tc := range attend {
		t.Run("attend "+tc.name, func(t *testing.T) {
			code, raw := postOp(t, ts, "/v1/attend", tc.op)
			if code != http.StatusBadRequest || !strings.Contains(string(raw), tc.want) {
				t.Fatalf("status %d body %s, want 400 naming %q", code, raw, tc.want)
			}
		})
	}

	var created SessionCreateResponse
	code, raw := postOp(t, ts, "/v1/sessions", SessionCreateRequest{HeadDim: testDim})
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, raw)
	}
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}
	session := []struct {
		name, path string
		op         any
		want       string
	}{
		{"append bad base64", "append", SessionAppendRequest{KP: []string{"%%%%"}, VP: good}, "kp: row 0"},
		{"append short value", "append", SessionAppendRequest{KP: good, VP: []string{"AAAAAAA="}}, "not a multiple of 4"},
		{"append both keys and kp", "append", SessionAppendRequest{Keys: [][]float32{make([]float32, testDim)}, KP: good, VP: good}, "mutually exclusive"},
		{"query bad base64", "query", SessionQueryRequest{QP: "###"}, "qp"},
		{"query both q and qp", "query", SessionQueryRequest{Q: make([]float32, testDim), QP: good[0]}, "mutually exclusive"},
	}
	for _, tc := range session {
		t.Run(tc.name, func(t *testing.T) {
			code, raw := postOp(t, ts, "/v1/sessions/"+created.ID+"/"+tc.path, tc.op)
			if code != http.StatusBadRequest || !strings.Contains(string(raw), tc.want) {
				t.Fatalf("status %d body %s, want 400 naming %q", code, raw, tc.want)
			}
		})
	}
}

// TestPackVecKeepsSpecialBits pins that the packed codec is a bit copy:
// NaN payloads, both infinities, -0 and subnormals come back unchanged.
func TestPackVecKeepsSpecialBits(t *testing.T) {
	bits := []uint32{
		0x7fc00000, // quiet NaN
		0x7fa00001, // signalling NaN with a payload
		0xffc00123, // negative NaN with a payload
		0x7f800000, // +Inf
		0xff800000, // -Inf
		0x80000000, // -0
		0x00000001, // smallest subnormal
		0x3f800000, // 1
	}
	v := make([]float32, len(bits))
	for i, b := range bits {
		v[i] = math.Float32frombits(b)
	}
	got, err := client.UnpackVec(client.PackVec(v))
	if err != nil {
		t.Fatal(err)
	}
	for i, b := range bits {
		if math.Float32bits(got[i]) != b {
			t.Errorf("element %d: %#08x came back as %#08x", i, b, math.Float32bits(got[i]))
		}
	}
}

// TestNonFiniteOutputAnswers422 feeds inputs whose scores overflow float32
// (|q|, |k| ~ 1e20). Whatever the engine makes of them, a reply never
// carries a NaN or an infinity: a non-finite context answers 422 on both
// wire forms, and a finite one round-trips as usual.
func TestNonFiniteOutputAnswers422(t *testing.T) {
	ts := newWireServer(t)
	huge := func(rows int, sign float32) [][]float32 {
		m := make([][]float32, rows)
		for i := range m {
			m[i] = make([]float32, testDim)
			for j := range m[i] {
				m[i][j] = sign * 1e20
			}
		}
		return m
	}
	q, k, v := huge(2, 1), append(huge(2, 1), huge(2, -1)...), huge(4, 1)
	for _, packed := range []bool{false, true} {
		op := AttendRequest{Q: q, K: k, V: v, HeadDim: testDim, Packed: packed}
		if packed {
			op = AttendRequest{QP: client.PackRows(q), KP: client.PackRows(k), VP: client.PackRows(v),
				HeadDim: testDim, Packed: true}
		}
		code, raw := postOp(t, ts, "/v1/attend", op)
		if code != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "not finite") {
			t.Errorf("attend packed=%v: status %d body %s, want 422 naming the non-finite output", packed, code, raw)
		}
	}

	var created SessionCreateResponse
	code, raw := postOp(t, ts, "/v1/sessions", SessionCreateRequest{HeadDim: testDim})
	if code != http.StatusOK {
		t.Fatalf("create: %d %s", code, raw)
	}
	if err := json.Unmarshal(raw, &created); err != nil {
		t.Fatal(err)
	}
	code, raw = postOp(t, ts, "/v1/sessions/"+created.ID+"/append", SessionAppendRequest{Keys: k, Values: v})
	if code != http.StatusOK {
		t.Fatalf("append: %d %s", code, raw)
	}
	for _, op := range []SessionQueryRequest{{Q: q[0]}, {QP: client.PackVec(q[0]), Packed: true}} {
		code, raw = postOp(t, ts, "/v1/sessions/"+created.ID+"/query", op)
		if code != http.StatusUnprocessableEntity || !strings.Contains(string(raw), "not finite") {
			t.Errorf("query packed=%v: status %d body %s, want 422", op.Packed, code, raw)
		}
	}
	code, raw = postOp(t, ts, "/v1/sessions/step", SessionStepRequest{
		Queries: []SessionStepQuery{{ID: created.ID, QPacked: client.PackVec(q[0])}}, Packed: true})
	if code != http.StatusOK || !strings.Contains(string(raw), "not finite") {
		t.Errorf("step: status %d body %s, want a per-entry non-finite error", code, raw)
	}
}

// TestWriteJSONEncodeFailureAnswers500 pins that a reply which cannot be
// encoded answers 500 with an error body, and reports 500 to the caller
// that feeds the request metrics, instead of a 200 with an empty body.
func TestWriteJSONEncodeFailureAnswers500(t *testing.T) {
	w := httptest.NewRecorder()
	code := writeJSON(w, http.StatusOK, map[string]float64{"x": math.NaN()})
	if code != http.StatusInternalServerError || w.Code != http.StatusInternalServerError {
		t.Fatalf("returned %d, wrote %d; want 500 for both", code, w.Code)
	}
	var e errorResponse
	if err := json.Unmarshal(w.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "encoding reply") {
		t.Fatalf("500 body %q must name the encode failure (%v)", w.Body.String(), err)
	}

	w = httptest.NewRecorder()
	if code := writeJSON(w, http.StatusCreated, map[string]int{"x": 1}); code != http.StatusCreated || w.Code != http.StatusCreated {
		t.Fatalf("returned %d, wrote %d; want 201", code, w.Code)
	}
	if got := w.Body.String(); got != "{\"x\":1}\n" {
		t.Fatalf("body %q, want the encoded value and a newline", got)
	}
}

// FuzzUnpackAttendRows drives the server-side packed matrix decode. A
// request is accepted only when every row is valid standard base64 of a
// whole number of float32s and the shapes validate; an accepted matrix
// re-packs to the same bits; nothing panics.
func FuzzUnpackAttendRows(f *testing.F) {
	one := client.PackVec([]float32{1})
	two := client.PackVec([]float32{1, 2})
	f.Add(one, one, one, one, false)              // well formed
	f.Add(two, two, two, two, false)              // well formed, d = 2
	f.Add("not base64!", one, one, one, false)    // bad base64
	f.Add(one, "AAA=", one, one, false)           // 2 bytes: not a multiple of 4
	f.Add(one, two, one, one, false)              // ragged packed q rows
	f.Add(one, one, one, one, true)               // both q and qp
	f.Add("", "", "", "", false)                  // empty rows
	f.Add("AAAAAAA=", one, "AAAA", "====", false) // 5 bytes, bad padding
	f.Fuzz(func(t *testing.T, q0, q1, k0, v0 string, plainQ bool) {
		req := AttendRequest{QP: []string{q0, q1}, KP: []string{k0}, VP: []string{v0}}
		if plainQ {
			req.Q = [][]float32{{1}}
		}
		err := req.unpack()
		wellFormed := !plainQ
		for _, s := range []string{q0, q1, k0, v0} {
			b, derr := base64.StdEncoding.DecodeString(s)
			wellFormed = wellFormed && derr == nil && len(b)%4 == 0
		}
		if (err == nil) != wellFormed {
			t.Fatalf("unpack(%q, %q, %q, %q, plain=%v) = %v, well-formed %v", q0, q1, k0, v0, plainQ, err, wellFormed)
		}
		if err != nil {
			return
		}
		if req.QP != nil || req.KP != nil || req.VP != nil {
			t.Fatal("unpack left packed rows behind")
		}
		if req.validate() != nil {
			return
		}
		for i, s := range []string{q0, q1} {
			repacked, err := client.UnpackVec(client.PackVec(req.Q[i]))
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "q", [][]float32{req.Q[i]}, [][]float32{repacked})
			if b, _ := base64.StdEncoding.DecodeString(s); len(b) != 4*len(req.Q[i]) {
				t.Fatalf("row %d: %d bytes became %d floats", i, len(b), len(req.Q[i]))
			}
		}
	})
}

// BenchmarkDecodeAttendBody measures the server's decode of one 256×64
// attend body, as JSON arrays and packed: the envelope parse plus, for
// the packed form, the row unpack.
func BenchmarkDecodeAttendBody(b *testing.B) {
	rng := rand.New(rand.NewSource(testSeed))
	m := func() [][]float32 {
		rows := make([][]float32, 256)
		for i := range rows {
			rows[i] = make([]float32, 64)
			for j := range rows[i] {
				rows[i][j] = float32(rng.NormFloat64())
			}
		}
		return rows
	}
	q, k, v := m(), m(), m()
	for _, tc := range []struct {
		name string
		op   AttendRequest
	}{
		{"json", AttendRequest{Q: q, K: k, V: v}},
		{"packed", AttendRequest{QP: client.PackRows(q), KP: client.PackRows(k), VP: client.PackRows(v), Packed: true}},
	} {
		op := any(tc.op)
		body, err := json.Marshal(Envelope[any]{Op: &op})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(tc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				r := httptest.NewRequest("POST", "/v1/attend", bytes.NewReader(body))
				var req AttendRequest
				if _, ok := decodeEnvelope(httptest.NewRecorder(), r, 1<<26, false, &req); !ok {
					b.Fatal("decode rejected the body")
				}
				if err := req.unpack(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
