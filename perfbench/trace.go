package main

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Times are nanoseconds since
// the tracer started. Spans of one request share Req; Parent is the span
// that caused this one (0 for a root).
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so untraced runs pay one nil check per boundary.
type tracer struct {
	t0    time.Time
	ids   atomic.Uint64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

func (t *tracer) newID() uint64 { return t.ids.Add(1) }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanKey carries the enclosing span through a context, so the transport
// wrapper can parent its span and tag the request.
type spanKey struct{}

type spanRef struct{ req, id uint64 }

// begin opens a span named name under the span carried by ctx (a new
// request when ctx carries none) and returns the child context and the
// function that closes the span. On a nil tracer both are no-ops.
func (t *tracer) begin(ctx context.Context, name string) (context.Context, func()) {
	if t == nil {
		return ctx, func() {}
	}
	parent, ok := ctx.Value(spanKey{}).(spanRef)
	if !ok {
		parent = spanRef{req: t.newID()}
	}
	s := span{ID: t.newID(), Parent: parent.id, Req: parent.req, Name: name, Start: t.now()}
	return context.WithValue(ctx, spanKey{}, spanRef{req: s.Req, id: s.ID}), func() {
		s.End = t.now()
		t.record(s)
	}
}

// spanHeader links a client-side span to the server-side handler span. It
// is set and read only by the benchmark's wrappers; the program never
// sees a meaning in it.
const spanHeader = "X-Perfbench-Span"

// tracingTransport times each round trip from sending the request to
// having read the whole reply body, so the client's JSON decode of the
// reply falls outside it, and counts request bytes.
type tracingTransport struct {
	inner    http.RoundTripper
	t        *tracer
	reqBytes atomic.Int64
	reqCount atomic.Int64
}

func (tt *tracingTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	parent, ok := r.Context().Value(spanKey{}).(spanRef)
	if !ok {
		return tt.inner.RoundTrip(r)
	}
	s := span{ID: tt.t.newID(), Parent: parent.id, Req: parent.req, Name: "http", Start: tt.t.now()}
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, fmt.Sprintf("%d/%d", s.Req, s.ID))
	tt.reqBytes.Add(r.ContentLength)
	tt.reqCount.Add(1)
	resp, err := tt.inner.RoundTrip(r)
	if err == nil {
		body, rerr := io.ReadAll(resp.Body)
		resp.Body.Close()
		if rerr != nil {
			err = fmt.Errorf("reading reply: %w", rerr)
			resp = nil
		} else {
			resp.Body = io.NopCloser(bytes.NewReader(body))
		}
	}
	s.End = tt.t.now()
	tt.t.record(s)
	return resp, err
}

// tracingHandler wraps the server's ServeHTTP: a request carrying
// spanHeader gets a "serve.handler" span, and a "serve.body_read" child
// spanning the handler's reads of the request body.
type tracingHandler struct {
	inner http.Handler
	t     *tracer
}

func (h tracingHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	req, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
	if !ok {
		h.inner.ServeHTTP(w, r)
		return
	}
	s := span{ID: h.t.newID(), Parent: parent, Req: req, Name: "serve.handler", Start: h.t.now()}
	tb := &timedBody{rc: r.Body, t: h.t}
	r.Body = tb
	h.inner.ServeHTTP(w, r)
	s.End = h.t.now()
	h.t.record(s)
	if tb.first != 0 {
		h.t.record(span{ID: h.t.newID(), Parent: s.ID, Req: req, Name: "serve.body_read", Start: tb.first, End: tb.last})
	}
}

func parseSpanHeader(v string) (req, id uint64, ok bool) {
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.ParseUint(a, 10, 64)
	id, err2 := strconv.ParseUint(b, 10, 64)
	return req, id, err1 == nil && err2 == nil
}

// timedBody records when the handler first and last read the body. A
// handler reads its body from one goroutine, so no locking is needed.
type timedBody struct {
	rc          io.ReadCloser
	t           *tracer
	first, last int64
}

func (b *timedBody) Read(p []byte) (int, error) {
	if b.first == 0 {
		b.first = b.t.now()
	}
	n, err := b.rc.Read(p)
	b.last = b.t.now()
	return n, err
}

func (b *timedBody) Close() error { return b.rc.Close() }

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children are counted once, and a
// child is clipped to its parent's interval).
func selfTimes(spans []span) map[uint64]int64 {
	children := make(map[uint64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered := int64(0)
		cur := s.Start // end of the covered prefix so far
		for _, k := range kids {
			lo, hi := max(k.Start, cur), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = s.End - s.Start - covered
	}
	return self
}

// layerTimes summarises spans by name: mean duration and mean self time
// in milliseconds, and the span count.
type layerTime struct {
	N              int
	MeanMs, SelfMs float64
}

func layerTimes(spans []span) map[string]layerTime {
	self := selfTimes(spans)
	out := make(map[string]layerTime)
	for _, s := range spans {
		lt := out[s.Name]
		lt.N++
		lt.MeanMs += float64(s.End-s.Start) / 1e6
		lt.SelfMs += float64(self[s.ID]) / 1e6
		out[s.Name] = lt
	}
	for name, lt := range out {
		lt.MeanMs /= float64(lt.N)
		lt.SelfMs /= float64(lt.N)
		out[name] = lt
	}
	return out
}
