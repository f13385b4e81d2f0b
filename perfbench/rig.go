package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"elsa/internal/serve"
	"elsa/serve/client"
)

// rig is one serve.Server behind a loopback HTTP listener and the client
// that drives it. With a tracer, the handler and the transport are
// wrapped to record spans; without one they are the program's own.
type rig struct {
	srv   *serve.Server
	hs    *http.Server
	done  chan error
	tr    *http.Transport
	tt    *tracingTransport
	cl    *client.Client
	dials atomic.Int64
}

func startRig(cfg serve.Config, conns int, t *tracer) (*rig, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listen: %w", err)
	}
	r := &rig{srv: serve.New(cfg), done: make(chan error, 1)}
	var h http.Handler = r.srv
	if t != nil {
		h = tracingHandler{inner: r.srv, t: t}
	}
	r.hs = &http.Server{Handler: h}
	go func() { r.done <- r.hs.Serve(ln) }()

	dialer := &net.Dialer{}
	r.tr = &http.Transport{
		MaxConnsPerHost:     conns,
		MaxIdleConnsPerHost: conns,
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			r.dials.Add(1)
			return dialer.DialContext(ctx, network, addr)
		},
	}
	var rt http.RoundTripper = r.tr
	if t != nil {
		r.tt = &tracingTransport{inner: r.tr, t: t}
		rt = r.tt
	}
	r.cl = client.New("http://"+ln.Addr().String(), client.WithHTTPClient(&http.Client{Transport: rt}))
	return r, nil
}

// close stops the listener, waits for the serve goroutine and handlers to
// end, then drains the server.
func (r *rig) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := r.hs.Shutdown(ctx)
	if serr := <-r.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	r.tr.CloseIdleConnections()
	r.srv.Close()
	return err
}
