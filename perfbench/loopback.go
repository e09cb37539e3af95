package main

import (
	"context"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// loopback serves a handler on 127.0.0.1 for the duration of a workload.
type loopback struct {
	URL  string
	srv  *http.Server
	done chan error
}

func serveLoopback(h http.Handler) (*loopback, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	lb := &loopback{URL: "http://" + ln.Addr().String(), srv: &http.Server{Handler: h}, done: make(chan error, 1)}
	go func() { lb.done <- lb.srv.Serve(ln) }()
	return lb, nil
}

// close stops the server and waits for its serve loop to return.
func (lb *loopback) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if lb.srv.Shutdown(ctx) != nil {
		lb.srv.Close()
	}
	<-lb.done
}

// newHTTPClient returns a client whose transport keeps at most one
// connection to the server, so each client is one connection.
func newHTTPClient() *http.Client { return &http.Client{Transport: oneConn()} }

func oneConn() *http.Transport {
	return &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
}

// wireMeter is the client-side RoundTripper layer: it counts the response
// bytes the client reads and times each request from send until its body
// is fully read or closed.
type wireMeter struct {
	bytes atomic.Int64
	mu    sync.Mutex
	times []time.Duration
}

// client returns a one-connection client metered by m.
func (m *wireMeter) client() *http.Client {
	return &http.Client{Transport: meteredTransport{m: m, base: oneConn()}}
}

type meteredTransport struct {
	m    *wireMeter
	base http.RoundTripper
}

func (t meteredTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	t0 := time.Now()
	resp, err := t.base.RoundTrip(r)
	if err != nil {
		t.m.record(time.Since(t0))
		return nil, err
	}
	resp.Body = &meteredBody{ReadCloser: resp.Body, m: t.m, t0: t0}
	return resp, nil
}

func (m *wireMeter) record(d time.Duration) {
	m.mu.Lock()
	m.times = append(m.times, d)
	m.mu.Unlock()
}

// take returns and clears the byte count and request times so far.
func (m *wireMeter) take() (int64, []time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	t := m.times
	m.times = nil
	return m.bytes.Swap(0), t
}

type meteredBody struct {
	io.ReadCloser
	m    *wireMeter
	t0   time.Time
	once sync.Once
}

func (b *meteredBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.m.bytes.Add(int64(n))
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *meteredBody) Close() error {
	b.finish()
	return b.ReadCloser.Close()
}

func (b *meteredBody) finish() { b.once.Do(func() { b.m.record(time.Since(b.t0)) }) }

// handlerTimer wraps an http.Handler and records each request's service
// time by URL path, and a span per request when traced.
type handlerTimer struct {
	next http.Handler
	tr   *tracer
	mu   sync.Mutex
	by   map[string][]time.Duration
}

func newHandlerTimer(next http.Handler, tr *tracer) *handlerTimer {
	return &handlerTimer{next: next, tr: tr, by: map[string][]time.Duration{}}
}

func (h *handlerTimer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	sp := h.tr.root("net.server" + r.URL.Path)
	t0 := time.Now()
	h.next.ServeHTTP(w, r)
	d := time.Since(t0)
	sp.end()
	h.mu.Lock()
	h.by[r.URL.Path] = append(h.by[r.URL.Path], d)
	h.mu.Unlock()
}

// take returns and clears the recorded service times of one path.
func (h *handlerTimer) take(path string) []time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	d := h.by[path]
	delete(h.by, path)
	return d
}
