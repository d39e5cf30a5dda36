package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"deltacoloring/internal/service"
)

// instance is one in-process deltaserved on a loopback port, its handler
// wrapped by a measuring middleware.
type instance struct {
	svc  *service.Server
	srv  *http.Server
	url  string
	mw   *middleware
	done chan struct{}
}

func startInstance(cfg service.Config, name string, tr *tracer) (*instance, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	svc := service.New(cfg)
	mw := &middleware{next: svc.Handler(), name: name, tr: tr}
	in := &instance{
		svc:  svc,
		srv:  &http.Server{Handler: mw, ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		mw:   mw,
		done: make(chan struct{}),
	}
	go func() {
		defer close(in.done)
		_ = in.srv.Serve(ln) // returns http.ErrServerClosed after stop
	}()
	return in, nil
}

// stop closes the listener, waits for in-flight requests and the serve
// goroutine, then drains the service (jobs, graph apply loops, WALs).
func (in *instance) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = in.srv.Shutdown(ctx) // a timeout here leaves nothing worth reporting
	<-in.done
	_ = in.svc.Shutdown(ctx)
}

// middleware times the wrapped handler and counts its request and response
// bytes while enabled; disabled, it only forwards.
type middleware struct {
	next   http.Handler
	name   string
	tr     *tracer
	on     atomic.Bool
	parent atomic.Int64 // span parent of the calls it records

	mu                sync.Mutex
	nanos             int64
	inBytes, outBytes int64
	end               time.Time
}

func (m *middleware) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if !m.on.Load() {
		m.next.ServeHTTP(w, r)
		return
	}
	t0 := time.Now()
	body := &countReader{r: r.Body}
	r.Body = body
	cw := &countWriter{ResponseWriter: w}
	m.next.ServeHTTP(cw, r)
	t1 := time.Now()
	m.mu.Lock()
	m.nanos += t1.Sub(t0).Nanoseconds()
	m.inBytes += body.n
	m.outBytes += cw.n
	m.end = t1
	m.mu.Unlock()
	m.tr.add(0, int(m.parent.Load()), m.name+" "+r.Method+" "+r.URL.Path, t0, t1,
		map[string]float64{"in_bytes": float64(body.n), "out_bytes": float64(cw.n)})
}

// totals reads the counters: busy time and wire bytes.
func (m *middleware) totals() (busy time.Duration, wire int64) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return time.Duration(m.nanos), m.inBytes + m.outBytes
}

// lastEnd is when the most recent call returned.
func (m *middleware) lastEnd() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.end
}

type countReader struct {
	r io.ReadCloser
	n int64
}

func (c *countReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countReader) Close() error { return c.r.Close() }

type countWriter struct {
	http.ResponseWriter
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.ResponseWriter.Write(p)
	c.n += int64(n)
	return n, err
}

// client is the workload's single caller. Its transport caps connections at
// two per host, the box's core count.
type client struct {
	base string
	hc   *http.Client
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     2,
		MaxIdleConnsPerHost: 2,
		DisableCompression:  true,
	}}}
}

// do sends one request and reads the whole response body.
func (c *client) do(method, path string, body []byte) (int, []byte, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, c.base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	return resp.StatusCode, data, err
}

// expect turns a non-matching status into an error carrying the body.
func expect(status, want int, body []byte) error {
	if status == want {
		return nil
	}
	msg := string(body)
	if len(msg) > 300 {
		msg = msg[:300]
	}
	return fmt.Errorf("HTTP %d (want %d): %s", status, want, strings.TrimSpace(msg))
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// scrape reads the server's Prometheus text into series -> value.
func (c *client) scrape() (map[string]float64, error) {
	status, body, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return nil, err
	}
	if err := expect(status, http.StatusOK, body); err != nil {
		return nil, err
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			return nil, errors.New("bad metrics line: " + line)
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			return nil, fmt.Errorf("bad metrics line %q: %w", line, err)
		}
		out[line[:i]] = v
	}
	return out, sc.Err()
}

// deltas accumulates the change of every series between two scrapes.
type deltas map[string]float64

func (d deltas) add(before, after map[string]float64) {
	for k, v := range after {
		d[k] += v - before[k]
	}
}
