package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync"
	"time"
)

// memNet is an in-memory network of named HTTP hosts. Every host is a real
// http.Server accepting on a pipeListener, and every dial hands the server
// one end of a net.Pipe, so requests run all of net/http's client and server
// framing (keep-alive, chunked bodies, flushes) and skip only the kernel's
// loopback path.
type memNet struct {
	mu      sync.Mutex
	hosts   map[string]*pipeListener
	servers []*http.Server
	wg      sync.WaitGroup
}

func newMemNet() *memNet { return &memNet{hosts: make(map[string]*pipeListener)} }

// serve starts an http.Server for handler at "http://<host>".
func (n *memNet) serve(host string, handler http.Handler) string {
	l := &pipeListener{conns: make(chan net.Conn), done: make(chan struct{}), host: host}
	srv := &http.Server{Handler: handler, ReadHeaderTimeout: time.Minute}
	n.mu.Lock()
	n.hosts[host+":80"] = l
	n.servers = append(n.servers, srv)
	n.mu.Unlock()
	n.wg.Add(1)
	go func() {
		defer n.wg.Done()
		_ = srv.Serve(l) // returns http.ErrServerClosed after shutdown
	}()
	return "http://" + host
}

// dial connects to a host's listener.
func (n *memNet) dial(ctx context.Context, _, addr string) (net.Conn, error) {
	n.mu.Lock()
	l := n.hosts[addr]
	n.mu.Unlock()
	if l == nil {
		return nil, fmt.Errorf("memnet: no host %s", addr)
	}
	c, s := net.Pipe()
	select {
	case l.conns <- s:
		return c, nil
	case <-l.done:
	case <-ctx.Done():
	}
	c.Close()
	s.Close()
	return nil, fmt.Errorf("memnet: dial %s: listener closed", addr)
}

// client returns an HTTP client with its own transport: one keep-alive
// connection per host, reused across calls.
func (n *memNet) client(wrap func(http.RoundTripper) http.RoundTripper) (*http.Client, *http.Transport) {
	tr := &http.Transport{
		DialContext:         n.dial,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
		IdleConnTimeout:     time.Minute,
	}
	var rt http.RoundTripper = tr
	if wrap != nil {
		rt = wrap(tr)
	}
	return &http.Client{Transport: rt, Timeout: 2 * time.Minute}, tr
}

// close shuts every server down and waits for their serve loops to exit.
func (n *memNet) close() {
	n.mu.Lock()
	servers := n.servers
	n.servers = nil
	n.mu.Unlock()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for _, s := range servers {
		if err := s.Shutdown(ctx); err != nil {
			s.Close()
		}
	}
	n.wg.Wait()
}

// pipeListener is a net.Listener fed by memNet.dial.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
	host  string
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr(l.host) }

type pipeAddr string

func (a pipeAddr) Network() string { return "memnet" }
func (a pipeAddr) String() string  { return string(a) }
