package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"reflect"
	"sync"
	"time"

	"repro/internal/service"
	"repro/internal/service/client"
)

// loadClient is one closed-loop caller with its own keep-alive connection.
type loadClient struct {
	id  int
	api *client.Client
	tr  *http.Transport
	rt  *meterRT
	t   *tracer
	// replay, in traced runs, replays each request's layer calls after it.
	replay *replayer
}

func newLoadClient(id int, n *memNet, entry string, t *tracer) *loadClient {
	c := &loadClient{id: id, t: t}
	hc, tr := n.client(func(next http.RoundTripper) http.RoundTripper {
		c.rt = &meterRT{next: next, t: t}
		return c.rt
	})
	c.api, c.tr = &client.Client{BaseURL: entry, HTTPClient: hc}, tr
	return c
}

// reply is one answer kept for the checks that run after the window.
type reply struct {
	job   job
	raw   []byte // /compile: the artifact; /session: the NDJSON stream
	slots int
}

// sample is one timed request: when it completed, counted from the start
// of the window, its latency, and its time to the first phase.
type sample struct {
	end, lat, first time.Duration
}

// window is what one client recorded over the timed window.
type window struct {
	start     time.Time
	samples   []sample
	attempted int
	failed    int
	errs      []string
	// first reply per group, for the checks; unique replies are spilled to
	// a file, since a window holds an unbounded number of them.
	groups map[int]*reply
	counts map[int]int
	spill  *spill
	// session phases after the first: each one's compile may start
	// before the previous chunk is flushed.
	laterPhases int
	reqBytes    int64
	respBytes   int64
}

func (w *window) fail(err error) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, err.Error())
	}
}

// run drives client c through its timed sequence until the deadline, or for
// exactly fixed requests when fixed > 0.
func (c *loadClient) run(ctx context.Context, b *bench, start, deadline time.Time, fixed int, sp *spill) *window {
	w := &window{start: start, groups: make(map[int]*reply), counts: make(map[int]int), spill: sp}
	c.rt.reqBytes, c.rt.respBytes = 0, 0
	for i := 0; fixed > 0 && i < fixed || fixed <= 0 && time.Now().Before(deadline); i++ {
		c.send(ctx, b, i, w, true)
	}
	w.reqBytes, w.respBytes = c.rt.reqBytes, c.rt.respBytes
	return w
}

// finish sends the untimed requests that follow the window. On the
// /compile workloads client 0 alone sends passJobs, which completes the
// fixed set program_slots averages over and leaves the daemons' caches
// holding a seed-determined set for the heap read. On session-store each
// client continues its own sequence up to setLen, so fresh steps still
// reach the store in seed order.
func (d *deployment) finish(ctx context.Context, b *bench, wins []*window) {
	for _, j := range b.passJobs() {
		d.clients[0].do(ctx, -1, j, wins[0], false)
	}
	_ = d.eachClient(func(c *loadClient) error {
		w := wins[c.id]
		for i := w.attempted; i < b.setLen(c.id); i++ {
			c.send(ctx, b, i, w, false)
		}
		return nil
	})
}

// send sends request i of the client's sequence; only timed requests
// record latencies.
func (c *loadClient) send(ctx context.Context, b *bench, i int, w *window, timed bool) {
	j, err := b.job(c.id, i)
	if err != nil {
		w.attempted++
		w.fail(err)
		return
	}
	c.do(ctx, i, j, w, timed)
}

// do sends one request and records its latency. Checks that need only a
// byte comparison run here; verification runs after the window.
func (c *loadClient) do(ctx context.Context, i int, j job, w *window, timed bool) {
	w.attempted++
	var rid, cspan, start int64
	if c.t != nil {
		rid = c.t.newRequest(j.doc.Name)
		cspan, start = c.t.begin()
		c.rt.req, c.rt.parent = rid, cspan
	}
	q := tracedReq{id: rid, job: j}
	var slots, later int
	var lat, first time.Duration
	var err error
	t0 := time.Now()
	if j.session {
		c.rt.capture = &bytes.Buffer{}
		q.sess, err = c.api.Session(ctx, j.doc, client.Options{}, func(service.SessionChunk) {
			if first == 0 {
				first = time.Since(t0)
			}
		})
		lat = time.Since(t0)
		q.raw, c.rt.capture = c.rt.capture.Bytes(), nil
		if err == nil {
			slots, later = q.sess.Trailer.TotalSlots, len(q.sess.Phases)-1
		}
	} else {
		q.env, q.res, err = c.api.Compile(ctx, j.doc, client.Options{})
		lat = time.Since(t0)
		first = lat
		if err == nil {
			q.raw, slots = q.env.Result, q.res.TotalSlots
		}
	}
	if c.t != nil {
		c.t.end(rid, cspan, 0, spanClient, start)
		c.rt.req = 0
		c.t.finish(j.doc.Name)
	}
	if err == nil {
		err = w.keep(&reply{job: j, raw: q.raw, slots: slots}, c.id, i)
	}
	if err == nil && c.replay != nil {
		err = c.replay.replay(q)
	}
	if err != nil {
		w.fail(err)
		return
	}
	if timed {
		w.samples = append(w.samples, sample{end: time.Since(w.start), lat: lat, first: first})
		w.laterPhases += later
	}
}

// keep files a reply for the after-window checks: the first reply of each
// group is kept whole and every later one must match it byte for byte.
func (w *window) keep(r *reply, client, index int) error {
	if r.job.group < 0 {
		return w.spill.add(client, index, r)
	}
	w.counts[r.job.group]++
	prev, ok := w.groups[r.job.group]
	if !ok {
		w.groups[r.job.group] = r
		return nil
	}
	if !sameReply(prev, r) {
		return fmt.Errorf("%s: reply differs from an earlier reply for the same request", r.job.doc.Name)
	}
	return nil
}

// sameReply compares two replies to one request. Cold-compile artifacts
// echo their fresh program name and are compared without it; a session's
// trailer is compared without its pipelined-compile count, which records
// timing rather than the plan.
func sameReply(a, b *reply) bool {
	if !a.job.session {
		if a.job.named {
			return bytes.Equal(stripProgram(a.raw), stripProgram(b.raw))
		}
		return bytes.Equal(a.raw, b.raw)
	}
	ab, at := splitTrailer(a.raw)
	bb, bt := splitTrailer(b.raw)
	if !bytes.Equal(ab, bb) {
		return false
	}
	at.PipelinedCompiles, bt.PipelinedCompiles = 0, 0
	return reflect.DeepEqual(at, bt)
}

// stripProgram drops the leading "program" member of an artifact.
func stripProgram(raw []byte) []byte {
	const prefix = `{"program":"`
	if !bytes.HasPrefix(raw, []byte(prefix)) {
		return raw
	}
	end := bytes.IndexByte(raw[len(prefix):], '"')
	if end < 0 {
		return raw
	}
	return raw[len(prefix)+end:]
}

// splitTrailer splits a session stream into its header and phase lines and
// its decoded "done" trailer.
func splitTrailer(raw []byte) ([]byte, service.SessionChunk) {
	body := bytes.TrimRight(raw, "\n")
	cut := bytes.LastIndexByte(body, '\n') + 1
	var t service.SessionChunk
	_ = json.Unmarshal(body[cut:], &t) // a malformed trailer leaves t zero and compares unequal
	return body[:cut], t
}

// runWindow drives every client concurrently and collects their windows
// and the window's length. Unique replies go to sp.
func (d *deployment) runWindow(ctx context.Context, b *bench, dur time.Duration, fixed int, sp *spill) ([]*window, time.Duration) {
	start := time.Now()
	deadline := start.Add(dur)
	out := make([]*window, len(d.clients))
	var wg sync.WaitGroup
	for i, c := range d.clients {
		wg.Add(1)
		go func(i int, c *loadClient) {
			defer wg.Done()
			out[i] = c.run(ctx, b, start, deadline, fixed, sp)
		}(i, c)
	}
	wg.Wait()
	return out, time.Since(start)
}

// spill appends unique replies to a file during the window and reads them
// back for the checks after it.
type spill struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	off  int64
	refs []spillRef
}

// spillRef locates one reply: request index of client, its slots, and
// where its bytes are.
type spillRef struct {
	client, index int
	slots         int
	off, n        int64
}

func newSpill(path string) (*spill, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &spill{f: f, w: bufio.NewWriterSize(f, 1<<20)}, nil
}

func (s *spill) add(client, index int, r *reply) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, err := s.w.Write(r.raw); err != nil {
		return fmt.Errorf("spilling reply: %w", err)
	}
	s.refs = append(s.refs, spillRef{client: client, index: index, slots: r.slots, off: s.off, n: int64(len(r.raw))})
	s.off += int64(len(r.raw))
	return nil
}

// close removes the spill file.
func (s *spill) close() {
	s.f.Close()
	os.Remove(s.f.Name())
}

// each calls fn with every spilled reply's bytes.
func (s *spill) each(fn func(ref spillRef, raw []byte)) error {
	if err := s.w.Flush(); err != nil {
		return err
	}
	for _, ref := range s.refs {
		raw := make([]byte, ref.n)
		if _, err := s.f.ReadAt(raw, ref.off); err != nil {
			return fmt.Errorf("reading spilled reply: %w", err)
		}
		fn(ref, raw)
	}
	return nil
}

// meterRT wraps a client's transport: it counts request and response bytes,
// captures /session streams for the checks, and in traced runs records the
// transport span (until the response body is drained) and stamps the span
// on the request for the handler wrapper.
type meterRT struct {
	next      http.RoundTripper
	t         *tracer
	reqBytes  int64
	respBytes int64
	capture   *bytes.Buffer
	// req and parent are the traced request and its client span.
	req, parent int64
}

func (m *meterRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.ContentLength > 0 {
		m.reqBytes += r.ContentLength
	}
	var id, start int64
	req, parent := m.req, m.parent
	if m.t != nil && req != 0 {
		id, start = m.t.begin()
		r = r.Clone(r.Context())
		r.Header.Set(spanHeader, spanRef(req, id))
	}
	resp, err := m.next.RoundTrip(r)
	if err != nil {
		if id != 0 {
			m.t.end(req, id, parent, spanTransport, start)
		}
		return nil, err
	}
	capture := m.capture
	body := &tapBody{rc: resp.Body, onRead: func(p []byte) {
		m.respBytes += int64(len(p))
		if capture != nil {
			capture.Write(p)
		}
	}}
	if id != 0 {
		body.onEnd = func() { m.t.end(req, id, parent, spanTransport, start) }
	}
	resp.Body = body
	return resp, nil
}
