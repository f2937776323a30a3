// Package client is the Go client of the compile service (internal/service
// + cmd/ccserved): typed Compile/Recompile/Metrics calls over HTTP, plus a
// Verify helper that reconstructs the returned schedules and proves them
// conflict-free with schedule.Result.Validate — the same check the
// repository's own pipelines run on every schedule they produce.
package client

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/qos"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Client talks to one compile daemon.
type Client struct {
	// BaseURL is the daemon's root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient is the transport; nil means a client with a 30s timeout.
	HTTPClient *http.Client
}

// Options select per-request compile parameters; zero values use the
// daemon's configured defaults.
type Options struct {
	// Topology overrides the daemon's default network, e.g. "torus-8x8".
	Topology string
	// Scheduler overrides the scheduling algorithm, e.g. "coloring".
	Scheduler string
	// Tenant names the QoS class the request is billed to; empty means the
	// daemon's default class. Sent as the X-Ccomm-Tenant header.
	Tenant string
}

// HTTPError is a non-2xx reply, carrying the decoded error body and the
// Retry-After hint of a 429.
type HTTPError struct {
	Status     int
	Msg        string
	RetryAfter time.Duration
}

func (e *HTTPError) Error() string {
	return fmt.Sprintf("service: HTTP %d: %s", e.Status, e.Msg)
}

// IsOverloaded reports whether the daemon rejected the request under
// admission control (HTTP 429).
func (e *HTTPError) IsOverloaded() bool { return e.Status == http.StatusTooManyRequests }

// defaultHTTPClient is shared by every Client without an explicit transport,
// so keep-alive connections are reused across calls.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return defaultHTTPClient
}

// Compile posts a trace document to /compile.
func (c *Client) Compile(ctx context.Context, doc trace.Document, opt Options) (*service.Response, *service.Result, error) {
	return c.post(ctx, "/compile", doc, opt, nil)
}

// Recompile posts a trace document to /recompile with a fault mask.
func (c *Client) Recompile(ctx context.Context, doc trace.Document, mask service.FaultMask, opt Options) (*service.Response, *service.Result, error) {
	return c.post(ctx, "/recompile", doc, opt, &mask)
}

func (c *Client) post(ctx context.Context, path string, doc trace.Document, opt Options, mask *service.FaultMask) (*service.Response, *service.Result, error) {
	// Compact encoding: trace.Write's indentation is for humans reading
	// files; on the wire it only inflates the body the server has to scan.
	body := trace.AppendJSON(nil, doc)
	q := url.Values{}
	if opt.Topology != "" {
		q.Set("topology", opt.Topology)
	}
	if opt.Scheduler != "" {
		q.Set("alg", opt.Scheduler)
	}
	if mask != nil {
		if len(mask.Links) > 0 {
			q.Set("links", intList(mask.Links))
		}
		if len(mask.Nodes) > 0 {
			q.Set("nodes", intList(mask.Nodes))
		}
	}
	u := strings.TrimSuffix(c.BaseURL, "/") + path
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if opt.Tenant != "" {
		req.Header.Set(qos.TenantHeader, opt.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	data, err := readReply(resp)
	if err != nil {
		return nil, nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, nil, decodeError(resp, data)
	}
	// envelope.Result aliases data, which is therefore never reused.
	envelope, result, err := service.DecodeResponse(data)
	if err != nil {
		return nil, nil, err
	}
	return &envelope, &result, nil
}

// maxReply bounds a reply body.
const maxReply = 256 << 20

// readReply reads a reply body of at most maxReply bytes, in one
// allocation when the server sent its length.
func readReply(resp *http.Response) ([]byte, error) {
	var buf bytes.Buffer
	if n := resp.ContentLength; n > 0 && n <= maxReply {
		buf.Grow(int(n) + bytes.MinRead) // room for the read that reports EOF
	}
	_, err := buf.ReadFrom(io.LimitReader(resp.Body, maxReply))
	return buf.Bytes(), err
}

// SessionResult is a fully drained /session stream.
type SessionResult struct {
	// Header is the "session" chunk the stream opened with.
	Header service.SessionChunk
	// Phases holds one "phase" chunk per phase, in phase order.
	Phases []service.SessionChunk
	// Trailer is the closing "done" chunk with the iteration totals.
	Trailer service.SessionChunk
}

// Decisions tallies the per-phase keep/patch/recompile choices.
func (r *SessionResult) Decisions() map[string]int {
	out := make(map[string]int, 3)
	for _, ph := range r.Phases {
		out[ph.Decision]++
	}
	return out
}

// Session posts a trace document to /session and drains the NDJSON stream.
// onPhase, when non-nil, is called for every phase chunk as it arrives —
// before the stream has finished — which is how a caller observes the
// pipelining rather than just its result.
func (c *Client) Session(ctx context.Context, doc trace.Document, opt Options, onPhase func(service.SessionChunk)) (*SessionResult, error) {
	body := trace.AppendJSON(nil, doc)
	q := url.Values{}
	if opt.Topology != "" {
		q.Set("topology", opt.Topology)
	}
	if opt.Scheduler != "" {
		q.Set("alg", opt.Scheduler)
	}
	u := strings.TrimSuffix(c.BaseURL, "/") + "/session"
	if enc := q.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, u, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if opt.Tenant != "" {
		req.Header.Set(qos.TenantHeader, opt.Tenant)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		data, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return nil, decodeError(resp, data)
	}
	out := &SessionResult{}
	// The server writes one chunk a line. Each is decoded, and a phase
	// handed to onPhase, before the next line is read.
	lines := bufio.NewScanner(resp.Body)
	lines.Buffer(nil, maxReply)
	sawDone := false
	for lines.Scan() {
		line := lines.Bytes()
		if len(bytes.TrimLeft(line, " \t\r\n")) == 0 {
			continue // whitespace between values, as a JSON stream allows
		}
		chunk, err := service.DecodeSessionChunk(line)
		if err != nil {
			return nil, fmt.Errorf("service: decoding session stream: %w", err)
		}
		switch chunk.Type {
		case service.SessionChunkHeader:
			out.Header = chunk
		case service.SessionChunkPhase:
			out.Phases = append(out.Phases, chunk)
			if onPhase != nil {
				onPhase(chunk)
			}
		case service.SessionChunkDone:
			out.Trailer = chunk
			sawDone = true
		case service.SessionChunkError:
			return nil, fmt.Errorf("service: session failed: %s", chunk.Error)
		default:
			return nil, fmt.Errorf("service: unknown session chunk type %q", chunk.Type)
		}
	}
	if err := lines.Err(); err != nil {
		return nil, fmt.Errorf("service: reading session stream: %w", err)
	}
	if !sawDone {
		return nil, fmt.Errorf("service: session stream ended without a done chunk")
	}
	if len(out.Phases) != len(doc.Phases) {
		return nil, fmt.Errorf("service: session returned %d phases, trace has %d", len(out.Phases), len(doc.Phases))
	}
	return out, nil
}

// Cluster talks to a federation of compile daemons (internal/cluster):
// requests round-robin across the node list, and any reply that is the
// node's fault rather than the request's — a transport error, a 5xx from a
// draining or dying daemon, a 429 from a saturated one — retries against
// the next node. Because compilation is deterministic and keys are
// content-addressed, any node's answer is byte-identical, so failover
// needs no affinity or stickiness.
type Cluster struct {
	// Nodes are the member daemons' base URLs.
	Nodes []string
	// HTTPClient is the shared transport; nil means the package default.
	HTTPClient *http.Client

	next atomic.Uint32
}

// node builds the single-node client for index i.
func (c *Cluster) node(i int) *Client {
	return &Client{BaseURL: c.Nodes[i], HTTPClient: c.HTTPClient}
}

// retryable reports whether an error indicts the node rather than the
// request: transport failures, every 5xx (503 drain included), and 429
// overload — another replica may have capacity. A 4xx like 400/404/422 is
// the request's own problem and would fail identically everywhere.
func retryable(err error) bool {
	var he *HTTPError
	if errors.As(err, &he) {
		return he.Status >= 500 || he.Status == http.StatusTooManyRequests
	}
	return true // transport error: node unreachable
}

// Compile posts a trace document to the cluster, returning the reply and
// the node that served it. Nodes are tried in rotation order until one
// answers; only request-level errors (4xx) surface immediately.
func (c *Cluster) Compile(ctx context.Context, doc trace.Document, opt Options) (*service.Response, *service.Result, string, error) {
	var resp *service.Response
	var res *service.Result
	node, err := c.each(func(cl *Client) error {
		var e error
		resp, res, e = cl.Compile(ctx, doc, opt)
		return e
	})
	return resp, res, node, err
}

// CompileFrom is Compile with the rotation pinned: the attempt order
// starts at node i mod len(Nodes) instead of the shared round-robin
// counter. Drivers that pre-shard a request stream use it to make the
// request-to-node pairing deterministic (the shared counter is claimed in
// goroutine-scheduling order, which shuffles the pairing under
// concurrency); the retry-on-next-replica behavior is identical.
func (c *Cluster) CompileFrom(ctx context.Context, i int, doc trace.Document, opt Options) (*service.Response, *service.Result, string, error) {
	var resp *service.Response
	var res *service.Result
	node, err := c.eachFrom(i, func(cl *Client) error {
		var e error
		resp, res, e = cl.Compile(ctx, doc, opt)
		return e
	})
	return resp, res, node, err
}

// Recompile posts a trace document with a fault mask to the cluster.
func (c *Cluster) Recompile(ctx context.Context, doc trace.Document, mask service.FaultMask, opt Options) (*service.Response, *service.Result, string, error) {
	var resp *service.Response
	var res *service.Result
	node, err := c.each(func(cl *Client) error {
		var e error
		resp, res, e = cl.Recompile(ctx, doc, mask, opt)
		return e
	})
	return resp, res, node, err
}

// each runs fn against nodes in rotation order until it succeeds or every
// node has failed retryably. The returned node is the one that answered
// (on success) or the last one attempted (on failure, also named in the
// error so load drivers can attribute it).
func (c *Cluster) each(fn func(cl *Client) error) (string, error) {
	return c.eachFrom(int(c.next.Add(1)-1), fn)
}

func (c *Cluster) eachFrom(from int, fn func(cl *Client) error) (string, error) {
	if len(c.Nodes) == 0 {
		return "", fmt.Errorf("client: cluster has no nodes")
	}
	start := ((from % len(c.Nodes)) + len(c.Nodes)) % len(c.Nodes)
	var lastNode string
	var lastErr error
	for k := 0; k < len(c.Nodes); k++ {
		i := (start + k) % len(c.Nodes)
		err := fn(c.node(i))
		if err == nil {
			return c.Nodes[i], nil
		}
		lastNode, lastErr = c.Nodes[i], err
		if !retryable(err) {
			return lastNode, fmt.Errorf("%s: %w", lastNode, err)
		}
	}
	return lastNode, fmt.Errorf("client: all %d cluster nodes failed, last %s: %w", len(c.Nodes), lastNode, lastErr)
}

// Metrics fetches /metrics.
func (c *Client) Metrics(ctx context.Context) (*service.MetricsSnapshot, error) {
	u := strings.TrimSuffix(c.BaseURL, "/") + "/metrics"
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 32<<20))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, decodeError(resp, data)
	}
	var snap service.MetricsSnapshot
	if err := json.Unmarshal(data, &snap); err != nil {
		return nil, fmt.Errorf("service: decoding metrics: %w", err)
	}
	return &snap, nil
}

func decodeError(resp *http.Response, data []byte) error {
	he := &HTTPError{Status: resp.StatusCode, Msg: strings.TrimSpace(string(data))}
	var body service.ErrorBody
	if err := json.Unmarshal(data, &body); err == nil && body.Error != "" {
		he.Msg = body.Error
	}
	if ra := resp.Header.Get("Retry-After"); ra != "" {
		if secs, err := strconv.Atoi(ra); err == nil {
			he.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return he
}

func intList(vs []int) string {
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(v)
	}
	return strings.Join(parts, ",")
}

// VerifySession proves a session result correct against its trace. A
// "keep" phase reuses the previous phase's (possibly larger) circuit set,
// so it is checked like a fallback phase — the configs must be
// conflict-free among themselves and every request of the phase must hold
// a slot. Patch and recompile phases serve exactly the phase's pattern and
// get the full exact-multiset Validate.
func VerifySession(doc trace.Document, res *SessionResult) error {
	base, err := topology.Parse(res.Header.Topology)
	if err != nil {
		return fmt.Errorf("client: verify session: %w", err)
	}
	if len(res.Phases) != len(doc.Phases) {
		return fmt.Errorf("client: verify session: result has %d phases, trace has %d", len(res.Phases), len(doc.Phases))
	}
	for i, ph := range res.Phases {
		if ph.Result == nil {
			return fmt.Errorf("client: verify session phase %d: no result", i)
		}
		want := make(request.Set, 0, len(doc.Phases[i].Messages))
		for _, m := range doc.Phases[i].Messages {
			want = append(want, request.Request{Src: network.NodeID(m.Src), Dst: network.NodeID(m.Dst)})
		}
		want = want.Dedup()
		configs := make([]request.Set, len(ph.Result.Configs))
		slot := make(map[request.Request]int)
		own := make(request.Set, 0, len(want))
		for k, c := range ph.Result.Configs {
			configs[k] = make(request.Set, len(c))
			for j, pair := range c {
				q := request.Request{Src: network.NodeID(pair[0]), Dst: network.NodeID(pair[1])}
				configs[k][j] = q
				slot[q] = k
				own = append(own, q)
			}
		}
		rebuilt := &schedule.Result{
			Algorithm: ph.Result.Algorithm,
			Topology:  base,
			Configs:   configs,
			Slot:      slot,
		}
		if ph.Decision == "keep" || ph.Result.Fallback {
			// Conflict-freedom over the kept circuits, coverage for the
			// phase's own pattern.
			if err := rebuilt.Validate(own); err != nil {
				return fmt.Errorf("client: verify session phase %q: %w", ph.Result.Name, err)
			}
			for _, q := range want {
				if _, ok := slot[q]; !ok {
					return fmt.Errorf("client: verify session phase %q: kept schedule has no slot for %v", ph.Result.Name, q)
				}
			}
			continue
		}
		if err := rebuilt.Validate(want); err != nil {
			return fmt.Errorf("client: verify session phase %q: %w", ph.Result.Name, err)
		}
	}
	return nil
}

// Verify proves a compile result correct against the trace that produced
// it: it rebuilds the topology named in the result (applying the echoed
// fault mask for recompile results), reconstructs every non-fallback
// phase's schedule.Result, and runs Validate — every request scheduled
// exactly once, no conflicting circuits in any slot. Fallback phases are
// checked for coverage instead: every request of the phase must hold a slot
// in the predetermined configuration set.
func Verify(doc trace.Document, res *service.Result) error {
	base, err := topology.Parse(res.Topology)
	if err != nil {
		return fmt.Errorf("client: verify: %w", err)
	}
	var topo network.Topology = base
	if res.Faults != nil && !res.Faults.Empty() {
		set := fault.NewSet()
		for _, l := range res.Faults.Links {
			set.FailLink(network.LinkID(l))
		}
		for _, n := range res.Faults.Nodes {
			set.FailNode(network.NodeID(n))
		}
		topo = fault.NewMasked(base, set)
	}
	if len(res.Phases) != len(doc.Phases) {
		return fmt.Errorf("client: verify: result has %d phases, trace has %d", len(res.Phases), len(doc.Phases))
	}
	for i, ph := range res.Phases {
		want := make(request.Set, 0, len(doc.Phases[i].Messages))
		for _, m := range doc.Phases[i].Messages {
			want = append(want, request.Request{Src: network.NodeID(m.Src), Dst: network.NodeID(m.Dst)})
		}
		want = want.Dedup()
		configs := make([]request.Set, len(ph.Configs))
		slot := make(map[request.Request]int)
		for k, c := range ph.Configs {
			configs[k] = make(request.Set, len(c))
			for j, pair := range c {
				q := request.Request{Src: network.NodeID(pair[0]), Dst: network.NodeID(pair[1])}
				configs[k][j] = q
				slot[q] = k
			}
		}
		if ph.Fallback {
			// The predetermined configuration set covers every pair; the
			// phase's own requests must each hold a slot.
			for _, q := range want {
				if _, ok := slot[q]; !ok {
					return fmt.Errorf("client: verify phase %q: fallback set has no slot for %v", ph.Name, q)
				}
			}
			continue
		}
		rebuilt := &schedule.Result{
			Algorithm: ph.Algorithm,
			Topology:  topo,
			Configs:   configs,
			Slot:      slot,
		}
		if err := rebuilt.Validate(want); err != nil {
			return fmt.Errorf("client: verify phase %q: %w", ph.Name, err)
		}
	}
	return nil
}
