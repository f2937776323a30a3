package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/switchprog"
	"repro/internal/trace"
)

// The traced run records a span at every layer boundary the benchmark can
// reach from its own code: the client call, the wrapped RoundTripper, the
// wrapped handler of the node called, and on cluster-forward the peer hop
// and the owner's handler. After each request it replays, on the same
// inputs, the public calls of the layers the reply's cache state says ran,
// under a "replay" span of the same request.

// spanHeader carries "request/parent-span" from a wrapped transport to the
// wrapped handler on the other end.
const spanHeader = "X-Servebench-Span"

// Span names of the request path.
const (
	spanClient    = "client"
	spanTransport = "transport"
	spanHandler   = "service.handler"
	spanPeer      = "cluster.peer_roundtrip"
	spanOwner     = "cluster.owner_handler"
	spanReplay    = "replay"
)

type span struct {
	Req    int64  `json:"req"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0  time.Time
	ids atomic.Int64

	mu       sync.Mutex
	spans    []span
	active   map[string]int64 // program name in flight → request id
	handlers map[int64]int64  // request id → its entry handler span
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), active: make(map[string]int64), handlers: make(map[int64]int64)}
}

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin allocates a span id and reads the start time.
func (t *tracer) begin() (id, start int64) { return t.ids.Add(1), t.now() }

// end records a span that began at start.
func (t *tracer) end(req, id, parent int64, name string, start int64) {
	end := t.now()
	t.mu.Lock()
	t.spans = append(t.spans, span{Req: req, ID: id, Parent: parent, Name: name, Start: start, End: end})
	t.mu.Unlock()
}

// newRequest allocates a request id for the program about to be sent; the
// peer hop finds the request by its program name, which only one client
// holds at a time.
func (t *tracer) newRequest(name string) int64 {
	id := t.ids.Add(1)
	t.mu.Lock()
	t.active[name] = id
	t.mu.Unlock()
	return id
}

func (t *tracer) finish(name string) {
	t.mu.Lock()
	delete(t.active, name)
	t.mu.Unlock()
}

func spanRef(req, parent int64) string { return fmt.Sprintf("%d/%d", req, parent) }

func parseSpanRef(s string) (req, parent int64, ok bool) {
	a, b, found := strings.Cut(s, "/")
	if !found {
		return 0, 0, false
	}
	req, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return req, parent, err1 == nil && err2 == nil
}

// tracedHandler wraps a daemon's handler with a span named name; requests
// without a span reference (fill, warm-up, metrics) pass straight through.
func tracedHandler(h http.Handler, t *tracer, name string) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		req, parent, ok := parseSpanRef(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		id, start := t.begin()
		if name == spanHandler {
			t.mu.Lock()
			t.handlers[req] = id
			t.mu.Unlock()
		}
		h.ServeHTTP(w, r)
		t.end(req, id, parent, name, start)
	})
}

// peerRT wraps the cluster's peer transport: in traced runs it records the
// peer round trip under the forwarding node's handler span.
type peerRT struct {
	next http.RoundTripper
	t    *tracer
}

func (p *peerRT) RoundTrip(r *http.Request) (*http.Response, error) {
	if p.t == nil {
		return p.next.RoundTrip(r)
	}
	p.t.mu.Lock()
	req := p.t.active[docName(r)]
	parent := p.t.handlers[req]
	p.t.mu.Unlock()
	if req == 0 {
		return p.next.RoundTrip(r)
	}
	id, start := p.t.begin()
	r = r.Clone(r.Context())
	r.Header.Set(spanHeader, spanRef(req, id))
	resp, err := p.next.RoundTrip(r)
	if err != nil {
		p.t.end(req, id, parent, spanPeer, start)
		return nil, err
	}
	resp.Body = &tapBody{rc: resp.Body, onEnd: func() { p.t.end(req, id, parent, spanPeer, start) }}
	return resp, nil
}

// docName reads the program name from the head of a request's trace body.
func docName(r *http.Request) string {
	if r.GetBody == nil {
		return ""
	}
	rc, err := r.GetBody()
	if err != nil {
		return ""
	}
	defer rc.Close()
	head := make([]byte, 256)
	n, _ := io.ReadFull(rc, head)
	var doc struct {
		Name string `json:"name"`
	}
	dec := json.NewDecoder(bytes.NewReader(head[:n]))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		return ""
	}
	if tok, err := dec.Token(); err != nil || tok != "name" {
		return ""
	}
	if err := dec.Decode(&doc.Name); err != nil {
		return ""
	}
	return doc.Name
}

// tapBody observes a response body as the caller reads it and calls onEnd
// once, at EOF or Close, whichever comes first.
type tapBody struct {
	rc     io.ReadCloser
	onRead func([]byte)
	onEnd  func()
	done   bool
}

func (b *tapBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	if b.onRead != nil {
		b.onRead(p[:n])
	}
	if err == io.EOF {
		b.finish()
	}
	return n, err
}

func (b *tapBody) Close() error {
	b.finish()
	return b.rc.Close()
}

func (b *tapBody) finish() {
	if !b.done && b.onEnd != nil {
		b.done = true
		b.onEnd()
	}
}

// tracedReq is what the replay of one traced request needs.
type tracedReq struct {
	id   int64
	job  job
	env  *service.Response
	res  *service.Result
	raw  []byte
	sess *client.SessionResult
}

// Replayed layer spans. inHandler lists the ones the entry handler itself
// runs, which service.unattributed_us subtracts from the handler span.
const (
	lTraceRead  = "trace.read"
	lKey        = "service.key"
	lEncode     = "service.encode"
	lDecode     = "client.decode"
	lRoutes     = "network.routes"
	lGraph      = "schedule.conflict_graph"
	lColoring   = "schedule.coloring"
	lAAPC       = "schedule.aapc"
	lCombined   = "schedule.combined"
	lSwitchprog = "switchprog.compile"
	lSim        = "sim.run_compiled"
	lCore       = "core.compile"
	lChoose     = "core.choose"
	lDelta      = "delta.recompile"
	lOwners     = "cluster.owners"
	lStoreGet   = "store.get"
	lStoreDec   = "store.decode"
	lStorePut   = "store.put"
)

var inHandler = map[string]bool{lTraceRead: true, lKey: true, lEncode: true, lSim: true, lCore: true,
	lChoose: true, lDelta: true, lOwners: true, lStoreGet: true, lStoreDec: true, lStorePut: true}

// replayer replays traced requests against the serving daemon's topology,
// so the route cache is as warm as the daemon's.
type replayer struct {
	t    *tracer
	topo network.Topology
	name string
	alg  string
	ring *cluster.Ring
	// bases reads the serving daemon's store; puts is a store of the
	// replay's own on the same filesystem. Both are nil without a store.
	bases, puts *store.Store
	// deltaBound is the serving daemon's patch-quality bound.
	deltaBound float64

	mu sync.Mutex
	// slack is degree minus best lower bound per compiled static phase of
	// each program of the fixed set, taken from the program's first traced
	// request (slackOwner), so its mean does not depend on throughput.
	slack      []float64
	slackOwner map[string]int64
	// index mirrors the daemon's nearest-base index, oldest first.
	index []indexedBase
}

// indexedBase is one entry of the mirrored nearest-base index.
type indexedBase struct {
	key  string
	reqs request.Set
	res  *schedule.Result
}

// maxIndexed is the size of the daemon's nearest-base index: it keeps the
// bases it saved last.
const maxIndexed = 32

// mirrorIndex loads the bases of docs' static phases, in order, from the
// daemon's store into the mirrored index. Called after a warm-up that saved
// exactly these bases, it reproduces the daemon's index only if they are
// maxIndexed distinct patterns, which push every older base out.
func (rp *replayer) mirrorIndex(docs []trace.Document) error {
	for _, doc := range docs {
		prog, err := doc.Program()
		if err != nil {
			return err
		}
		for _, ph := range prog.Phases {
			if ph.Dynamic {
				continue
			}
			reqs := ph.Requests()
			key := store.BaseKey(reqs, rp.name, rp.alg)
			payload, ok := rp.bases.Get(store.KindSchedule, key)
			if !ok {
				return fmt.Errorf("replay: warm-up base %s of %s not stored", key, doc.Name)
			}
			dec, err := store.DecodeResult(payload)
			if err != nil {
				return err
			}
			res, err := dec.Result(rp.topo)
			if err != nil {
				return err
			}
			rp.addIndexed(key, reqs, res)
		}
	}
	if len(rp.index) != maxIndexed {
		return fmt.Errorf("replay: the warm-up saved %d distinct bases, want %d", len(rp.index), maxIndexed)
	}
	return nil
}

// addIndexed registers a saved base as the daemon's index does: a known key
// is updated in place, a new one appended, the oldest dropped past
// maxIndexed.
func (rp *replayer) addIndexed(key string, reqs request.Set, res *schedule.Result) {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for i := range rp.index {
		if rp.index[i].key == key {
			rp.index[i].reqs, rp.index[i].res = reqs, res
			return
		}
	}
	rp.index = append(rp.index, indexedBase{key: key, reqs: reqs, res: res})
	if len(rp.index) > maxIndexed {
		rp.index = rp.index[len(rp.index)-maxIndexed:]
	}
}

// indexed returns the mirrored base stored under key, if any.
func (rp *replayer) indexed(key string) *schedule.Result {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	for _, c := range rp.index {
		if c.key == key {
			return c.res
		}
	}
	return nil
}

// nearest picks the base the daemon patches target from: the indexed
// pattern with the smallest multiset diff (earliest wins ties), skipping
// target's own key, and none when the best diff exceeds half the target.
func (rp *replayer) nearest(target request.Set, exclude string) *schedule.Result {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	var best *schedule.Result
	bestSize := -1
	for _, c := range rp.index {
		if c.key == exclude {
			continue
		}
		if d := delta.Compute(c.reqs, target).Size(); bestSize < 0 || d < bestSize {
			best, bestSize = c.res, d
		}
	}
	if bestSize < 0 || bestSize*2 > len(target) {
		return nil
	}
	return best
}

func (rp *replayer) slackAll() []float64 {
	rp.mu.Lock()
	defer rp.mu.Unlock()
	return append([]float64(nil), rp.slack...)
}

// timed runs fn as a child span of the replay span.
func (rp *replayer) timed(req, parent int64, name string, fn func() error) error {
	id, start := rp.t.begin()
	err := fn()
	rp.t.end(req, id, parent, name, start)
	if err != nil {
		return fmt.Errorf("replay %s: %w", name, err)
	}
	return nil
}

func (rp *replayer) replay(q tracedReq) error {
	rid := q.id
	pid, start := rp.t.begin()
	defer func() { rp.t.end(rid, pid, 0, spanReplay, start) }()
	body, err := json.Marshal(q.job.doc)
	if err != nil {
		return err
	}
	body = append(body, '\n')
	doc := q.job.doc
	if err := rp.timed(rid, pid, lTraceRead, func() error { _, err := trace.Read(bytes.NewReader(body)); return err }); err != nil {
		return err
	}
	var key string
	if err := rp.timed(rid, pid, lKey, func() (err error) { key, err = service.KeyForDocument(doc, rp.name, rp.alg); return err }); err != nil {
		return err
	}
	if rp.ring != nil {
		_ = rp.timed(rid, pid, lOwners, func() error { rp.ring.Owners(key, 1); return nil })
	}
	prog, err := doc.Program()
	if err != nil {
		return err
	}
	if q.sess != nil {
		return rp.replaySession(rid, pid, prog, q)
	}
	if q.env.Cache == service.CacheMiss {
		if err := rp.replayCompile(rid, pid, prog, q.job.program()); err != nil {
			return err
		}
	}
	if err := rp.timed(rid, pid, lEncode, func() error { _, err := json.Marshal(q.env); return err }); err != nil {
		return err
	}
	wire, err := json.Marshal(q.env)
	if err != nil {
		return err
	}
	return rp.timed(rid, pid, lDecode, func() error {
		var env service.Response
		var res service.Result
		if err := json.Unmarshal(wire, &env); err != nil {
			return err
		}
		return json.Unmarshal(env.Result, &res)
	})
}

// replayCompile replays a full /compile: every stage of each static phase,
// then the whole program through core.Compiler and the prediction.
func (rp *replayer) replayCompile(rid, pid int64, prog core.Program, program string) error {
	for _, ph := range prog.Phases {
		if ph.Dynamic {
			continue
		}
		if err := rp.replaySchedule(rid, pid, ph.Requests(), program); err != nil {
			return err
		}
	}
	var cp *core.CompiledProgram
	if err := rp.timed(rid, pid, lCore, func() (err error) {
		cp, err = core.Compiler{Topology: rp.topo, Scheduler: schedule.Combined{}}.Compile(prog)
		return err
	}); err != nil {
		return err
	}
	for i := range cp.Phases {
		ph := &cp.Phases[i]
		if err := rp.timed(rid, pid, lSim, func() error { _, err := sim.RunCompiled(ph.Schedule, ph.Phase.Messages); return err }); err != nil {
			return err
		}
	}
	return nil
}

// replaySchedule replays the scheduling stages of one static phase of a
// /compile miss and records its degree slack.
func (rp *replayer) replaySchedule(rid, pid int64, reqs request.Set, program string) error {
	var paths []network.Path
	if err := rp.timed(rid, pid, lRoutes, func() (err error) { paths, err = reqs.Routes(rp.topo); return err }); err != nil {
		return err
	}
	_ = rp.timed(rid, pid, lGraph, func() error { schedule.BuildConflictGraph(rp.topo, paths); return nil })
	if err := rp.timed(rid, pid, lColoring, func() error { _, err := schedule.Coloring{}.Schedule(rp.topo, reqs); return err }); err != nil {
		return err
	}
	if err := rp.timed(rid, pid, lAAPC, func() error { _, err := schedule.OrderedAAPC{}.Schedule(rp.topo, reqs); return err }); err != nil {
		return err
	}
	var res *schedule.Result
	if err := rp.timed(rid, pid, lCombined, func() (err error) { res, err = schedule.Combined{}.Schedule(rp.topo, reqs); return err }); err != nil {
		return err
	}
	if err := rp.timed(rid, pid, lSwitchprog, func() error { _, err := switchprog.Compile(res); return err }); err != nil {
		return err
	}
	return rp.addSlack(rid, program, res.Degree(), reqs)
}

// addSlack records one compiled static phase's degree slack for request
// req of program, unless another request of program already owns its
// record or program is outside the fixed set.
func (rp *replayer) addSlack(req int64, program string, degree int, reqs request.Set) error {
	if program == "" {
		return nil
	}
	rp.mu.Lock()
	owner, seen := rp.slackOwner[program]
	if !seen {
		if rp.slackOwner == nil {
			rp.slackOwner = make(map[string]int64)
		}
		rp.slackOwner[program], owner = req, req
	}
	rp.mu.Unlock()
	if owner != req {
		return nil
	}
	lb, err := schedule.BestLowerBound(rp.topo, reqs)
	if err != nil {
		return err
	}
	rp.mu.Lock()
	rp.slack = append(rp.slack, float64(degree-lb))
	rp.mu.Unlock()
	return nil
}

// replaySession walks a /session reply the way the daemon's producer did:
// phases served unchanged cost nothing; every other boundary resolved a
// candidate through the store (an exact base from the index or a store
// read on "hit"; on "patched" or "miss", delta.Recompile from the nearest
// indexed base and a write-back), priced the live patch candidate when
// worthwhile, and chose.
func (rp *replayer) replaySession(rid, pid int64, prog core.Program, q tracedReq) error {
	var prev *schedule.Result
	prevComm := 0
	// The daemon keeps one live patch session while it holds the running
	// schedule, and anchors a new one on prev otherwise.
	var patchSess *delta.Session
	holdsPrev := false
	for i, ch := range q.sess.Phases {
		ph := prog.Phases[i]
		served := rebuild(rp.topo, ch.Result)
		if ch.Cache == service.CacheUnchanged {
			prevComm = ch.Result.PredictedSlots
			continue
		}
		reqs := ph.Requests()
		key := store.BaseKey(reqs, rp.name, rp.alg)
		// scratch is the recompile candidate the daemon resolved.
		scratch := served
		switch {
		case ph.Dynamic:
			if err := rp.timed(rid, pid, lCore, func() error {
				cp, err := core.Compiler{Topology: rp.topo, Scheduler: schedule.Combined{}}.Compile(core.Program{Name: prog.Name, Phases: []core.Phase{ph}})
				if err == nil {
					scratch = cp.Phases[0].Schedule
				}
				return err
			}); err != nil {
				return err
			}
		case ch.Cache == service.CacheMiss || ch.Cache == service.CachePatched:
			base := rp.nearest(reqs, key)
			var res *schedule.Result
			var st delta.Stats
			if err := rp.timed(rid, pid, lDelta, func() (err error) {
				res, st, err = delta.Recompile(rp.topo, base, reqs, delta.Options{Bound: rp.deltaBound, Scheduler: schedule.Combined{}})
				return err
			}); err != nil {
				return err
			}
			if st.Patched != (ch.Cache == service.CachePatched) {
				return fmt.Errorf("replay: %s phase %d: the daemon's resolution was %q but the replay's patched=%t, so the mirrored base index diverged",
					prog.Name, i, ch.Cache, st.Patched)
			}
			if rp.puts != nil {
				if err := rp.timed(rid, pid, lStorePut, func() error { return rp.puts.Put(store.KindSchedule, key, store.EncodeResult(res)) }); err != nil {
					return err
				}
			}
			rp.addIndexed(key, reqs, res)
			scratch = res
		case ch.Cache == service.CacheHit && rp.bases != nil:
			// A base the index holds is served from memory; any other is
			// read from the store.
			if scratch = rp.indexed(key); scratch == nil {
				var err error
				if scratch, err = rp.replayStoreGet(rid, pid, reqs); err != nil {
					return err
				}
			}
		}
		var patched *schedule.Result
		if prev != nil && !ph.Dynamic && core.PatchWorthwhile(prev, reqs) {
			_ = rp.timed(rid, pid, lDelta, func() error {
				if patchSess == nil || !holdsPrev {
					var err error
					if patchSess, err = delta.NewSession(rp.topo, prev, delta.Options{Bound: 1e9, Scheduler: schedule.Combined{}}); err != nil {
						patchSess = nil
						return nil
					}
				}
				res, st, err := patchSess.Recompile(reqs)
				if err != nil {
					patchSess = nil
					return nil
				}
				holdsPrev = false // the session now holds res, not prev
				if st.Patched {
					patched = res
				}
				return nil
			})
		}
		if err := rp.timed(rid, pid, lChoose, func() error {
			_, err := core.ChooseFrom(prev, prevComm, ph.Messages, scratch, patched, core.DefaultReconfigCost)
			return err
		}); err != nil {
			return err
		}
		if !ph.Dynamic {
			if err := rp.addSlack(rid, q.job.program(), served.Degree(), reqs); err != nil {
				return err
			}
		}
		switch core.Decision(ch.Decision) {
		case core.DecisionPatch:
			holdsPrev = true // the served schedule is the session's output
		case core.DecisionRecompile:
			holdsPrev = false
		}
		prev, prevComm = served, ch.Result.PredictedSlots
	}
	chunks := append([]service.SessionChunk{q.sess.Header}, q.sess.Phases...)
	chunks = append(chunks, q.sess.Trailer)
	if err := rp.timed(rid, pid, lEncode, func() error {
		for _, c := range chunks {
			if _, err := json.Marshal(c); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return rp.timed(rid, pid, lDecode, func() error {
		dec := json.NewDecoder(bytes.NewReader(q.raw))
		for {
			var c service.SessionChunk
			if err := dec.Decode(&c); err == io.EOF {
				return nil
			} else if err != nil {
				return err
			}
		}
	})
}

// replayStoreGet replays an exact stored base's read path: the store read
// with its integrity check, then decoding and validating the schedule.
func (rp *replayer) replayStoreGet(rid, pid int64, reqs request.Set) (*schedule.Result, error) {
	key := store.BaseKey(reqs, rp.name, rp.alg)
	var payload []byte
	var ok bool
	_ = rp.timed(rid, pid, lStoreGet, func() error { payload, ok = rp.bases.Get(store.KindSchedule, key); return nil })
	if !ok {
		return nil, fmt.Errorf("replay: stored base %s not found", key)
	}
	var res *schedule.Result
	err := rp.timed(rid, pid, lStoreDec, func() error {
		dec, err := store.DecodeResult(payload)
		if err != nil {
			return err
		}
		if res, err = dec.Result(rp.topo); err != nil {
			return err
		}
		return res.Validate(reqs)
	})
	return res, err
}

// rebuild turns a served phase back into a schedule on topo.
func rebuild(topo network.Topology, ph *service.PhaseResult) *schedule.Result {
	res := &schedule.Result{Algorithm: ph.Algorithm, Topology: topo, Slot: make(map[request.Request]int)}
	for k, c := range ph.Configs {
		set := make(request.Set, len(c))
		for j, p := range c {
			q := request.Request{Src: network.NodeID(p[0]), Dst: network.NodeID(p[1])}
			set[j] = q
			res.Slot[q] = k
		}
		res.Configs = append(res.Configs, set)
	}
	return res
}

// layerStats reduces the spans to per-request layer costs and reports each
// layer's median over the requests that ran it, in microseconds.
func layerStats(spans []span) map[string]float64 {
	byReq := make(map[int64][]span)
	for _, s := range spans {
		byReq[s.Req] = append(byReq[s.Req], s)
	}
	samples := make(map[string][]float64)
	add := func(name string, ns int64) { samples[name] = append(samples[name], float64(ns)/1e3) }
	for _, ss := range byReq {
		var client, transport, handler, peer *span
		replayID := int64(-1)
		for i := range ss {
			switch ss[i].Name {
			case spanClient:
				client = &ss[i]
			case spanTransport:
				transport = &ss[i]
			case spanHandler:
				handler = &ss[i]
			case spanPeer:
				peer = &ss[i]
			case spanOwner:
				add("cluster.owner_handler_us", ss[i].dur())
			case spanReplay:
				replayID = ss[i].ID
			}
		}
		if client == nil || transport == nil || handler == nil {
			continue
		}
		add("client.self_us", client.dur()-overlap(*client, *transport))
		add("transport.self_us", transport.dur()-overlap(*transport, *handler))
		add("service.handler_us", handler.dur())
		unattributed := handler.dur()
		if peer != nil {
			add("cluster.peer_roundtrip_us", peer.dur())
			unattributed -= overlap(*handler, *peer)
		}
		layers := make(map[string]int64)
		for _, s := range ss {
			if s.Parent == replayID {
				layers[s.Name] += s.dur()
			}
		}
		for name, ns := range layers {
			add(name+"_us", ns)
			if inHandler[name] {
				unattributed -= ns
			}
		}
		add("service.unattributed_us", unattributed)
	}
	out := make(map[string]float64, len(samples))
	for name, xs := range samples {
		out[name] = median(xs)
	}
	return out
}

// overlap is how much of span a the interval of span b covers.
func overlap(a, b span) int64 {
	lo, hi := max(a.Start, b.Start), min(a.End, b.End)
	if hi < lo {
		return 0
	}
	return hi - lo
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// writeSpans writes every span as one JSON line.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
