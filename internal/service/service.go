// Package service is the compile daemon of the compiled-communication
// stack: a long-running HTTP/JSON server that accepts communication
// programs in the internal/trace format, runs them through the scheduling
// pipeline (request extraction → connection scheduling → switch-program
// lowering), and returns the compiled configurations plus predicted
// communication time.
//
// The paper's premise is that compilation happens once, off-line, and is
// reused across communication phases. This package is that amortization
// made operational:
//
//   - a content-addressed schedule cache, keyed by the canonical pattern
//     hash of internal/request (normalized request list + topology +
//     heuristic parameters), bounded LRU with hit/miss/eviction counters;
//   - a request-digest alias on each cache entry, so a byte-identical
//     repeat of a /compile or /recompile is answered without decoding it,
//     its reply spliced from the stored bytes;
//   - singleflight coalescing, so a thundering herd of identical requests
//     shares exactly one pipeline invocation;
//   - a bounded worker pool with queue-depth admission control — under
//     overload the daemon answers 429 + Retry-After instead of queueing
//     without limit;
//   - /recompile, which compiles against an internal/fault-masked view of
//     the topology, rebasing stored healthy schedules onto it;
//   - one phase resolver (resolvePhase) behind /compile, /recompile and
//     /session, and one verifier: every phase of an artifact is lowered to
//     switch programs and light-traced before the artifact is cached;
//   - /metrics (JSON counters + latency histograms via internal/stats) and
//     optional net/http/pprof wiring.
//
// Canonical semantics: the service sorts each phase's messages by
// (src, dst, start, flits) before hashing AND before compiling, so two
// traces that are permutations of each other share one cache entry and one
// compile — and the greedy scheduler's order sensitivity cannot make the
// cached artifact diverge from a cold compile. Cache hits return the
// byte-identical artifact the cold compile produced.
package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"net/url"
	"slices"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/fault"
	"repro/internal/jsonwire"
	"repro/internal/network"
	"repro/internal/optics"
	"repro/internal/qos"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/store"
	"repro/internal/switchprog"
	"repro/internal/trace"
)

// maxBodyBytes bounds a request body; a 64-PE trace with thousands of
// messages is well under a megabyte.
const maxBodyBytes = 32 << 20

// Config parameterizes a Server. Zero values select production defaults.
type Config struct {
	// Topology is the default network compiled against; required.
	Topology network.Topology
	// Scheduler is the default scheduling algorithm; nil means the paper's
	// combined algorithm.
	Scheduler schedule.Scheduler
	// Workers is the compile worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// QueueDepth bounds the admission queue; 0 means 64. Requests beyond
	// workers+queue are answered 429.
	QueueDepth int
	// CacheEntries bounds the schedule cache; 0 means 256.
	CacheEntries int
	// RetryAfter is the Retry-After hint on 429 replies; 0 means 1s.
	RetryAfter time.Duration
	// QoS declares the multi-tenant admission classes (weights, per-class
	// queue caps and Retry-After, cache/store quotas). Tenants are named by
	// the X-Ccomm-Tenant header; a tenant named like a class belongs to it,
	// everything else — including anonymous traffic — lands in the default
	// class. Empty means a single default class with the global bounds
	// above, which reproduces single-tenant behavior exactly.
	QoS []qos.Class
	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// StoreDir, when non-empty, enables the persistent schedule store
	// rooted there: compiled artifacts and per-phase base schedules survive
	// restarts (warm boot preloads them), and the delta recompiler patches
	// stored bases instead of compiling from scratch.
	StoreDir string
	// StoreMaxEntries and StoreMaxAge bound the store; GC runs at startup.
	// Zero means unbounded.
	StoreMaxEntries int
	StoreMaxAge     time.Duration
	// DeltaBound accepts an incrementally patched schedule only when its
	// multiplexing degree is at most DeltaBound x the from-scratch estimate;
	// 0 means delta.DefaultBound.
	DeltaBound float64

	// Reconfig is the reconfiguration cost model /session prices its
	// keep/patch/recompile decisions under; the zero value means
	// core.DefaultReconfigCost.
	Reconfig core.ReconfigCost
}

// Server is the compile service. It implements http.Handler.
type Server struct {
	topo      network.Topology
	topoPEs   int
	scheduler schedule.Scheduler
	retry     time.Duration

	// qos maps tenant IDs to admission classes; always non-nil (a
	// registry holding just the default class when Config.QoS is empty).
	qos *qos.Registry

	mux     *http.ServeMux
	cache   *lruCache
	flight  *flightGroup
	pool    *workerPool
	metrics *metricsState

	// store is the persistent schedule store; nil when disabled. bases is
	// the in-memory nearest-base candidate index over its schedule entries,
	// deltaBound the patch-quality gate.
	store      *store.Store
	bases      *baseIndex
	deltaBound float64
	reconfig   core.ReconfigCost

	// views shares topology instances (and their route tables) across
	// requests naming the same topology or the same fault mask.
	views *viewCache

	// peersV holds the PeerResolver of the cluster layer (a *peerBox);
	// nil means this daemon serves alone. Atomic because SetPeers races
	// with early requests during daemon startup.
	peersV atomic.Value

	// compileHook, when set, runs inside a pool worker immediately before a
	// pipeline invocation. Test instrumentation: counting calls counts
	// compiles, blocking it holds a compile in flight.
	compileHook func(key string)
}

// ForwardedHeader marks a request forwarded from a cluster peer: the
// receiving daemon is the key's owner and must resolve it locally rather
// than forward again. Set by internal/cluster on the peer hop.
const ForwardedHeader = "X-Ccomm-Forwarded"

// PeerContext describes one compile request to the cluster layer: the
// content key the local caches missed, plus everything needed to replay the
// request against the key's owner.
type PeerContext struct {
	// Key is the content-address the request resolves to.
	Key string
	// Tenant is the canonical tenant (QoS class) of the originating
	// request; the cluster layer forwards it so the owner daemon bills the
	// compile to the right class instead of the default tenant.
	Tenant string
	// Query carries the original request's query parameters (topology, alg,
	// fault mask) and Body its raw trace document.
	Query url.Values
	Body  []byte
	// Recompile distinguishes /recompile from /compile.
	Recompile bool
}

// PeerResolver intercedes between a local cache miss and a local compile.
// The cluster layer implements it: a non-owner forwards the request to the
// key's owner and returns the owner's artifact; ok=false (wrong role, every
// owner unreachable) falls through to the local compile, so a degraded
// cluster degrades to N independent daemons, never to an outage.
type PeerResolver interface {
	Resolve(pc PeerContext) (json.RawMessage, bool)
}

// peerBox wraps the resolver so atomic.Value stores one concrete type.
type peerBox struct{ p PeerResolver }

// SetPeers installs the cluster layer's resolver. Safe to call while
// serving; nil resolvers are ignored.
func (s *Server) SetPeers(p PeerResolver) {
	if p != nil {
		s.peersV.Store(&peerBox{p})
	}
}

func (s *Server) peers() PeerResolver {
	if b, ok := s.peersV.Load().(*peerBox); ok {
		return b.p
	}
	return nil
}

// New builds a Server.
func New(cfg Config) (*Server, error) {
	if cfg.Topology == nil {
		return nil, fmt.Errorf("service: Config.Topology is required")
	}
	if cfg.Scheduler == nil {
		cfg.Scheduler = schedule.Combined{}
	}
	if cfg.Workers <= 0 {
		cfg.Workers = defaultWorkers()
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 64
	}
	if cfg.CacheEntries <= 0 {
		cfg.CacheEntries = 256
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.DeltaBound <= 0 {
		cfg.DeltaBound = delta.DefaultBound
	}
	if cfg.Reconfig == (core.ReconfigCost{}) {
		cfg.Reconfig = core.DefaultReconfigCost
	}
	reg, err := qos.NewRegistry(cfg.QoS, qos.Defaults{
		QueueDepth:   cfg.QueueDepth,
		RetryAfter:   cfg.RetryAfter,
		CacheEntries: cfg.CacheEntries,
	})
	if err != nil {
		return nil, err
	}
	s := &Server{
		topo:       cfg.Topology,
		topoPEs:    network.TerminalCount(cfg.Topology),
		scheduler:  cfg.Scheduler,
		retry:      cfg.RetryAfter,
		qos:        reg,
		mux:        http.NewServeMux(),
		cache:      newLRUCache(cfg.CacheEntries),
		flight:     newFlightGroup(),
		metrics:    newMetricsState(),
		bases:      newBaseIndex(),
		views:      newViewCache(cfg.Topology),
		deltaBound: cfg.DeltaBound,
		reconfig:   cfg.Reconfig,
	}
	for _, c := range reg.Classes() {
		s.cache.configure(c.Name, c.CacheEntries)
	}
	s.pool = newWorkerPool(cfg.Workers, reg, s.metrics.observeQueueWait)
	if cfg.StoreDir != "" {
		st, err := store.Open(cfg.StoreDir, store.Options{MaxEntries: cfg.StoreMaxEntries, MaxAge: cfg.StoreMaxAge})
		if err != nil {
			return nil, err
		}
		if _, err := st.GC(); err != nil {
			return nil, err
		}
		s.store = st
		s.cache.onEvict = s.writeEvicted
		s.warmBoot(cfg.CacheEntries)
	}
	s.mux.HandleFunc("/compile", s.handleCompile)
	s.mux.HandleFunc("/recompile", s.handleRecompile)
	s.mux.HandleFunc("/session", s.handleSession)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close drains the worker pool: queued and running compiles finish, new
// submissions fail with ErrDraining. Call after http.Server.Shutdown has
// stopped accepting requests.
func (s *Server) Close() { s.pool.Close() }

// compileError wraps failures of the pipeline itself (unroutable pattern,
// disconnected fault mask), mapped to 422 rather than 500: the daemon is
// healthy, the program is not compilable on this network.
type compileError struct{ err error }

func (e compileError) Error() string { return e.err.Error() }
func (e compileError) Unwrap() error { return e.err }

// parsedRequest is a validated compile/recompile request.
type parsedRequest struct {
	pes       int
	prog      core.Program // canonical message order
	topo      network.Topology
	topoName  string
	scheduler schedule.Scheduler
	schedName string
	faults    *fault.Set
	mask      *FaultMask
	key       string

	// tenant is the canonical tenant identity (the QoS class name the
	// X-Ccomm-Tenant header mapped to); class is that class's config.
	tenant string
	class  qos.Class

	// query and body preserve the request as received so the cluster layer
	// can replay it verbatim against the key's owner; recompile selects the
	// peer endpoint, forwarded stops a forwarded request from forwarding
	// again.
	query     url.Values
	body      []byte
	recompile bool
	forwarded bool
}

// parse validates the HTTP request into a parsedRequest. body and bodyErr
// are the outcome of readBody; a body that failed to read is reported after
// the query parameters are checked.
func (s *Server) parse(r *http.Request, body []byte, bodyErr error, recompile bool) (*parsedRequest, error) {
	q := r.URL.Query()
	p := &parsedRequest{
		topo:      s.topo,
		scheduler: s.scheduler,
		query:     q,
		recompile: recompile,
		forwarded: r.Header.Get(ForwardedHeader) != "",
		tenant:    s.qos.Tenant(r.Header.Get(qos.TenantHeader)),
	}
	p.class = s.qos.ClassOf(p.tenant)
	pes := s.topoPEs
	if name := q.Get("topology"); name != "" {
		topo, err := s.views.named(name)
		if err != nil {
			return nil, err
		}
		p.topo = topo
		pes = network.TerminalCount(topo)
	}
	p.topoName = p.topo.Name()
	if name := q.Get("alg"); name != "" {
		sch, err := schedule.ParseScheduler(name)
		if err != nil {
			return nil, err
		}
		p.scheduler = sch
	}
	p.schedName = p.scheduler.Name()

	if bodyErr != nil {
		return nil, bodyErr
	}
	p.body = body
	doc, err := trace.Decode(body) // validates, so the program needs no second check
	if err != nil {
		return nil, err
	}
	if doc.PEs != pes {
		return nil, fmt.Errorf("service: trace targets %d PEs but topology %s hosts %d", doc.PEs, p.topoName, pes)
	}
	p.pes = pes
	p.prog = canonicalProgram(doc)

	faultsParam := ""
	if recompile {
		links, err := cliutil.ParseIntList(q.Get("links"))
		if err != nil {
			return nil, err
		}
		nodes, err := cliutil.ParseIntList(q.Get("nodes"))
		if err != nil {
			return nil, err
		}
		set := fault.NewSet()
		for _, l := range links {
			if l < 0 || l >= p.topo.NumLinks() {
				return nil, fmt.Errorf("service: link %d outside 0..%d of %s", l, p.topo.NumLinks()-1, p.topoName)
			}
			set.FailLink(network.LinkID(l))
		}
		for _, n := range nodes {
			if n < 0 || n >= p.topo.NumNodes() {
				return nil, fmt.Errorf("service: node %d outside 0..%d of %s", n, p.topo.NumNodes()-1, p.topoName)
			}
			set.FailNode(network.NodeID(n))
		}
		p.faults = set
		if !set.Empty() {
			faultsParam = set.String()
			sort.Ints(links)
			sort.Ints(nodes)
			p.mask = &FaultMask{Links: links, Nodes: nodes}
		}
	}
	p.key = programKey(p.prog, pes, p.topoName, p.schedName, faultsParam)
	return p, nil
}

// readBody reads a request body of at most maxBodyBytes into one buffer
// sized from Content-Length when the client sent one.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	var buf bytes.Buffer
	if n := r.ContentLength; n > 0 && n <= maxBodyBytes {
		buf.Grow(int(n) + bytes.MinRead) // room for the read that reports EOF
	}
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return buf.Bytes(), err
}

// digestRequest hashes a raw /compile or /recompile request: the endpoint,
// the raw query string and the body. That is everything parse reads that
// can change the key or turn the request into a 400; the daemon's own
// topology and scheduler are fixed for its lifetime. The tenant header is
// left out: it changes billing, not the key.
func digestRequest(endpoint, rawQuery string, body []byte) requestDigest {
	hdr := make([]byte, 0, 16+len(endpoint)+len(rawQuery))
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(endpoint)))
	hdr = append(hdr, endpoint...)
	hdr = binary.LittleEndian.AppendUint64(hdr, uint64(len(rawQuery)))
	hdr = append(hdr, rawQuery...)
	h := sha256.New()
	h.Write(hdr)
	h.Write(body) // the last field runs to the end, so needs no length
	var d requestDigest
	h.Sum(d[:0])
	return d
}

// canonicalProgram returns the program of a validated document in
// canonical form: every phase's messages sorted by (src, dst, start,
// flits), the normalization that makes pattern hashing and scheduling
// independent of the order a caller enumerated its messages in. Each
// message is copied once, into one backing array of which every phase is a
// capped sub-slice; doc is left as it was.
func canonicalProgram(doc trace.Document) core.Program {
	n := 0
	for _, ph := range doc.Phases {
		n += len(ph.Messages)
	}
	all := make([]sim.Message, n)
	phases := make([]core.Phase, len(doc.Phases))
	for i, ph := range doc.Phases {
		msgs := all[:len(ph.Messages):len(ph.Messages)]
		all = all[len(ph.Messages):]
		for j, m := range ph.Messages {
			msgs[j] = sim.Message(m)
		}
		if !slices.IsSortedFunc(msgs, compareMessages) {
			sortMessages(msgs)
		}
		phases[i] = core.Phase{Name: ph.Name, Messages: msgs, Dynamic: ph.Dynamic}
	}
	return core.Program{Name: doc.Name, Phases: phases}
}

// compareMessages is the canonical message order, request.CompareTriples.
func compareMessages(a, b sim.Message) int {
	return request.CompareTriples(request.Triple(a), request.Triple(b))
}

// sortScratch holds the buffers sortMessages sorts through.
type sortBufs struct {
	keys []request.PairKey
	msgs []sim.Message
}

var sortScratch = sync.Pool{New: func() any { return new(sortBufs) }}

// sortMessages puts messages with non-negative endpoints in canonical
// order: request.SortPairs's stable radix sort on (src, dst), after which
// each run of equal (src, dst) is sorted by (start, flits). It needs
// pooled buffers of two keys and one message per message and 256
// counters, whatever the topology's size.
func sortMessages(msgs []sim.Message) {
	buf := sortScratch.Get().(*sortBufs)
	defer sortScratch.Put(buf)
	n := len(msgs)
	if cap(buf.keys) < 2*n {
		buf.keys = make([]request.PairKey, 2*n)
		buf.msgs = make([]sim.Message, n)
	}
	keys := buf.keys[:n]
	for i, m := range msgs {
		keys[i] = request.PairKey{Src: uint(m.Src), Dst: uint(m.Dst), At: int32(i)}
	}
	request.SortPairs(keys, buf.keys[n:2*n])
	sorted := buf.msgs[:n]
	for k, key := range keys {
		sorted[k] = msgs[key.At]
	}
	copy(msgs, sorted)
	for i := 0; i < n; {
		j := i + 1
		for j < n && msgs[j].Src == msgs[i].Src && msgs[j].Dst == msgs[i].Dst {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(msgs[i:j], compareMessages)
		}
		i = j
	}
}

// programKey derives the content-address of a whole program's compiled
// artifact: a SHA-256 over the per-phase canonical pattern keys of
// internal/request plus the program attributes that select a different
// artifact. Phase names participate deliberately — the artifact echoes
// them. prog must be canonical (canonicalProgram), so each phase's
// messages are hashed as they stand, neither copied nor sorted again.
func programKey(prog core.Program, pes int, topoName, schedName, faultsParam string) string {
	b := make([]byte, 0, 64+len(prog.Name)+(8+2*sha256.Size)*len(prog.Phases))
	writeStr := func(str string) {
		b = binary.LittleEndian.AppendUint64(b, uint64(len(str)))
		b = append(b, str...)
	}
	writeStr("ccomm-program-v1")
	writeStr(prog.Name)
	writeStr(strconv.Itoa(pes))
	writeStr(strconv.Itoa(len(prog.Phases)))
	for _, ph := range prog.Phases {
		msgs := ph.Messages
		writeStr(request.CanonicalPatternKey(len(msgs), func(i int) request.Triple { return request.Triple(msgs[i]) }, topoName,
			"alg="+schedName,
			"faults="+faultsParam,
			"phase="+ph.Name,
			"dynamic="+strconv.FormatBool(ph.Dynamic),
		))
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// KeyForDocument computes the content-address a fault-free /compile of doc
// resolves to on the named topology and scheduler, without compiling
// anything. The cluster layer and its tests use it to reason about key
// ownership (which daemon a request will be forwarded to) ahead of time.
// It validates doc as trace.Decode does, once, and leaves it as it was.
func KeyForDocument(doc trace.Document, topoName, schedName string) (string, error) {
	if err := doc.Validate(); err != nil {
		return "", err
	}
	return programKey(canonicalProgram(doc), doc.PEs, topoName, schedName, ""), nil
}

// ArtifactKeys lists every program key this daemon can serve without a
// pipeline invocation: the in-memory cache union the persistent store. The
// cluster gossip layer exchanges this set (hashed into a digest) for
// anti-entropy replication.
func (s *Server) ArtifactKeys() []string {
	keys := s.cache.Keys()
	if s.store == nil {
		return keys
	}
	seen := make(map[string]bool, len(keys))
	for _, k := range keys {
		seen[k] = true
	}
	for _, info := range s.store.Entries(store.KindArtifact) {
		if !seen[info.Key] {
			keys = append(keys, info.Key)
		}
	}
	return keys
}

// ArtifactGetOwned returns a warm artifact — cache or store — and never
// compiles; it backs the cluster's /peer/fetch endpoint. It also returns the
// tenant the artifact is billed to, so the cluster fetch path can replicate
// ownership alongside content and the receiving daemon bills the copy to
// the same class.
func (s *Server) ArtifactGetOwned(key string) (json.RawMessage, string, bool) {
	if v, tenant, ok := s.cache.GetOwned(key); ok {
		return v, tenant, true
	}
	if v, owner, ok := s.storeGetArtifact(key); ok {
		tenant := s.tenantOfOwner(owner)
		s.cache.Add(key, tenant, v)
		return v, tenant, true
	}
	return nil, "", false
}

// ArtifactPutOwned installs an artifact fetched from a cluster peer into the
// cache and (best-effort) the store, billed to a tenant, so it is served as
// a local hit from now on and counts against the owner's quotas, not the
// default tenant's. Compilation is deterministic and keys are content
// hashes, so a replicated artifact is byte-identical to what this daemon
// would have compiled itself — once canonicalArtifact has undone any
// re-formatting on the way. Bytes that are not JSON are dropped.
func (s *Server) ArtifactPutOwned(key, tenant string, raw json.RawMessage) {
	raw, err := canonicalArtifact(raw)
	if err != nil {
		return
	}
	tenant = s.qos.Tenant(tenant)
	s.cache.Add(key, tenant, raw)
	s.storePutArtifact(key, tenant, raw)
}

// canonicalArtifact returns raw as encoding/json writes a RawMessage:
// compact, with <, >, & and U+2028/U+2029 escaped. Artifacts compiled here
// are json.Marshal output and already in this form; an artifact that enters
// the cache from outside the process (a peer's forward reply, a gossip pull)
// is put in it, so splicing any cached artifact into a reply (writeArtifact)
// is byte-identical to encoding the envelope. It checks and rewrites raw in
// one pass (jsonwire.Compact), failing where json.Marshal fails, and the
// result is a copy of its own exact size: raw usually aliases a whole peer
// reply, which a cache entry must not keep alive.
func canonicalArtifact(raw json.RawMessage) (json.RawMessage, error) {
	if raw == nil {
		return json.RawMessage("null"), nil // as json.Marshal writes a nil RawMessage
	}
	out, err := jsonwire.Compact(make([]byte, 0, len(raw)), raw)
	if err != nil {
		return nil, err
	}
	if len(out) != cap(out) { // whitespace cut or characters escaped
		out = append(make([]byte, 0, len(out)), out...)
	}
	return out, nil
}

// tenantOfOwner maps a store owner tag back to a canonical tenant: the
// store encodes the default tenant as "" (backward compatible with
// pre-tenancy entries), every other owner is canonicalized through the
// registry.
func (s *Server) tenantOfOwner(owner string) string {
	if owner == "" {
		return qos.DefaultClass
	}
	return s.qos.Tenant(owner)
}

// ownerOfTenant is the inverse mapping for writes: the default class is
// stored as owner "" so default-tenant entries keep the historical frame.
func ownerOfTenant(tenant string) string {
	if tenant == qos.DefaultClass {
		return ""
	}
	return tenant
}

// handleCompile serves POST /compile.
func (s *Server) handleCompile(w http.ResponseWriter, r *http.Request) {
	s.serveCompile(w, r, false)
}

// handleRecompile serves POST /recompile.
func (s *Server) handleRecompile(w http.ResponseWriter, r *http.Request) {
	s.serveCompile(w, r, true)
}

func (s *Server) serveCompile(w http.ResponseWriter, r *http.Request, recompile bool) {
	endpoint := "compile"
	if recompile {
		endpoint = "recompile"
	}
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, endpoint, http.StatusMethodNotAllowed, fmt.Errorf("service: %s requires POST", endpoint))
		return
	}
	start := time.Now()
	body, bodyErr := readBody(w, r)
	var digest requestDigest
	if bodyErr == nil {
		// A byte-identical repeat of a request that resolved before is
		// answered from its alias: no decode, no sort, no key.
		digest = digestRequest(endpoint, r.URL.RawQuery, body)
		if key, raw, ok := s.cache.GetDigest(digest); ok {
			s.metrics.observeSuccess(endpoint, s.qos.Tenant(r.Header.Get(qos.TenantHeader)), CacheHit, time.Since(start))
			writeArtifact(w, key, CacheHit, raw)
			return
		}
	}
	p, err := s.parse(r, body, bodyErr, recompile)
	if err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, err)
		return
	}
	raw, state, err := s.serve(p, func() (json.RawMessage, error) {
		return s.buildArtifact(p)
	})
	if err != nil {
		if !s.rejected(w, endpoint, p, err) {
			status := http.StatusInternalServerError
			if errors.As(err, new(compileError)) {
				status = http.StatusUnprocessableEntity
			}
			s.writeErrorClass(w, endpoint, p.tenant, status, err)
		}
		return
	}
	s.cache.Alias(p.key, digest)
	s.metrics.observeSuccess(endpoint, p.tenant, state, time.Since(start))
	writeArtifact(w, p.key, state, raw)
}

// serve resolves a request to its artifact: the in-memory cache, then the
// persistent store, then — inside the singleflight slot — the cluster peer
// layer (a non-owner forwards to the key's owner), and finally a coalesced
// local compile through the admission-controlled worker pool.
func (s *Server) serve(p *parsedRequest, build func() (json.RawMessage, error)) (json.RawMessage, string, error) {
	key := p.key
	if v, ok := s.cache.Get(key); ok {
		return v, CacheHit, nil
	}
	// An artifact evicted from memory — or compiled by a previous process —
	// is a disk read, not a pipeline invocation.
	if v, _, ok := s.storeGetArtifact(key); ok {
		s.cache.Add(key, p.tenant, v)
		return v, CacheStore, nil
	}
	lateHit := false
	peerHit := false
	raw, err, leader := s.flight.Do(key, func() (json.RawMessage, error) {
		// A compile of this key may have finished between the outer cache
		// probe and winning the flight slot; don't compile again.
		if v, ok := s.cache.Get(key); ok {
			lateHit = true
			return v, nil
		}
		// Inside the flight, so a herd of misses makes one forward, and a
		// forwarded request (owner role) never forwards onward. The peer hop
		// is network wait, not compute — it deliberately does not occupy a
		// worker-pool slot.
		if peers := s.peers(); peers != nil && !p.forwarded {
			if v, ok := peers.Resolve(PeerContext{Key: key, Tenant: p.tenant, Query: p.query, Body: p.body, Recompile: p.recompile}); ok {
				if v, err := canonicalArtifact(v); err == nil {
					peerHit = true
					s.cache.Add(key, p.tenant, v)
					s.storePutArtifact(key, p.tenant, v)
					return v, nil
				}
			}
		}
		type result struct {
			raw json.RawMessage
			err error
		}
		done := make(chan result, 1)
		if err := s.pool.TrySubmit(p.tenant, func() {
			if s.compileHook != nil {
				s.compileHook(key)
			}
			raw, err := build()
			done <- result{raw, err}
		}); err != nil {
			return nil, err
		}
		out := <-done
		if out.err == nil {
			s.cache.Add(key, p.tenant, out.raw)
			s.storePutArtifact(key, p.tenant, out.raw)
		}
		return out.raw, out.err
	})
	state := CacheMiss
	switch {
	case lateHit:
		state = CacheHit
	case peerHit:
		state = CachePeer
	case !leader:
		state = CacheCoalesced
	}
	return raw, state, err
}

// buildArtifact runs the pipeline for a parsed request and marshals the
// Result: every phase is resolved on one view (the topology, or its masked
// view under a /recompile's fault mask), verified, simulated and rendered.
// This is the unit of work the cache, the singleflight group and the worker
// pool all guard.
func (s *Server) buildArtifact(p *parsedRequest) (json.RawMessage, error) {
	view := p.topo
	if p.mask != nil {
		view = s.views.masked(p.topoName, p.topo, p.faults)
	}
	res := &Result{
		Program:          p.prog.Name,
		PEs:              p.pes,
		Topology:         p.topoName,
		Scheduler:        p.schedName,
		Faults:           p.mask,
		Reconfigurations: len(p.prog.Phases),
	}
	for _, ph := range p.prog.Phases {
		sched, slots, err := s.verifiedPhase(p, view, ph)
		if err != nil {
			return nil, compileError{fmt.Errorf("phase %q on %s: %w", ph.Name, view.Name(), err)}
		}
		// One simulation per phase covers both the prediction and the
		// single-iteration program time: sum(rc.Cost(degree) + comm).
		res.MaxDegree = max(res.MaxDegree, sched.Degree())
		res.TotalSlots += core.DefaultReconfigCost.Cost(sched.Degree()) + slots
		res.Phases = append(res.Phases, phaseResult(ph, sched, slots))
	}
	return json.Marshal(res)
}

// verifiedPhase resolves one phase on view, lowers the schedule to switch
// programs and traces light through them for every circuit — the one
// verifier, so nothing enters the cache or store unchecked — and returns
// it with its simulated communication time.
func (s *Server) verifiedPhase(p *parsedRequest, view network.Topology, ph core.Phase) (*schedule.Result, int, error) {
	res, _, err := s.resolvePhase(p, view, ph)
	if err != nil {
		return nil, 0, err
	}
	prog, err := switchprog.Compile(res)
	if err != nil {
		return nil, 0, err
	}
	if _, err := optics.NewTracer(prog).VerifySchedule(res.Configs); err != nil {
		return nil, 0, err
	}
	out, err := sim.RunCompiled(res, ph.Messages)
	if err != nil {
		return nil, 0, err
	}
	return res, out.Time, nil
}

// phaseResult renders one served phase to the wire shape; slots is its
// predicted communication time.
func phaseResult(ph core.Phase, res *schedule.Result, slots int) PhaseResult {
	configs := make([][]Pair, len(res.Configs))
	for k, c := range res.Configs {
		configs[k] = make([]Pair, len(c))
		for j, q := range c {
			configs[k][j] = Pair{int(q.Src), int(q.Dst)}
		}
	}
	return PhaseResult{
		Name:           ph.Name,
		Dynamic:        ph.Dynamic,
		Fallback:       ph.Dynamic,
		Algorithm:      res.Algorithm,
		Degree:         res.Degree(),
		PredictedSlots: slots,
		Configs:        configs,
	}
}

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		writeJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: "service: metrics requires GET"})
		return
	}
	var st StoreMetrics
	if s.store != nil {
		m := s.store.Metrics()
		st = StoreMetrics{
			Enabled:     true,
			Entries:     m.Entries,
			Bytes:       m.Bytes,
			Puts:        m.Puts,
			Hits:        m.Hits,
			Misses:      m.Misses,
			Quarantined: m.Quarantined,
		}
	}
	// Structural per-class state (queue depth, cache partition, store
	// usage) is gathered here; the metricsState merges in its per-class
	// counters and histograms.
	classes := make(map[string]ClassMetrics, len(s.qos.Names()))
	for _, c := range s.qos.Classes() {
		cm := ClassMetrics{Weight: c.Weight}
		cm.QueueDepth, cm.QueueCapacity = s.pool.ClassDepth(c.Name)
		cm.CacheEntries, cm.CacheCapacity, cm.CacheEvictions = s.cache.PartitionMetrics(c.Name)
		if s.store != nil {
			u := s.store.Usage(ownerOfTenant(c.Name))
			cm.StoreEntries, cm.StoreBytes, cm.StoreEvictions = u.Entries, u.Bytes, u.Evictions
		}
		classes[c.Name] = cm
	}
	snap := s.metrics.snapshot(s.topo.Name(), s.scheduler.Name(), s.cache.Metrics(), st, s.deltaBound, s.pool.Metrics(), classes)
	writeJSON(w, http.StatusOK, snap)
}

// handleHealthz serves GET /healthz.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, `{"status":"ok"}`)
}

// rejected answers err if it is the worker pool turning a request away —
// 429 with the tenant class's own Retry-After when its queue is full, 503
// while the daemon drains — and reports whether it was.
func (s *Server) rejected(w http.ResponseWriter, endpoint string, p *parsedRequest, err error) bool {
	switch {
	case errors.Is(err, ErrOverloaded):
		w.Header().Set("Retry-After", strconv.Itoa(int((p.class.RetryAfter+time.Second-1)/time.Second)))
		s.metrics.observeFailure(endpoint, p.tenant, true)
		writeJSON(w, http.StatusTooManyRequests, ErrorBody{Error: err.Error()})
	case errors.Is(err, ErrDraining):
		s.writeErrorClass(w, endpoint, p.tenant, http.StatusServiceUnavailable, err)
	default:
		return false
	}
	return true
}

func (s *Server) writeError(w http.ResponseWriter, endpoint string, status int, err error) {
	s.writeErrorClass(w, endpoint, qos.DefaultClass, status, err)
}

// writeErrorClass is writeError billed to a specific tenant class.
func (s *Server) writeErrorClass(w http.ResponseWriter, endpoint, tenant string, status int, err error) {
	s.metrics.observeFailure(endpoint, tenant, false)
	writeJSON(w, status, ErrorBody{Error: err.Error()})
}

// writeArtifact writes a 200 /compile or /recompile reply by splicing the
// cached artifact into the Response envelope. The bytes equal json.Encoder's
// encoding of Response{key, state, raw}: key is a hex digest and state a
// Cache* constant, so neither needs escaping, and every cached artifact is
// canonical (see canonicalArtifact).
func writeArtifact(w http.ResponseWriter, key, state string, raw json.RawMessage) {
	head := make([]byte, 0, 40+len(key)+len(state))
	head = append(head, `{"key":"`...)
	head = append(head, key...)
	head = append(head, `","cache":"`...)
	head = append(head, state...)
	head = append(head, `","result":`...)
	const tail = "}\n"
	h := w.Header()
	h.Set("Content-Type", "application/json")
	h.Set("Content-Length", strconv.Itoa(len(head)+len(raw)+len(tail)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(head)
	_, _ = w.Write(raw)
	_, _ = io.WriteString(w, tail)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}
