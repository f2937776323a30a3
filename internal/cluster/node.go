package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/qos"
	"repro/internal/service"
)

// DefaultReplication is the replica-set size R: every key has one owner
// plus R-1 clockwise successors that gossip pulls it to, so one node death
// never loses a warm key.
const DefaultReplication = 2

// DefaultGossipInterval paces the background probe/gossip loop.
const DefaultGossipInterval = time.Second

// maxPeerBody bounds peer replies read into memory (forwarded artifacts,
// digests); matches the service's own request bound.
const maxPeerBody = 32 << 20

// Config parameterizes a Node. Self and the service are required; zero
// values elsewhere select production defaults.
type Config struct {
	// Self is this node's advertised base URL, e.g. "http://10.0.0.1:8080".
	// It must match what peers were given in their own Peers lists — ring
	// placement hashes these strings.
	Self string
	// Peers lists the other members' base URLs (Self is filtered out, so
	// passing the full cluster roster to every node is fine).
	Peers []string
	// Replication is the replica-set size R; 0 means DefaultReplication,
	// values beyond the member count are clamped by the ring.
	Replication int
	// VNodes is the per-member virtual-node count; 0 means ring.DefaultVNodes.
	VNodes int
	// GossipInterval paces the probe/gossip loop; 0 means
	// DefaultGossipInterval.
	GossipInterval time.Duration
	// ForwardTimeout bounds one peer-compile hop (the owner may have to run
	// the pipeline); 0 means 60s.
	ForwardTimeout time.Duration
	// ProbeTimeout bounds one liveness probe or digest exchange; 0 means 2s.
	ProbeTimeout time.Duration
	// HTTPClient overrides the transport for all peer traffic (tests).
	HTTPClient *http.Client
	// Logf, when set, receives membership and gossip events.
	Logf func(format string, args ...any)
}

// Node federates one local compile daemon into the cluster: it fronts the
// service's HTTP mux with the peer protocol (/peer/compile, /peer/fetch,
// /peer/digest, /peer/ping) and the /cluster status endpoint, implements
// service.PeerResolver so local misses forward to the key's owner, and
// runs the anti-entropy gossip loop. Construct with NewNode, install with
// service.Server.SetPeers, serve it in place of the service handler, and
// Start the loop.
type Node struct {
	svc      *service.Server
	self     string
	repl     int
	vnodes   int
	interval time.Duration

	fwdTimeout   time.Duration
	probeTimeout time.Duration
	client       *http.Client

	members *membership
	mux     *http.ServeMux
	logf    func(format string, args ...any)

	// ringMu guards the membership-versioned ring cache.
	ringMu      sync.Mutex
	cachedRing  *Ring
	ringVersion uint64
	ringDirty   bool

	// rngMu guards the gossip partner picker.
	rngMu    sync.Mutex
	rngState uint64

	draining atomic.Bool

	started  atomic.Bool
	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}

	metrics counters
}

// NewNode builds a Node around a service.Server.
func NewNode(svc *service.Server, cfg Config) (*Node, error) {
	if svc == nil {
		return nil, fmt.Errorf("cluster: service is required")
	}
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Config.Self is required")
	}
	if cfg.Replication <= 0 {
		cfg.Replication = DefaultReplication
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = DefaultVNodes
	}
	if cfg.GossipInterval <= 0 {
		cfg.GossipInterval = DefaultGossipInterval
	}
	if cfg.ForwardTimeout <= 0 {
		cfg.ForwardTimeout = 60 * time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 2 * time.Second
	}
	if cfg.HTTPClient == nil {
		cfg.HTTPClient = &http.Client{}
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	n := &Node{
		svc:          svc,
		self:         cfg.Self,
		repl:         cfg.Replication,
		vnodes:       cfg.VNodes,
		interval:     cfg.GossipInterval,
		fwdTimeout:   cfg.ForwardTimeout,
		probeTimeout: cfg.ProbeTimeout,
		client:       cfg.HTTPClient,
		members:      newMembership(cfg.Self, cfg.Peers),
		mux:          http.NewServeMux(),
		logf:         cfg.Logf,
		ringDirty:    true,
		rngState:     hash64(cfg.Self) | 1,
		stop:         make(chan struct{}),
		done:         make(chan struct{}),
	}
	n.mux.HandleFunc("/peer/compile", func(w http.ResponseWriter, r *http.Request) { n.handlePeerCompile(w, r, false) })
	n.mux.HandleFunc("/peer/recompile", func(w http.ResponseWriter, r *http.Request) { n.handlePeerCompile(w, r, true) })
	n.mux.HandleFunc("/peer/fetch", n.handlePeerFetch)
	n.mux.HandleFunc("/peer/digest", n.handlePeerDigest)
	n.mux.HandleFunc("/peer/ping", n.handlePeerPing)
	n.mux.HandleFunc("/cluster", n.handleStatus)
	n.mux.Handle("/", svc)
	return n, nil
}

// ServeHTTP implements http.Handler: peer and status endpoints first,
// everything else falls through to the wrapped service.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) { n.mux.ServeHTTP(w, r) }

// Self returns this node's advertised URL.
func (n *Node) Self() string { return n.self }

// Replication returns the configured replica-set size R.
func (n *Node) Replication() int { return n.repl }

// SetDraining marks the node as leaving: /peer/ping answers 503 so peers
// cut it from their rings within a few probe rounds instead of waiting for
// connection failures, and gossip partners stop pulling toward it.
func (n *Node) SetDraining(v bool) { n.draining.Store(v) }

// ring returns the consistent-hash ring over the currently non-dead
// membership, rebuilt only when a member crosses the dead boundary.
func (n *Node) ring() *Ring {
	members, version := n.members.ringMembers()
	n.ringMu.Lock()
	defer n.ringMu.Unlock()
	if n.cachedRing == nil || n.ringDirty || n.ringVersion != version {
		n.cachedRing = NewRing(members, n.vnodes)
		n.ringVersion = version
		n.ringDirty = false
	}
	return n.cachedRing
}

// Owners returns the key's current owner + replica list, for status and
// tests.
func (n *Node) Owners(key string) []string { return n.ring().Owners(key, n.repl) }

// responsible reports whether this node is in the key's replica set on the
// current ring.
func (n *Node) responsible(key string) bool {
	for _, o := range n.ring().Owners(key, n.repl) {
		if o == n.self {
			return true
		}
	}
	return false
}

// Resolve implements service.PeerResolver: called by the service on a
// local cache+store miss, inside the key's singleflight slot. An owner or
// replica compiles locally (returns ok=false); a non-owner forwards the
// request to each member of the replica set in ownership order and returns
// the first artifact. If every owner is unreachable the node compiles
// locally — a partitioned cluster degrades to independent daemons, it
// never refuses service.
func (n *Node) Resolve(pc service.PeerContext) (json.RawMessage, bool) {
	owners := n.ring().Owners(pc.Key, n.repl)
	for _, o := range owners {
		if o == n.self {
			n.metrics.ownedLocal.Add(1)
			return nil, false
		}
	}
	for _, o := range owners {
		raw, err := n.forward(o, pc)
		if err == nil {
			n.metrics.forwardHits.Add(1)
			return raw, true
		}
		n.metrics.forwardErrors.Add(1)
		n.members.observeFailure(o)
		n.logf("forward to %s failed: %v", o, err)
	}
	n.metrics.forwardFallbacks.Add(1)
	return nil, false
}

// forward replays one compile request against a peer's /peer/compile (or
// /peer/recompile) and returns the raw artifact from its response
// envelope.
func (n *Node) forward(peer string, pc service.PeerContext) (json.RawMessage, error) {
	endpoint := "/peer/compile"
	if pc.Recompile {
		endpoint = "/peer/recompile"
	}
	u := peer + endpoint
	if enc := pc.Query.Encode(); enc != "" {
		u += "?" + enc
	}
	req, err := http.NewRequest(http.MethodPost, u, bytes.NewReader(pc.Body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(service.ForwardedHeader, n.self)
	if pc.Tenant != "" {
		// Bill the owner-side compile to the originating tenant's class,
		// not the default tenant of a headerless internal request.
		req.Header.Set(qos.TenantHeader, pc.Tenant)
	}
	resp, body, err := n.roundTrip(req, n.fwdTimeout)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("cluster: %s answered %d: %s", u, resp.StatusCode, truncate(body))
	}
	envelope, _, err := service.DecodeResponse(body)
	if err != nil {
		return nil, fmt.Errorf("cluster: decoding %s reply: %w", u, err)
	}
	if envelope.Key != pc.Key {
		return nil, fmt.Errorf("cluster: %s resolved key %s, want %s", u, envelope.Key, pc.Key)
	}
	n.members.observeAlive(peer)
	return envelope.Result, nil
}

// roundTrip performs one peer request under a timeout and reads the
// bounded body.
func (n *Node) roundTrip(req *http.Request, timeout time.Duration) (*http.Response, []byte, error) {
	ctx, cancel := contextWithTimeout(req.Context(), timeout)
	defer cancel()
	resp, err := n.client.Do(req.WithContext(ctx))
	if err != nil {
		return nil, nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, maxPeerBody))
	if err != nil {
		return nil, nil, err
	}
	return resp, body, nil
}

// handlePeerCompile serves a forwarded compile: this node is (or recently
// was) the key's owner. It rewrites the request onto the service's own
// /compile path with the forwarded marker intact, so the service's cache,
// singleflight and worker pool apply exactly as they would to a direct
// request — that shared flight is what makes a key compile once
// cluster-wide.
func (n *Node) handlePeerCompile(w http.ResponseWriter, r *http.Request, recompile bool) {
	n.metrics.peerCompiles.Add(1)
	if from := r.Header.Get(service.ForwardedHeader); from != "" {
		n.members.observeAlive(from)
	} else {
		r.Header.Set(service.ForwardedHeader, "direct")
	}
	r2 := r.Clone(r.Context())
	r2.URL = cloneURL(r.URL)
	if recompile {
		r2.URL.Path = "/recompile"
	} else {
		r2.URL.Path = "/compile"
	}
	n.svc.ServeHTTP(w, r2)
}

// handlePeerFetch serves GET /peer/fetch?key=K: the raw warm artifact, 404
// when this node would have to compile it. Gossip anti-entropy pulls
// through here.
func (n *Node) handlePeerFetch(w http.ResponseWriter, r *http.Request) {
	key := r.URL.Query().Get("key")
	if key == "" {
		http.Error(w, `{"error":"cluster: fetch requires ?key="}`, http.StatusBadRequest)
		return
	}
	raw, tenant, ok := n.svc.ArtifactGetOwned(key)
	if !ok {
		http.Error(w, `{"error":"cluster: artifact not warm here"}`, http.StatusNotFound)
		return
	}
	n.metrics.peerFetches.Add(1)
	w.Header().Set("Content-Type", "application/json")
	// Ownership replicates with content: the puller bills its copy to the
	// same tenant, so replication respects per-tenant quotas cluster-wide.
	w.Header().Set(qos.TenantHeader, tenant)
	_, _ = w.Write(raw)
}

// handlePeerPing serves GET /peer/ping, the liveness probe target. A
// draining node answers 503 so peers shrink their rings ahead of the
// actual exit.
func (n *Node) handlePeerPing(w http.ResponseWriter, r *http.Request) {
	if from := r.Header.Get(service.ForwardedHeader); from != "" {
		n.members.observeAlive(from)
	}
	if n.draining.Load() {
		http.Error(w, `{"status":"draining"}`, http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	fmt.Fprintf(w, "{\"node\":%q}\n", n.self)
}

// Status is the /cluster document.
type Status struct {
	Self           string         `json:"self"`
	Replication    int            `json:"replication"`
	VNodes         int            `json:"vnodes"`
	GossipInterval string         `json:"gossip_interval"`
	Draining       bool           `json:"draining"`
	Members        []MemberStatus `json:"members"`
	RingNodes      []string       `json:"ring_nodes"`
	// WarmKeys is how many artifacts this node serves without compiling;
	// OwnedKeys how many of those it currently owns (primary); ReplicaKeys
	// how many it holds as a replica or orphan.
	WarmKeys    int             `json:"warm_keys"`
	OwnedKeys   int             `json:"owned_keys"`
	ReplicaKeys int             `json:"replica_keys"`
	Metrics     MetricsSnapshot `json:"metrics"`
}

// handleStatus serves GET /cluster.
func (n *Node) handleStatus(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		w.Header().Set("Allow", http.MethodGet)
		http.Error(w, `{"error":"cluster: status requires GET"}`, http.StatusMethodNotAllowed)
		return
	}
	ring := n.ring()
	keys := n.svc.ArtifactKeys()
	owned := 0
	for _, k := range keys {
		if ring.Owner(k) == n.self {
			owned++
		}
	}
	st := Status{
		Self:           n.self,
		Replication:    n.repl,
		VNodes:         n.vnodes,
		GossipInterval: n.interval.String(),
		Draining:       n.draining.Load(),
		Members:        n.members.snapshot(),
		RingNodes:      ring.Nodes(),
		WarmKeys:       len(keys),
		OwnedKeys:      owned,
		ReplicaKeys:    len(keys) - owned,
		Metrics:        n.snapshotMetrics(),
	}
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

func cloneURL(u *url.URL) *url.URL {
	c := *u
	return &c
}

func truncate(b []byte) string {
	const max = 200
	if len(b) > max {
		b = b[:max]
	}
	return string(bytes.TrimSpace(b))
}
