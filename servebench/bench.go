package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"repro/internal/cluster"
	"repro/internal/network"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/topology"
	"repro/internal/trace"
)

// Workload names.
const (
	warmHit        = "warm-hit"
	coldCompile    = "cold-compile"
	sessionStore   = "session-store"
	clusterForward = "cluster-forward"
)

var workloads = []string{warmHit, coldCompile, sessionStore, clusterForward}

const (
	numClients   = 2   // closed-loop callers; never more than nproc on the reference host
	numPrograms  = 64  // /compile working set of warm-hit and cluster-forward
	coldPool     = 256 // patterns cold-compile renames into fresh keys
	defaultCache = 256 // the daemon's default CacheEntries
	forwardCache = 8   // node 0's CacheEntries on cluster-forward
	warmupSteps  = 16  // MoE steps of session-store's warm-up (32 saved bases)
	slotSteps    = 128 // fresh MoE steps in session-store's program_slots set
)

// job is one request a client sends.
type job struct {
	doc     trace.Document
	session bool
	// group identifies requests that must get byte-identical replies;
	// -1 marks a request that is unique (checked on its own).
	group int
	// named marks cold-compile requests, whose artifacts differ from their
	// group's only in the echoed program name.
	named bool
	// inSet marks a request of the fixed program set program_slots and
	// schedule.degree_slack average over.
	inSet bool
}

// program identifies the program of a request in the fixed set, or is ""
// outside it.
func (j job) program() string {
	switch {
	case !j.inSet:
		return ""
	case j.group >= 0:
		return fmt.Sprintf("group-%d", j.group)
	}
	return j.doc.Name
}

// bench holds one run's inputs. They are generated from the seed before any
// daemon starts and are identical in every run of that seed.
type bench struct {
	opt  options
	topo string // topology name every daemon compiles against
	alg  string

	programs [][]trace.Document // per client: warm-hit / cluster-forward programs
	order    [][]int            // per client: seeded request order over its programs

	pool, coldWarm []trace.Document // cold-compile

	repeats [][]trace.Document // session-store: per client, its renamed repeat copies
	history []trace.Document   // session-store: repeats of the earlier daemon life
}

func newBench(opt options) (*bench, error) {
	b := &bench{opt: opt, topo: topology.NewTorus(8, 8).Name(), alg: schedule.Combined{}.Name()}
	s := opt.seed
	switch opt.workload {
	case warmHit:
		docs, err := redistDocs(s, "warm-hit", numPrograms, nil)
		if err != nil {
			return nil, err
		}
		b.splitPrograms(docs)
	case clusterForward:
		ring := cluster.NewRing(nodeURLs(), cluster.DefaultVNodes)
		docs, err := redistDocs(s, "cluster-forward", numPrograms, func(d trace.Document) bool {
			key, err := service.KeyForDocument(d, b.topo, b.alg)
			return err == nil && ring.Owner(key) != nodeURLs()[0]
		})
		if err != nil {
			return nil, err
		}
		b.splitPrograms(docs)
	case coldCompile:
		var err error
		if b.pool, err = redistDocs(s, "cold-compile", coldPool, nil); err != nil {
			return nil, err
		}
		// The warm-up fills the daemon's whole LRU, so every timed insert
		// evicts from the first request on.
		if b.coldWarm, err = redistDocs(s, "cold-compile-warmup", defaultCache, nil); err != nil {
			return nil, err
		}
		for c := 0; c < numClients; c++ {
			b.order = append(b.order, permutation(s, fmt.Sprintf("cold-compile-order-%d", c), coldPool))
		}
	case sessionStore:
		reps, err := repeatDocs(s, "session")
		if err != nil {
			return nil, err
		}
		for c := 0; c < numClients; c++ {
			var own []trace.Document
			for _, d := range reps {
				own = append(own, renamed(d, fmt.Sprintf("%s@c%d", d.Name, c)))
			}
			b.repeats = append(b.repeats, own)
			b.order = append(b.order, permutation(s, fmt.Sprintf("session-order-%d", c), len(own)))
		}
		if b.history, err = repeatDocs(s, "session-history"); err != nil {
			return nil, err
		}
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", opt.workload, workloads)
	}
	return b, nil
}

// splitPrograms deals the stratified programs to the clients alternately,
// so each client spans the whole size range and no key is ever in flight
// from both clients at once.
func (b *bench) splitPrograms(docs []trace.Document) {
	b.programs = make([][]trace.Document, numClients)
	for i, d := range docs {
		b.programs[i%numClients] = append(b.programs[i%numClients], d)
	}
	for c := range b.programs {
		b.order = append(b.order, permutation(b.opt.seed, fmt.Sprintf("%s-order-%d", b.opt.workload, c), len(b.programs[c])))
	}
}

// job returns request i of client c's timed sequence.
func (b *bench) job(c, i int) (job, error) {
	switch b.opt.workload {
	case warmHit, clusterForward:
		k := b.order[c][i%len(b.order[c])]
		return job{doc: b.programs[c][k], group: k*numClients + c, inSet: true}, nil
	case coldCompile:
		k := b.order[c][i%coldPool]
		return job{doc: renamed(b.pool[k], fmt.Sprintf("cold-c%d-%d", c, i)), group: k, named: true, inSet: true}, nil
	default: // sessionStore
		// Client 1 alternates a fresh MoE step with a repeat; client 0
		// sends only repeats. Fresh steps therefore reach the store in
		// seed order whatever the interleaving.
		if c == 1 && i%2 == 0 {
			doc, err := moeStep(b.opt.seed, "moe-step", i/2)
			return job{doc: doc, session: true, group: -1, inSet: i/2 < slotSteps}, err
		}
		if c == 1 {
			i /= 2
		}
		k := b.order[c][i%len(b.order[c])]
		return job{doc: b.repeats[c][k], session: true, group: k*numClients + c, inSet: true}, nil
	}
}

// setLen is the length of the prefix of client c's session-store sequence
// that holds its share of the fixed program set program_slots averages
// over: its repeats and, on client 1, the first slotSteps fresh MoE steps.
// The /compile workloads' set is every program; passJobs completes it.
func (b *bench) setLen(c int) int {
	if b.opt.workload != sessionStore {
		return 0
	}
	if c == 1 {
		return 2 * max(slotSteps, len(b.repeats[c]))
	}
	return len(b.repeats[c])
}

// passJobs is one request for every /compile program of the workload, in a
// fixed order: each warm-hit or cluster-forward program, and each of
// cold-compile's patterns under a fresh key.
func (b *bench) passJobs() []job {
	var out []job
	switch b.opt.workload {
	case warmHit, clusterForward:
		for c, progs := range b.programs {
			for k, doc := range progs {
				out = append(out, job{doc: doc, group: k*numClients + c, inSet: true})
			}
		}
	case coldCompile:
		for k, doc := range b.pool {
			out = append(out, job{doc: renamed(doc, fmt.Sprintf("pass-%d", k)), group: k, named: true, inSet: true})
		}
	}
	return out
}

func nodeURLs() []string { return []string{"http://n0", "http://n1", "http://n2"} }

// deployment is one set of running daemons plus the clients that call them.
type deployment struct {
	net     *memNet
	svcs    []*service.Server
	nodes   []*cluster.Node
	entry   string
	topo    network.Topology // the entry daemon's topology instance
	clients []*loadClient
	admin   *http.Client

	newDur   time.Duration // service.New of the daemon the clients call
	setupDur time.Duration
	storeDir string             // removed on close
	topos    []network.Topology // one per daemon
}

func (d *deployment) close() {
	for _, c := range d.clients {
		c.tr.CloseIdleConnections()
	}
	d.net.close()
	for _, s := range d.svcs {
		s.Close()
	}
	// The route cache is process-wide and keyed by topology instance;
	// release this deployment's routes so the next one's live heap holds
	// only its own.
	for _, t := range d.topos {
		network.InvalidateRoutes(t)
	}
	if d.storeDir != "" {
		_ = os.RemoveAll(d.storeDir) // best effort: a leftover store only costs disk
	}
}

// deploy starts the workload's daemons and runs its untimed fill and
// warm-up. tr, when non-nil, traces the handlers and the peer hop.
func (b *bench) deploy(ctx context.Context, rep int, tr *tracer) (*deployment, error) {
	start := time.Now()
	d := &deployment{net: newMemNet()}
	var err error
	switch b.opt.workload {
	case warmHit, coldCompile:
		err = b.deploySingle(ctx, d, tr)
	case sessionStore:
		err = b.deploySession(ctx, d, rep, tr)
	case clusterForward:
		err = b.deployCluster(ctx, d, tr)
	}
	if err != nil {
		d.close()
		return nil, err
	}
	runtime.GC()
	d.setupDur = time.Since(start)
	return d, nil
}

// newService builds one daemon of d on a fresh topology instance, timing
// New.
func (d *deployment) newService(cfg service.Config) (*service.Server, network.Topology, time.Duration, error) {
	topo := topology.NewTorus(8, 8)
	cfg.Topology = topo
	t0 := time.Now()
	svc, err := service.New(cfg)
	if err == nil {
		d.svcs, d.topos = append(d.svcs, svc), append(d.topos, topo)
	}
	return svc, topo, time.Since(t0), err
}

func (d *deployment) addClients(tr *tracer) {
	for c := 0; c < numClients; c++ {
		d.clients = append(d.clients, newLoadClient(c, d.net, d.entry, tr))
	}
	d.admin, _ = d.net.client(nil)
}

func (b *bench) deploySingle(ctx context.Context, d *deployment, tr *tracer) error {
	svc, topo, dur, err := d.newService(service.Config{})
	if err != nil {
		return err
	}
	d.topo, d.newDur = topo, dur
	d.entry = d.net.serve("daemon", tracedHandler(svc, tr, spanHandler))
	d.addClients(tr)
	if b.opt.workload == warmHit {
		return b.fillPrograms(ctx, d)
	}
	// cold-compile: warm-up programs come from their own stream.
	return d.eachClient(func(c *loadClient) error {
		for i := c.id; i < len(b.coldWarm); i += numClients {
			doc := renamed(b.coldWarm[i], fmt.Sprintf("warm-c%d-%d", c.id, i))
			if _, _, err := c.api.Compile(ctx, doc, client.Options{}); err != nil {
				return err
			}
		}
		return nil
	})
}

// deploySession runs an earlier daemon life that populates a fresh store
// with the repeats' bases and artifacts, then restarts over that store (warm
// boot) and warms up sequentially so the base index ends in the same state
// in every run.
func (b *bench) deploySession(ctx context.Context, d *deployment, rep int, tr *tracer) error {
	dir := filepath.Join(b.opt.dir, fmt.Sprintf("store-%d-%d", os.Getpid(), rep))
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	d.storeDir = dir
	cfg := service.Config{StoreDir: dir}
	hist := &deployment{net: newMemNet()}
	old, _, _, err := hist.newService(cfg)
	if err != nil {
		return err
	}
	hist.entry = hist.net.serve("history", old)
	hist.addClients(nil)
	c := hist.clients[0]
	for _, doc := range b.history {
		if _, err := c.api.Session(ctx, doc, client.Options{}, nil); err == nil {
			_, _, err = c.api.Compile(ctx, doc, client.Options{})
		}
		if err != nil {
			hist.close()
			return fmt.Errorf("store history: %w", err)
		}
	}
	hist.close()

	svc, topo, dur, err := d.newService(cfg)
	if err != nil {
		return err
	}
	d.topo, d.newDur = topo, dur
	d.entry = d.net.serve("daemon", tracedHandler(svc, tr, spanHandler))
	d.addClients(tr)
	for _, c := range d.clients {
		for _, doc := range b.repeats[c.id] {
			if _, err := c.api.Session(ctx, doc, client.Options{}, nil); err != nil {
				return fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	steps, err := b.warmupSteps()
	if err != nil {
		return err
	}
	for _, doc := range steps {
		if _, err := d.clients[1].api.Session(ctx, doc, client.Options{}, nil); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// warmupSteps returns the MoE steps of session-store's warm-up, in the
// order they are sent. Their bases fill the daemon's nearest-base index.
func (b *bench) warmupSteps() ([]trace.Document, error) {
	var docs []trace.Document
	for i := 0; i < warmupSteps; i++ {
		doc, err := moeStep(b.opt.seed, "moe-warmup", i)
		if err != nil {
			return nil, err
		}
		docs = append(docs, doc)
	}
	return docs, nil
}

// deployCluster starts three nodes joined over the in-memory network
// (replication 1, no gossip or probe loops); the clients call node 0, whose
// small cache cannot hold the working set, and every program is owned and
// warm on node 1 or 2.
func (b *bench) deployCluster(ctx context.Context, d *deployment, tr *tracer) error {
	urls := nodeURLs()
	peerClient, _ := d.net.client(func(rt http.RoundTripper) http.RoundTripper { return &peerRT{next: rt, t: tr} })
	for i, u := range urls {
		cfg := service.Config{}
		if i == 0 {
			cfg.CacheEntries = forwardCache
		}
		svc, topo, dur, err := d.newService(cfg)
		if err != nil {
			return err
		}
		node, err := cluster.NewNode(svc, cluster.Config{Self: u, Peers: urls, Replication: 1, HTTPClient: peerClient})
		if err != nil {
			return err
		}
		svc.SetPeers(node)
		d.nodes = append(d.nodes, node)
		name := spanOwner
		if i == 0 {
			d.topo, d.newDur, name = topo, dur, spanHandler
		}
		d.net.serve(u[len("http://"):], tracedHandler(node, tr, name))
	}
	d.entry = urls[0]
	d.addClients(tr)
	return b.fillPrograms(ctx, d)
}

// fillPrograms compiles every program once (the fill), then sends one
// warm-up pass in the timed order, so the timed window starts where a
// steady-state pass would.
func (b *bench) fillPrograms(ctx context.Context, d *deployment) error {
	for pass := 0; pass < 2; pass++ {
		if err := d.eachClient(func(c *loadClient) error {
			for i := range b.programs[c.id] {
				j, _ := b.job(c.id, i)
				if _, _, err := c.api.Compile(ctx, j.doc, client.Options{}); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// eachClient runs fn on every client concurrently and waits for all.
func (d *deployment) eachClient(fn func(c *loadClient) error) error {
	errs := make(chan error, len(d.clients))
	for _, c := range d.clients {
		go func(c *loadClient) { errs <- fn(c) }(c)
	}
	var first error
	for range d.clients {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

// counters is the daemon-side state the per-layer counts are deltas of.
type counters struct {
	svc     *service.MetricsSnapshot
	cluster *cluster.Status
	mem     runtime.MemStats
}

func (d *deployment) counters(ctx context.Context) (*counters, error) {
	out := &counters{}
	var err error
	if out.svc, err = (&client.Client{BaseURL: d.entry, HTTPClient: d.admin}).Metrics(ctx); err != nil {
		return nil, err
	}
	if len(d.nodes) > 0 {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.entry+"/cluster", nil)
		if err != nil {
			return nil, err
		}
		resp, err := d.admin.Do(req)
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		data, err := io.ReadAll(resp.Body)
		if err != nil {
			return nil, err
		}
		out.cluster = &cluster.Status{}
		if err := json.Unmarshal(data, out.cluster); err != nil {
			return nil, fmt.Errorf("decoding /cluster: %w", err)
		}
	}
	runtime.ReadMemStats(&out.mem)
	return out, nil
}
