package service

import (
	"encoding/json"
	"sync"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/store"
	"repro/internal/topology"
)

// This file is the service's persistence and incremental-recompilation
// layer: the glue between the in-memory LRU, the on-disk schedule store
// (internal/store) and the delta recompiler (internal/delta).
//
//   - whole-program JSON artifacts are written through to the store under
//     their program key, read back on LRU misses ("store" cache state) and
//     preloaded into the LRU at boot, so a restarted daemon serves
//     byte-identical hits with zero pipeline invocations;
//   - per-phase schedules are written under store.BaseKey as delta base
//     material; resolvePhase reuses an exact base verbatim or patches the
//     nearest one, and rebases a healthy base onto a /recompile's fault
//     mask instead of scheduling the masked view from scratch.

// maxBaseCandidates bounds the per-topology candidate list of the
// nearest-base index. Diffing a target against every candidate is linear in
// pattern size, so the list stays small; the exact-key path does not go
// through it and is unbounded.
const maxBaseCandidates = 32

// maxViews bounds the topology-view table: besides the daemon's own
// topology it keeps the handful of named topologies (?topology=) and fault
// masks requests are actively using, with their warm route tables, instead
// of building a cold instance per request. An evicted view's route table
// goes with it.
const maxViews = 8

// maxSpellings bounds the table of topology spellings that are not a
// canonical name (topology.Parse's colon form, "dragonfly:4,8,2").
const maxSpellings = 64

// viewKey names one view: a topology by name, plus the canonical fault-set
// string for a masked view ("" for the healthy topology).
type viewKey struct{ topo, faults string }

// viewCache is the daemon's table of topology instances. Each instance
// carries its own route table, so every request naming a topology or a
// fault mask shares one instance of it and routes on a warm table. Views
// are read-only after construction, so concurrent requests share them
// freely.
type viewCache struct {
	mu  sync.Mutex
	own viewKey // the daemon's own topology, never evicted
	m   map[viewKey]network.Topology
	// canon maps a spelling other than a canonical name to the name it
	// parses to. It names views, never holds them, so each view has one
	// key in m and evicting it drops the only reference the table holds.
	canon map[string]string
}

func newViewCache(own network.Topology) *viewCache {
	k := viewKey{topo: own.Name()}
	return &viewCache{own: k, m: map[viewKey]network.Topology{k: own}, canon: make(map[string]string)}
}

// named returns the shared instance of the topology a request names,
// parsing spec, outside the lock, only when the table holds no topology of
// that name or spelling.
func (c *viewCache) named(spec string) (network.Topology, error) {
	c.mu.Lock()
	name := spec
	if n, ok := c.canon[spec]; ok {
		name = n
	}
	t, ok := c.m[viewKey{topo: name}]
	c.mu.Unlock()
	if ok {
		return t, nil
	}
	t, err := topology.Parse(spec)
	if err != nil {
		return nil, err
	}
	k := viewKey{topo: t.Name()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if k.topo != spec {
		if len(c.canon) >= maxSpellings {
			clear(c.canon)
		}
		c.canon[spec] = k.topo
	}
	if shared, ok := c.m[k]; ok {
		return shared, nil
	}
	c.insert(k, t)
	return t, nil
}

// masked returns the shared masked view for (topoName, faults), building it
// on first use.
func (c *viewCache) masked(topoName string, topo network.Topology, faults *fault.Set) *fault.Masked {
	k := viewKey{topoName, faults.String()}
	c.mu.Lock()
	defer c.mu.Unlock()
	if m, ok := c.m[k].(*fault.Masked); ok {
		return m
	}
	m := fault.NewMasked(topo, faults)
	c.insert(k, m)
	return m
}

// insert adds a view, first evicting others (never the daemon's own) while
// the table is full. Caller holds mu.
func (c *viewCache) insert(k viewKey, t network.Topology) {
	for len(c.m) > maxViews { // rare: more live views than the cap
		for victimKey := range c.m {
			if victimKey != c.own {
				delete(c.m, victimKey)
				break
			}
		}
	}
	c.m[k] = t
}

type baseCandidate struct {
	key  string
	reqs request.Set
	// res caches the decoded schedule so the delta path patches from memory
	// instead of re-reading, re-decoding and re-validating the store entry
	// on every request. nil until first decoded (warm boot registers
	// patterns only); bounded by maxBaseCandidates like everything else in
	// the index. Cached results are shared read-only.
	res *schedule.Result
	// checked records whether res passed the exact-multiset validation the
	// exact-key path demands; nearest-base material is cached unchecked and
	// validated once if an exact hit ever needs it.
	checked bool
}

// baseIndex is the small in-memory candidate index over the store's base
// schedules: per topology, the most recently saved patterns with their
// store keys and decoded schedules, so nearest-base selection never scans
// the disk and steady-state patching never touches it at all.
type baseIndex struct {
	mu   sync.Mutex
	topo map[string][]baseCandidate
}

func newBaseIndex() *baseIndex { return &baseIndex{topo: make(map[string][]baseCandidate)} }

func (b *baseIndex) add(topoName, key string, reqs request.Set, res *schedule.Result) {
	b.mu.Lock()
	defer b.mu.Unlock()
	list := b.topo[topoName]
	for i := range list {
		if list[i].key == key {
			list[i].reqs = reqs
			if res != nil {
				list[i].res, list[i].checked = res, true
			}
			return
		}
	}
	list = append(list, baseCandidate{key: key, reqs: reqs, res: res, checked: res != nil})
	if len(list) > maxBaseCandidates {
		list = list[len(list)-maxBaseCandidates:]
	}
	b.topo[topoName] = list
}

// cached returns the decoded schedule for a key, if the index holds one,
// and whether it has passed exact-multiset validation.
func (b *baseIndex) cached(topoName, key string) (*schedule.Result, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, c := range b.topo[topoName] {
		if c.key == key {
			return c.res, c.checked
		}
	}
	return nil, false
}

// fill attaches a freshly decoded schedule to an already registered key; a
// key no longer in the index (trimmed since) is ignored.
func (b *baseIndex) fill(topoName, key string, res *schedule.Result, checked bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	list := b.topo[topoName]
	for i := range list {
		if list[i].key == key {
			list[i].res = res
			list[i].checked = list[i].checked || checked
			return
		}
	}
}

// nearest returns the store key of the candidate whose pattern has the
// smallest multiset diff against target (earliest-saved wins ties, so the
// choice is deterministic), skipping exclude. A base farther than half the
// target's size is no base at all — patching it would rewrite most of the
// schedule — so none is returned.
func (b *baseIndex) nearest(topoName string, target request.Set, exclude string) (string, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	bestKey, bestSize := "", -1
	for _, c := range b.topo[topoName] {
		if c.key == exclude {
			continue
		}
		if d := delta.Compute(c.reqs, target).Size(); bestSize < 0 || d < bestSize {
			bestKey, bestSize = c.key, d
		}
	}
	if bestSize < 0 || bestSize*2 > len(target) {
		return "", false
	}
	return bestKey, true
}

// storeGetArtifact reads a whole-program artifact back from the store,
// with the entry's owner tag ("" is the default tenant).
func (s *Server) storeGetArtifact(key string) (json.RawMessage, string, bool) {
	if s.store == nil {
		return nil, "", false
	}
	payload, owner, ok := s.store.GetOwned(store.KindArtifact, key)
	if !ok {
		return nil, "", false
	}
	return json.RawMessage(payload), owner, true
}

// storePutArtifact writes a freshly compiled artifact through to the
// store, billed to the tenant, then enforces the tenant's store quota —
// evicting only the tenant's own oldest entries when it runs over.
// Persistence is best-effort: a full disk degrades the daemon to
// memory-only caching, it never fails a compile that already succeeded.
func (s *Server) storePutArtifact(key, tenant string, raw json.RawMessage) {
	if s.store == nil {
		return
	}
	owner := ownerOfTenant(tenant)
	if s.store.PutOwned(store.KindArtifact, key, raw, owner) == nil {
		s.enforceStoreQuota(tenant, owner)
	}
}

// enforceStoreQuota applies one tenant's configured store bounds.
func (s *Server) enforceStoreQuota(tenant, owner string) {
	c := s.qos.ClassOf(tenant)
	if c.StoreEntries > 0 || c.StoreBytes > 0 {
		_, _ = s.store.QuotaGC(owner, c.StoreEntries, c.StoreBytes)
	}
}

// writeEvicted is the LRU's eviction callback: an artifact falling out of
// memory is written through to the store if it is not already there —
// billed to the evicting partition's tenant — so it stays one disk read
// away. This is the safety net behind the compile-time write-through — it
// only pays a disk write when that write failed or the entry was GCed
// since.
func (s *Server) writeEvicted(key, tenant string, val json.RawMessage) {
	if s.store == nil || s.store.Has(store.KindArtifact, key) {
		return
	}
	owner := ownerOfTenant(tenant)
	if s.store.PutOwned(store.KindArtifact, key, val, owner) == nil {
		s.metrics.observeEvictionWrite()
		s.enforceStoreQuota(tenant, owner)
	}
}

// warmBoot preloads the store into memory: the newest artifacts fill the
// LRU (so a restarted daemon answers previously compiled programs as plain
// cache hits), and every stored base schedule registers in the nearest-base
// index. Corrupt entries quarantine inside Get and are simply skipped —
// warm boot never fails.
func (s *Server) warmBoot(cacheEntries int) {
	if s.store == nil {
		return
	}
	arts := s.store.Entries(store.KindArtifact)
	if len(arts) > cacheEntries {
		arts = arts[len(arts)-cacheEntries:]
	}
	loaded := 0
	for _, info := range arts {
		if payload, owner, ok := s.store.GetOwned(store.KindArtifact, info.Key); ok {
			s.cache.Add(info.Key, s.tenantOfOwner(owner), json.RawMessage(payload))
			loaded++
		}
	}
	s.metrics.observeWarmBoot(loaded)
	for _, info := range s.store.Entries(store.KindSchedule) {
		payload, ok := s.store.Get(store.KindSchedule, info.Key)
		if !ok {
			continue
		}
		dec, err := store.DecodeResult(payload)
		if err != nil {
			continue
		}
		s.bases.add(dec.Topology, info.Key, dec.Requests(), nil)
	}
}

// loadBase fetches a stored base schedule bound to topo, preferring the
// index's in-memory decoded copy and falling back to a store read. When
// reqs is non-nil the decoded schedule must serve exactly that multiset —
// the guard against codec drift and key collisions (already-cached
// schedules passed that guard when they were cached, or were produced by
// this process). Any failure is a miss, never an error: the caller falls
// back to compiling.
func (s *Server) loadBase(key string, topo network.Topology, reqs request.Set) *schedule.Result {
	if res, checked := s.bases.cached(topo.Name(), key); res != nil {
		if reqs == nil || checked {
			return res
		}
		// Cached off the nearest-base path, now needed for an exact hit:
		// run the multiset guard it skipped, once.
		if res.Validate(reqs) != nil {
			return nil
		}
		s.bases.fill(topo.Name(), key, res, true)
		return res
	}
	payload, ok := s.store.Get(store.KindSchedule, key)
	if !ok {
		return nil
	}
	dec, err := store.DecodeResult(payload)
	if err != nil {
		return nil
	}
	res, err := dec.Result(topo)
	if err != nil {
		return nil
	}
	if reqs != nil && res.Validate(reqs) != nil {
		return nil
	}
	s.bases.fill(topo.Name(), key, res, reqs != nil)
	return res
}

// saveBase persists a phase's schedule as delta base material and registers
// it — pattern and decoded schedule both — in the candidate index.
// Best-effort, like storePutArtifact.
func (s *Server) saveBase(key, topoName string, res *schedule.Result, reqs request.Set) {
	if s.store == nil {
		return
	}
	if s.store.Put(store.KindSchedule, key, store.EncodeResult(res)) == nil {
		s.bases.add(topoName, key, reqs, res)
	}
}

// resolvePhase resolves one phase's schedule on view — p.topo, or the
// shared masked view of a /recompile's fault mask — and reports how: "hit"
// (the stored schedule of exactly this pattern, reused verbatim), "patched"
// (a stored base patched by the delta recompiler) or "miss" (scheduled in
// full). It is the one place /compile, /recompile and /session decide:
//
//   - a dynamic phase takes the AAPC fallback of the view;
//   - without a store, a static phase is scheduled from scratch;
//   - with one, the exact stored base is reused (verbatim on p.topo,
//     rebased by delta.Recompile onto a masked view), failing that the
//     nearest other base is patched, failing that the phase is scheduled in
//     full — and each outcome counts once in /metrics' delta block. Only
//     p.topo results are saved as future bases: a mask is transient.
func (s *Server) resolvePhase(p *parsedRequest, view network.Topology, ph core.Phase) (*schedule.Result, string, error) {
	if ph.Dynamic {
		res, err := core.Fallback(view)
		return res, CacheMiss, err
	}
	reqs := ph.Requests()
	if s.store == nil {
		res, err := p.scheduler.Schedule(view, reqs)
		return res, CacheMiss, err
	}
	healthy := view == p.topo
	key := store.BaseKey(reqs, p.topoName, p.schedName)
	base := s.loadBase(key, p.topo, reqs)
	if base != nil && healthy {
		s.metrics.observeDelta(true, false)
		return base, CacheHit, nil
	}
	if base == nil {
		if candKey, ok := s.bases.nearest(p.topoName, reqs, key); ok {
			base = s.loadBase(candKey, p.topo, nil)
		}
	}
	res, st, err := delta.Recompile(view, base, reqs, delta.Options{Bound: s.deltaBound, Scheduler: p.scheduler})
	if err != nil {
		return nil, "", err
	}
	s.metrics.observeDelta(false, st.Patched)
	if healthy {
		s.saveBase(key, p.topoName, res, reqs)
	}
	if st.Patched {
		return res, CachePatched, nil
	}
	return res, CacheMiss, nil
}
