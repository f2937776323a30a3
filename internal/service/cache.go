package service

import (
	"container/list"
	"crypto/sha256"
	"encoding/json"
	"sync"
)

// lruCache is the content-addressed schedule cache: a bounded
// least-recently-used map from pattern key to the marshaled compile
// artifact, partitioned by tenant (QoS class). Lookups go through one
// global key index — content addressing makes artifacts tenant-agnostic,
// so any tenant may hit any cached entry — but capacity and eviction are
// per partition: an entry is billed to the tenant that inserted it, and a
// tenant filling its partition evicts only its own entries, never another
// tenant's warm state. Values are immutable json.RawMessage blobs, so a
// hit hands out the exact bytes the cold compile produced and no copying
// is needed.
//
// Each entry also remembers the digest of the last raw request that
// resolved to it (its alias), so a byte-identical repeat finds its artifact
// without being decoded. An alias lives and dies with its entry: one per
// entry, replaced by a newer raw form, dropped on eviction — so aliases
// inherit the partition bounds and a flooding tenant cannot evict another
// tenant's aliases either.
type lruCache struct {
	mu         sync.Mutex
	defaultCap int
	parts      map[string]*cachePartition
	items      map[string]*list.Element        // global: key -> element in its partition's list
	aliases    map[requestDigest]*list.Element // raw-request digest -> the entry it resolved to
	hits       uint64
	digestHits uint64
	misses     uint64
	evictions  uint64

	// onEvict, when set, receives every entry the cache evicts — the
	// serving layer uses it to write evicted artifacts through to the
	// persistent store (billed to the owning tenant) so they stay one
	// disk-read away. Called after the cache lock is released (it does disk
	// I/O and must not stall Get).
	onEvict func(key, tenant string, val json.RawMessage)
}

// cachePartition is one tenant's share of the cache.
type cachePartition struct {
	cap       int
	ll        *list.List // front = most recently used within the partition
	evictions uint64
}

type cacheEntry struct {
	key    string
	tenant string
	val    json.RawMessage
	// alias is the digest of the last raw request that resolved to this
	// entry; valid when aliased.
	alias   requestDigest
	aliased bool
}

// requestDigest is the SHA-256 of a raw /compile or /recompile request
// (see digestRequest).
type requestDigest [sha256.Size]byte

// newLRUCache builds the cache. defaultCap bounds any partition created on
// demand (a tenant first seen at runtime — e.g. the owner of a replicated
// artifact); known classes get their configured caps via configure.
func newLRUCache(defaultCap int) *lruCache {
	return &lruCache{
		defaultCap: defaultCap,
		parts:      make(map[string]*cachePartition),
		items:      make(map[string]*list.Element),
		aliases:    make(map[requestDigest]*list.Element),
	}
}

// configure pre-creates a tenant's partition with an explicit capacity.
func (c *lruCache) configure(tenant string, capacity int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.partition(tenant).cap = capacity
}

func (c *lruCache) partition(tenant string) *cachePartition {
	p, ok := c.parts[tenant]
	if !ok {
		p = &cachePartition{cap: c.defaultCap, ll: list.New()}
		c.parts[tenant] = p
	}
	return p
}

// Get returns the cached artifact and bumps its recency within the owning
// tenant's partition.
func (c *lruCache) Get(key string) (json.RawMessage, bool) {
	val, _, ok := c.GetOwned(key)
	return val, ok
}

// GetOwned is Get plus the tenant the hit entry is billed to (the cluster
// fetch path reports it so replicas land in the owner's partition).
func (c *lruCache) GetOwned(key string) (json.RawMessage, string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		c.misses++
		return nil, "", false
	}
	c.hits++
	e := el.Value.(*cacheEntry)
	c.parts[e.tenant].ll.MoveToFront(el)
	return e.val, e.tenant, true
}

// GetDigest resolves a raw-request digest to the key and artifact of the
// entry it aliases, bumping the entry's recency. A hit counts as a cache
// hit (and a digest hit); a miss counts nothing, because the caller goes on
// to decode the request and Get its key, which counts the outcome.
func (c *lruCache) GetDigest(d requestDigest) (string, json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.aliases[d]
	if !ok {
		return "", nil, false
	}
	c.hits++
	c.digestHits++
	e := el.Value.(*cacheEntry)
	c.parts[e.tenant].ll.MoveToFront(el)
	return e.key, e.val, true
}

// Alias records d as the raw form of key's entry, replacing the entry's
// previous alias. A key no longer cached (evicted since it resolved) gets
// none. A digest determines its key, so d never aliases two entries.
func (c *lruCache) Alias(key string, d requestDigest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return
	}
	e := el.Value.(*cacheEntry)
	if e.aliased {
		delete(c.aliases, e.alias)
	}
	e.alias, e.aliased = d, true
	c.aliases[d] = el
}

// Add inserts (or refreshes) an artifact billed to a tenant, evicting the
// least recently used entries of that tenant's partition when it runs over
// capacity. A key that is already cached keeps its original owner — the
// first tenant paid for the compile — and only has its recency bumped.
func (c *lruCache) Add(key, tenant string, val json.RawMessage) {
	c.mu.Lock()
	var evicted []*cacheEntry
	if el, ok := c.items[key]; ok {
		e := el.Value.(*cacheEntry)
		c.parts[e.tenant].ll.MoveToFront(el)
		e.val = val
	} else {
		p := c.partition(tenant)
		c.items[key] = p.ll.PushFront(&cacheEntry{key: key, tenant: tenant, val: val})
		for p.ll.Len() > p.cap {
			oldest := p.ll.Back()
			p.ll.Remove(oldest)
			e := oldest.Value.(*cacheEntry)
			delete(c.items, e.key)
			if e.aliased {
				delete(c.aliases, e.alias)
			}
			c.evictions++
			p.evictions++
			evicted = append(evicted, e)
		}
	}
	onEvict := c.onEvict
	c.mu.Unlock()
	if onEvict != nil {
		for _, e := range evicted {
			onEvict(e.key, e.tenant, e.val)
		}
	}
}

// Keys lists every cached key, most recently used first within each
// partition (partitions in map order). The cluster gossip layer enumerates
// it (together with the store) to build the anti-entropy digest of what
// this daemon can serve without compiling.
func (c *lruCache) Keys() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, 0, len(c.items))
	for _, p := range c.parts {
		for el := p.ll.Front(); el != nil; el = el.Next() {
			out = append(out, el.Value.(*cacheEntry).key)
		}
	}
	return out
}

// Metrics snapshots the cache counters. Capacity is the sum of the live
// partitions' caps.
func (c *lruCache) Metrics() CacheMetrics {
	c.mu.Lock()
	defer c.mu.Unlock()
	m := CacheMetrics{
		Entries:    len(c.items),
		Hits:       c.hits,
		DigestHits: c.digestHits,
		Misses:     c.misses,
		Evictions:  c.evictions,
	}
	for _, p := range c.parts {
		m.Capacity += p.cap
	}
	return m
}

// PartitionMetrics snapshots one tenant's partition.
func (c *lruCache) PartitionMetrics(tenant string) (entries, capacity int, evictions uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	p, ok := c.parts[tenant]
	if !ok {
		return 0, 0, 0
	}
	return p.ll.Len(), p.cap, p.evictions
}
