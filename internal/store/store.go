// Package store is the persistent half of the compile service's
// amortization story: a content-addressed on-disk schedule store. The
// paper's premise is that communication patterns are known ahead of time,
// so the expensive work — conflict-free configuration scheduling — is done
// once and reused; this package makes "once" survive a process restart.
//
// Entries are keyed by canonical pattern hashes (request.PatternKey and the
// service's program keys), so the store inherits the cache's
// order-invariance: two traces that are permutations of each other share
// one entry. Two kinds of payload are stored:
//
//   - KindArtifact — the marshaled JSON artifact a /compile reply carries,
//     persisted so a restarted daemon serves byte-identical cache hits;
//   - KindSchedule — a binary-encoded schedule.Result (see codec.go), the
//     base material of the incremental recompiler in internal/delta.
//
// Durability discipline:
//
//   - writes are atomic: payloads go to a temp file in the target
//     directory, are fsynced, and renamed into place — a crash mid-write
//     leaves a *.tmp straggler that the next Open sweeps away, never a
//     half-visible entry;
//   - every entry carries a SHA-256 digest over its header and payload;
//     a corrupt entry (bit rot, truncation, a key that does not match its
//     filename) is quarantined — moved aside, reported in metrics, and
//     treated as a miss — so a bad file can never crash or poison a
//     serving daemon;
//   - the in-memory index built at Open supports size- and age-bounded
//     garbage collection, oldest entries first.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// Entry kinds. Kinds partition the key space and the directory layout.
const (
	// KindArtifact holds marshaled service artifacts (JSON), keyed by the
	// service's program key.
	KindArtifact = "artifact"
	// KindSchedule holds binary-encoded schedule.Results (codec.go), keyed
	// by BaseKey — the delta compiler's base material.
	KindSchedule = "schedule"
)

// entryExt is the filename extension of live entries.
const entryExt = ".cse"

// entryMagic leads every entry file; bumping it orphans old stores on
// purpose (they quarantine and recompile).
var entryMagic = []byte("CCSTOR1\n")

// Options bound the store. Zero values mean unbounded.
type Options struct {
	// MaxEntries caps the number of live entries; GC removes the oldest
	// beyond it.
	MaxEntries int
	// MaxAge expires entries not rewritten within the window.
	MaxAge time.Duration
}

// EntryInfo describes one live entry.
type EntryInfo struct {
	Kind string
	Key  string
	// Owner is the tenant (QoS class) the entry is billed to; "" is the
	// default tenant. Ownership is recorded in the entry frame; for entries
	// indexed at Open the owner is learned lazily, at the first Get or Put.
	Owner   string
	Size    int64
	ModTime time.Time
}

// OwnerUsage snapshots one tenant's footprint in the store.
type OwnerUsage struct {
	Entries   int    `json:"entries"`
	Bytes     int64  `json:"bytes"`
	Evictions uint64 `json:"evictions"` // entries removed by QuotaGC
}

// Metrics snapshots the store's counters.
type Metrics struct {
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Puts        uint64 `json:"puts"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Quarantined uint64 `json:"quarantined"`
}

// GCStats reports one garbage-collection pass.
type GCStats struct {
	Removed int // entries deleted
	Kept    int // entries surviving
}

// Store is a content-addressed schedule store rooted at one directory.
// All methods are safe for concurrent use.
type Store struct {
	dir string
	opt Options

	mu          sync.Mutex
	index       map[entryID]entryMeta
	evictions   map[string]uint64 // owner -> QuotaGC removals
	puts        uint64
	hits        uint64
	misses      uint64
	quarantined uint64
}

// kinds lists the entry kinds; an entryID names its kind by position.
var kinds = [...]string{KindArtifact, KindSchedule}

// entryID is an entry's index key: its kind's position in kinds and its
// key decoded from hex. The index grows with every entry the daemon
// writes, so it keeps no strings it can derive.
type entryID struct {
	key  [sha256.Size]byte
	kind uint8
}

// entryMeta is what the index keeps of an entry besides its ID.
type entryMeta struct {
	owner string
	size  int64
	mod   int64 // modification time, Unix nanoseconds
}

// idOf returns the index key of kind/key, both already checked by
// validKind and validKey.
func idOf(kind, key string) entryID {
	id := entryID{kind: uint8(slices.Index(kinds[:], kind))}
	for i := range id.key {
		id.key[i] = unhex(key[2*i])<<4 | unhex(key[2*i+1])
	}
	return id
}

func unhex(c byte) byte {
	if c <= '9' {
		return c - '0'
	}
	return c - 'a' + 10
}

// entry is one index entry.
type entry struct {
	id   entryID
	meta entryMeta
}

// info rebuilds the EntryInfo of an index entry.
func (e entry) info() EntryInfo {
	return EntryInfo{
		Kind:    kinds[e.id.kind],
		Key:     hex.EncodeToString(e.id.key[:]),
		Owner:   e.meta.owner,
		Size:    e.meta.size,
		ModTime: time.Unix(0, e.meta.mod),
	}
}

// oldestFirst lists the index entries keep selects, oldest first, ties
// broken by kind then key (the decoded key sorts as its hex does), so the
// order is deterministic.
func (s *Store) oldestFirst(keep func(entry) bool) []entry {
	s.mu.Lock()
	var out []entry
	for id, m := range s.index {
		if e := (entry{id, m}); keep(e) {
			out = append(out, e)
		}
	}
	s.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.meta.mod != b.meta.mod {
			return a.meta.mod < b.meta.mod
		}
		if ka, kb := kinds[a.id.kind], kinds[b.id.kind]; ka != kb {
			return ka < kb
		}
		return bytes.Compare(a.id.key[:], b.id.key[:]) < 0
	})
	return out
}

// Open opens (creating if needed) the store rooted at dir, sweeps crash
// leftovers (*.tmp files from writes that never renamed), and builds the
// entry index. Corrupt entries are detected lazily, at Get.
func Open(dir string, opt Options) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("store: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, opt: opt, index: make(map[entryID]entryMeta), evictions: make(map[string]uint64)}
	err := filepath.Walk(dir, func(path string, fi os.FileInfo, err error) error {
		if err != nil || fi.IsDir() {
			return err
		}
		if rel, e := filepath.Rel(dir, path); e == nil && strings.HasPrefix(rel, quarantineDir) {
			return nil
		}
		if strings.HasSuffix(path, ".tmp") {
			// A write that died between create and rename; the entry it was
			// replacing (if any) is still intact.
			return os.Remove(path)
		}
		if !strings.HasSuffix(path, entryExt) {
			return nil // foreign file; leave it alone
		}
		kind, key, ok := s.parsePath(path)
		if !ok {
			return nil // foreign name, including a key that is not a SHA-256 digest
		}
		s.index[idOf(kind, key)] = entryMeta{size: fi.Size(), mod: fi.ModTime().UnixNano()}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("store: scanning %s: %w", dir, err)
	}
	return s, nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// quarantineDir is where corrupt entries are moved, relative to the root.
const quarantineDir = "quarantine"

// entryPath is dir/kind/key[:2]/key.cse; the two-character shard keeps any
// one directory small under large stores.
func (s *Store) entryPath(kind, key string) string {
	return filepath.Join(s.dir, kind, key[:2], key+entryExt)
}

// parsePath inverts entryPath.
func (s *Store) parsePath(path string) (kind, key string, ok bool) {
	rel, err := filepath.Rel(s.dir, path)
	if err != nil {
		return "", "", false
	}
	parts := strings.Split(filepath.ToSlash(rel), "/")
	if len(parts) != 3 {
		return "", "", false
	}
	kind = parts[0]
	key = strings.TrimSuffix(parts[2], entryExt)
	if validKind(kind) != nil || validKey(key) != nil || parts[1] != key[:2] {
		return "", "", false
	}
	return kind, key, true
}

// validKey accepts SHA-256 digests in lowercase hex only, which doubles as
// the path-traversal guard (keys become filenames).
func validKey(key string) error {
	if len(key) != 2*sha256.Size {
		return fmt.Errorf("store: key %q is not %d hex digits", key, 2*sha256.Size)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: key %q is not lowercase hex", key)
		}
	}
	return nil
}

func validKind(kind string) error {
	if !slices.Contains(kinds[:], kind) {
		return fmt.Errorf("store: unknown kind %q", kind)
	}
	return nil
}

// encodeEntry frames a payload: magic, kind, key, payload (all length- or
// count-prefixed, so the framing is injective), then a SHA-256 digest over
// everything preceding it. A non-empty owner (the tenant the entry is
// billed to) is framed as an optional fourth field; owner "" keeps the
// historical three-field frame, so pre-tenancy stores and default-tenant
// entries are byte-identical with what older code wrote.
func encodeEntry(kind, key string, payload []byte, owner string) []byte {
	b := make([]byte, 0, len(entryMagic)+len(kind)+len(key)+len(payload)+len(owner)+64)
	b = append(b, entryMagic...)
	b = appendBytes(b, []byte(kind))
	b = appendBytes(b, []byte(key))
	b = appendBytes(b, payload)
	if owner != "" {
		b = appendBytes(b, []byte(owner))
	}
	sum := sha256.Sum256(b)
	return append(b, sum[:]...)
}

func appendBytes(b, v []byte) []byte {
	b = binary.AppendUvarint(b, uint64(len(v)))
	return append(b, v...)
}

// decodeEntry verifies the frame end to end and returns its parts. The
// owner field is optional: a three-field frame (everything written before
// tenancy, and all default-tenant entries since) decodes with owner "".
func decodeEntry(data []byte) (kind, key string, payload []byte, owner string, err error) {
	if len(data) < len(entryMagic)+sha256.Size || !bytes.Equal(data[:len(entryMagic)], entryMagic) {
		return "", "", nil, "", fmt.Errorf("store: bad entry magic")
	}
	body, digest := data[:len(data)-sha256.Size], data[len(data)-sha256.Size:]
	if sum := sha256.Sum256(body); !bytes.Equal(sum[:], digest) {
		return "", "", nil, "", fmt.Errorf("store: entry digest mismatch")
	}
	rest := body[len(entryMagic):]
	kindB, rest, err := readBytes(rest)
	if err != nil {
		return "", "", nil, "", err
	}
	keyB, rest, err := readBytes(rest)
	if err != nil {
		return "", "", nil, "", err
	}
	payload, rest, err = readBytes(rest)
	if err != nil {
		return "", "", nil, "", err
	}
	var ownerB []byte
	if len(rest) != 0 {
		ownerB, rest, err = readBytes(rest)
		if err != nil {
			return "", "", nil, "", err
		}
	}
	if len(rest) != 0 {
		return "", "", nil, "", fmt.Errorf("store: %d trailing bytes after owner", len(rest))
	}
	return string(kindB), string(keyB), payload, string(ownerB), nil
}

func readBytes(b []byte) (v, rest []byte, err error) {
	n, w := binary.Uvarint(b)
	if w <= 0 || n > uint64(len(b)-w) {
		return nil, nil, fmt.Errorf("store: truncated entry")
	}
	return b[w : w+int(n)], b[w+int(n):], nil
}

// Put atomically writes an entry billed to the default tenant. See
// PutOwned.
func (s *Store) Put(kind, key string, payload []byte) error {
	return s.PutOwned(kind, key, payload, "")
}

// PutOwned atomically writes an entry billed to a tenant: temp file in the
// destination directory, fsync, rename. An existing entry under the same
// key is replaced (same content, by construction of content addressing —
// or a deliberate overwrite after a codec change; ownership follows the
// latest writer).
func (s *Store) PutOwned(kind, key string, payload []byte, owner string) error {
	if err := validKind(kind); err != nil {
		return err
	}
	if err := validKey(key); err != nil {
		return err
	}
	path := s.entryPath(kind, key)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	f, err := os.CreateTemp(filepath.Dir(path), key+"-*.tmp")
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	tmp := f.Name()
	data := encodeEntry(kind, key, payload, owner)
	if _, err := f.Write(data); err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("store: writing %s/%s: %w", kind, key, err)
	}
	s.mu.Lock()
	s.index[idOf(kind, key)] = entryMeta{owner: owner, size: int64(len(data)), mod: time.Now().UnixNano()}
	s.puts++
	s.mu.Unlock()
	return nil
}

// Get reads and verifies an entry. See GetOwned.
func (s *Store) Get(kind, key string) ([]byte, bool) {
	payload, _, ok := s.GetOwned(kind, key)
	return payload, ok
}

// GetOwned reads and verifies an entry, returning the tenant it is billed
// to. A missing entry is a plain miss; a corrupt one (bad digest,
// truncation, kind/key mismatch with its location) is quarantined and
// reported as a miss — never an error, never a panic. The decoded owner is
// backfilled into the index, so entries discovered at Open gain their
// owner on first read.
func (s *Store) GetOwned(kind, key string) (payload []byte, owner string, ok bool) {
	if validKind(kind) != nil || validKey(key) != nil {
		return nil, "", false
	}
	path := s.entryPath(kind, key)
	data, err := os.ReadFile(path)
	if err != nil {
		s.mu.Lock()
		s.misses++
		delete(s.index, idOf(kind, key))
		s.mu.Unlock()
		return nil, "", false
	}
	gotKind, gotKey, payload, owner, err := decodeEntry(data)
	if err == nil && (gotKind != kind || gotKey != key) {
		err = fmt.Errorf("store: entry claims %s/%s but lives at %s/%s", gotKind, gotKey, kind, key)
	}
	if err != nil {
		s.quarantine(kind, key, path)
		return nil, "", false
	}
	s.mu.Lock()
	s.hits++
	id := idOf(kind, key)
	if m, live := s.index[id]; live && m.owner != owner {
		m.owner = owner
		s.index[id] = m
	}
	s.mu.Unlock()
	return payload, owner, true
}

// Has reports whether a live entry exists for the key (by index; contents
// are verified only at Get).
func (s *Store) Has(kind, key string) bool {
	if validKind(kind) != nil || validKey(key) != nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	_, ok := s.index[idOf(kind, key)]
	return ok
}

// quarantine moves a corrupt entry aside so it is never re-read, keeping it
// on disk for post-mortems rather than deleting evidence.
func (s *Store) quarantine(kind, key, path string) {
	qdir := filepath.Join(s.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if err := os.Rename(path, filepath.Join(qdir, kind+"-"+key+".bad")); err != nil {
			os.Remove(path) // rename across a broken fs boundary: just drop it
		}
	}
	s.mu.Lock()
	delete(s.index, idOf(kind, key))
	s.quarantined++
	s.misses++
	s.mu.Unlock()
}

// Delete removes an entry if present.
func (s *Store) Delete(kind, key string) error {
	if validKind(kind) != nil || validKey(key) != nil {
		return nil
	}
	err := os.Remove(s.entryPath(kind, key))
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	delete(s.index, idOf(kind, key))
	s.mu.Unlock()
	return nil
}

// Len returns the number of live entries.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.index)
}

// Entries lists live entries of one kind ("" for all), oldest first (ties
// broken by kind then key, so the order is deterministic).
func (s *Store) Entries(kind string) []EntryInfo {
	es := s.oldestFirst(func(e entry) bool { return kind == "" || kinds[e.id.kind] == kind })
	out := make([]EntryInfo, len(es))
	for i, e := range es {
		out[i] = e.info()
	}
	return out
}

// GC applies the store's Options bounds: entries older than MaxAge go
// first, then the oldest entries beyond MaxEntries. A zero Options is a
// no-op.
func (s *Store) GC() (GCStats, error) {
	return s.GCWith(s.opt.MaxEntries, s.opt.MaxAge)
}

// GCWith garbage-collects with explicit bounds (for cmd/ccstore).
func (s *Store) GCWith(maxEntries int, maxAge time.Duration) (GCStats, error) {
	all := s.Entries("")
	var stats GCStats
	cutoff := time.Time{}
	if maxAge > 0 {
		cutoff = time.Now().Add(-maxAge)
	}
	drop := func(info EntryInfo) error {
		if err := s.Delete(info.Kind, info.Key); err != nil {
			return err
		}
		stats.Removed++
		return nil
	}
	live := all[:0]
	for _, info := range all {
		if maxAge > 0 && info.ModTime.Before(cutoff) {
			if err := drop(info); err != nil {
				return stats, err
			}
			continue
		}
		live = append(live, info)
	}
	if maxEntries > 0 && len(live) > maxEntries {
		for _, info := range live[:len(live)-maxEntries] {
			if err := drop(info); err != nil {
				return stats, err
			}
		}
		live = live[len(live)-maxEntries:]
	}
	stats.Kept = len(live)
	return stats, nil
}

// Usage snapshots one tenant's store footprint: live entries and bytes
// billed to the owner, plus the running count of quota evictions charged
// to it. Owner "" is the default tenant (which also absorbs pre-tenancy
// entries whose frames carry no owner).
func (s *Store) Usage(owner string) OwnerUsage {
	s.mu.Lock()
	defer s.mu.Unlock()
	u := OwnerUsage{Evictions: s.evictions[owner]}
	for _, m := range s.index {
		if m.owner == owner {
			u.Entries++
			u.Bytes += m.size
		}
	}
	return u
}

// Owners returns the distinct owners of live entries, sorted, always
// including "" (the default tenant) if any unowned entry is live.
func (s *Store) Owners() []string {
	s.mu.Lock()
	set := make(map[string]bool)
	for _, m := range s.index {
		set[m.owner] = true
	}
	s.mu.Unlock()
	out := make([]string, 0, len(set))
	for o := range set {
		out = append(out, o)
	}
	sort.Strings(out)
	return out
}

// QuotaGC enforces one tenant's quota: while the owner holds more than
// maxEntries entries or maxBytes bytes (zero bounds are unbounded), its
// oldest entries are deleted — and only its entries, so one tenant's flood
// can never evict another tenant's warm state. Removals are charged to the
// owner's eviction counter.
func (s *Store) QuotaGC(owner string, maxEntries int, maxBytes int64) (GCStats, error) {
	if maxEntries <= 0 && maxBytes <= 0 {
		return GCStats{}, nil
	}
	var stats GCStats
	owned := s.oldestFirst(func(e entry) bool { return e.meta.owner == owner })
	var bytes int64
	for _, e := range owned {
		bytes += e.meta.size
	}
	for _, e := range owned {
		over := (maxEntries > 0 && len(owned)-stats.Removed > maxEntries) ||
			(maxBytes > 0 && bytes > maxBytes)
		if !over {
			break
		}
		if err := s.Delete(kinds[e.id.kind], hex.EncodeToString(e.id.key[:])); err != nil {
			return stats, err
		}
		stats.Removed++
		bytes -= e.meta.size
		s.mu.Lock()
		s.evictions[owner]++
		s.mu.Unlock()
	}
	stats.Kept = len(owned) - stats.Removed
	return stats, nil
}

// VerifyAll reads and digest-checks every live entry, quarantining the
// corrupt ones. It returns the number verified intact and quarantined.
func (s *Store) VerifyAll() (ok, quarantined int) {
	for _, info := range s.Entries("") {
		if _, hit := s.Get(info.Kind, info.Key); hit {
			ok++
		} else {
			quarantined++
		}
	}
	return ok, quarantined
}

// Metrics snapshots the counters.
func (s *Store) Metrics() Metrics {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := Metrics{
		Entries:     len(s.index),
		Puts:        s.puts,
		Hits:        s.hits,
		Misses:      s.misses,
		Quarantined: s.quarantined,
	}
	for _, e := range s.index {
		m.Bytes += e.size
	}
	return m
}
