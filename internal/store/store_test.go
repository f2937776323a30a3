package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"
)

// keyN fabricates a distinct valid (lowercase-hex) key.
func keyN(n byte) string {
	return strings.Repeat("0", 62) + string([]byte{hexDigit(n >> 4), hexDigit(n & 0xf)})
}

func hexDigit(v byte) byte {
	if v < 10 {
		return '0' + v
	}
	return 'a' + v - 10
}

func open(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	payload := []byte("the compiled artifact")
	if err := s.Put(KindArtifact, keyN(1), payload); err != nil {
		t.Fatal(err)
	}
	got, ok := s.Get(KindArtifact, keyN(1))
	if !ok || !bytes.Equal(got, payload) {
		t.Fatalf("Get = %q, %v; want payload back", got, ok)
	}
	if _, ok := s.Get(KindArtifact, keyN(2)); ok {
		t.Fatal("Get of absent key reported a hit")
	}
	if _, ok := s.Get(KindSchedule, keyN(1)); ok {
		t.Fatal("kinds share a key space")
	}
	m := s.Metrics()
	if m.Entries != 1 || m.Puts != 1 || m.Hits != 1 || m.Misses != 2 || m.Quarantined != 0 {
		t.Fatalf("metrics = %+v", m)
	}
	if m.Bytes <= int64(len(payload)) {
		t.Fatalf("Bytes = %d, want > payload size (framing)", m.Bytes)
	}
}

func TestReopenSeesEntries(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	if err := s.Put(KindSchedule, keyN(3), []byte("sched")); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	if !s2.Has(KindSchedule, keyN(3)) {
		t.Fatal("reopened store lost the entry")
	}
	got, ok := s2.Get(KindSchedule, keyN(3))
	if !ok || string(got) != "sched" {
		t.Fatalf("reopened Get = %q, %v", got, ok)
	}
}

func TestKillMidWriteLeavesOldEntryIntact(t *testing.T) {
	// A crash between temp-file creation and rename leaves a *.tmp
	// straggler; Open must sweep it and the previous entry must survive.
	dir := t.TempDir()
	s := open(t, dir, Options{})
	key := keyN(4)
	if err := s.Put(KindArtifact, key, []byte("v1")); err != nil {
		t.Fatal(err)
	}
	shard := filepath.Dir(s.entryPath(KindArtifact, key))
	partial := filepath.Join(shard, key+"-12345.tmp")
	if err := os.WriteFile(partial, []byte("half-writ"), 0o644); err != nil {
		t.Fatal(err)
	}
	s2 := open(t, dir, Options{})
	if _, err := os.Stat(partial); !os.IsNotExist(err) {
		t.Fatalf("Open did not sweep the partial temp file: %v", err)
	}
	got, ok := s2.Get(KindArtifact, key)
	if !ok || string(got) != "v1" {
		t.Fatalf("entry damaged by crash leftovers: %q, %v", got, ok)
	}
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s2.Len())
	}
}

func TestCorruptEntryQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	key := keyN(5)
	if err := s.Put(KindArtifact, key, []byte("precious bytes")); err != nil {
		t.Fatal(err)
	}
	// Flip one payload byte on disk.
	path := s.entryPath(KindArtifact, key)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-40] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	// A fresh store (daemon reboot) must index it, then skip it at Get
	// without crashing.
	s2 := open(t, dir, Options{})
	if s2.Len() != 1 {
		t.Fatalf("Len = %d, want the (not-yet-verified) entry indexed", s2.Len())
	}
	if _, ok := s2.Get(KindArtifact, key); ok {
		t.Fatal("corrupt entry served")
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("corrupt entry still live on disk")
	}
	qpath := filepath.Join(dir, quarantineDir, KindArtifact+"-"+key+".bad")
	if _, err := os.Stat(qpath); err != nil {
		t.Fatalf("corrupt entry not in quarantine: %v", err)
	}
	if m := s2.Metrics(); m.Quarantined != 1 || m.Entries != 0 {
		t.Fatalf("metrics after quarantine = %+v", m)
	}
	// Quarantined entries stay out of a reopened index too.
	if s3 := open(t, dir, Options{}); s3.Len() != 0 {
		t.Fatalf("quarantined entry re-indexed: Len = %d", s3.Len())
	}
}

func TestTruncatedEntryQuarantined(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	key := keyN(6)
	if err := s.Put(KindArtifact, key, []byte("soon to be truncated")); err != nil {
		t.Fatal(err)
	}
	path := s.entryPath(KindArtifact, key)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindArtifact, key); ok {
		t.Fatal("truncated entry served")
	}
	if m := s.Metrics(); m.Quarantined != 1 {
		t.Fatalf("metrics = %+v", m)
	}
}

func TestMisplacedEntryQuarantined(t *testing.T) {
	// An entry whose embedded key disagrees with its filename is corrupt
	// even if its digest verifies (someone renamed files on disk).
	s := open(t, t.TempDir(), Options{})
	if err := s.Put(KindArtifact, keyN(7), []byte("payload")); err != nil {
		t.Fatal(err)
	}
	src := s.entryPath(KindArtifact, keyN(7))
	dst := s.entryPath(KindArtifact, keyN(8))
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.Rename(src, dst); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(KindArtifact, keyN(8)); ok {
		t.Fatal("misplaced entry served under the wrong key")
	}
}

func TestBadKeysRejected(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for _, key := range []string{"", "short", "../../../etc/passwd", strings.Repeat("Z", 64), strings.Repeat("0", 61) + "/.."} {
		if err := s.Put(KindArtifact, key, []byte("x")); err == nil {
			t.Errorf("Put accepted key %q", key)
		}
		if _, ok := s.Get(KindArtifact, key); ok {
			t.Errorf("Get accepted key %q", key)
		}
	}
	if err := s.Put("Quarantine!", keyN(9), []byte("x")); err == nil {
		t.Error("Put accepted invalid kind")
	}
}

func TestGCBounds(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{MaxEntries: 2})
	base := time.Now().Add(-time.Hour)
	for i := byte(1); i <= 4; i++ {
		key := keyN(i)
		if err := s.Put(KindArtifact, key, []byte{i}); err != nil {
			t.Fatal(err)
		}
		// Spread mtimes a minute apart so age ordering is unambiguous.
		mt := base.Add(time.Duration(i) * time.Minute)
		if err := os.Chtimes(s.entryPath(KindArtifact, key), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	// Reopen so the index carries the adjusted mtimes.
	s = open(t, dir, Options{MaxEntries: 2})
	stats, err := s.GC()
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 2 || stats.Kept != 2 {
		t.Fatalf("GC stats = %+v, want 2 removed, 2 kept", stats)
	}
	for i := byte(1); i <= 2; i++ {
		if s.Has(KindArtifact, keyN(i)) {
			t.Errorf("old entry %d survived size GC", i)
		}
	}
	for i := byte(3); i <= 4; i++ {
		if !s.Has(KindArtifact, keyN(i)) {
			t.Errorf("recent entry %d removed by size GC", i)
		}
	}
	// Age bound: everything is an hour old.
	stats, err = s.GCWith(0, 30*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if stats.Removed != 2 || s.Len() != 0 {
		t.Fatalf("age GC removed %d, %d live; want 2 removed, 0 live", stats.Removed, s.Len())
	}
}

func TestVerifyAll(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	for i := byte(1); i <= 3; i++ {
		if err := s.Put(KindSchedule, keyN(i), []byte{i}); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt one.
	path := s.entryPath(KindSchedule, keyN(2))
	data, _ := os.ReadFile(path)
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	ok, quarantined := s.VerifyAll()
	if ok != 2 || quarantined != 1 {
		t.Fatalf("VerifyAll = %d ok, %d quarantined", ok, quarantined)
	}
}

func TestEntriesOrderedOldestFirst(t *testing.T) {
	dir := t.TempDir()
	s := open(t, dir, Options{})
	base := time.Now().Add(-time.Hour)
	for i := byte(1); i <= 3; i++ {
		if err := s.Put(KindArtifact, keyN(i), []byte{i}); err != nil {
			t.Fatal(err)
		}
		mt := base.Add(time.Duration(4-i) * time.Minute) // reverse order
		if err := os.Chtimes(s.entryPath(KindArtifact, keyN(i)), mt, mt); err != nil {
			t.Fatal(err)
		}
	}
	s = open(t, dir, Options{})
	entries := s.Entries(KindArtifact)
	if len(entries) != 3 {
		t.Fatalf("Entries = %d, want 3", len(entries))
	}
	for i := 1; i < len(entries); i++ {
		if entries[i].ModTime.Before(entries[i-1].ModTime) {
			t.Fatalf("entries not oldest-first: %v", entries)
		}
	}
	if entries[0].Key != keyN(3) || entries[2].Key != keyN(1) {
		t.Fatalf("unexpected order: %v", entries)
	}
}

// TestIndexBytesPerEntry bounds the heap the in-memory index keeps per
// entry: it grows with every schedule and artifact a daemon writes. Keyed
// by "kind/key" strings with a copy of each in the value, it took 294
// bytes; keyed by the decoded digest it takes about 100.
func TestIndexBytesPerEntry(t *testing.T) {
	s := open(t, t.TempDir(), Options{})
	const n = 4000
	before := heapAfterGC()
	for i := 0; i < n; i++ {
		if err := s.Put(KindSchedule, fmt.Sprintf("%064x", i+1), []byte{1}); err != nil {
			t.Fatal(err)
		}
	}
	per := (float64(heapAfterGC()) - float64(before)) / n
	if s.Len() != n {
		t.Fatalf("index holds %d entries, want %d", s.Len(), n)
	}
	const bound = 180
	t.Logf("index: %.0f bytes per entry (bound %d)", per, bound)
	if per > bound {
		t.Fatalf("index keeps %.0f bytes per entry, bound %d", per, bound)
	}
}

func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.HeapAlloc
}
