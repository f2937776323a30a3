package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/qos"
)

// postTraceTenant is postTrace with a tenant header, exercising the same
// admission path a real client takes through qos.TenantHeader.
func postTraceTenant(s *Server, path, tenant string, body []byte) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if tenant != "" {
		req.Header.Set(qos.TenantHeader, tenant)
	}
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	return rec
}

// TestPerClassAdmission saturates one class's queue and proves admission
// control is per class: bronze overflows with its own Retry-After while a
// gold request still enters the (shared) worker pool, and the rejection is
// billed to bronze alone in the QoS metrics block.
func TestPerClassAdmission(t *testing.T) {
	s := newWhiteboxServer(t, Config{
		Workers: 1,
		QoS: []qos.Class{
			{Name: "gold", Weight: 8, QueueDepth: 8},
			{Name: "bronze", Weight: 1, QueueDepth: 1, RetryAfter: 7 * time.Second},
		},
	})

	release := make(chan struct{})
	entered := make(chan struct{}, 1)
	var first atomic.Bool
	s.compileHook = func(string) {
		if first.CompareAndSwap(false, true) {
			entered <- struct{}{}
			<-release
		}
	}

	// A occupies the only worker.
	recA := make(chan *httptest.ResponseRecorder, 1)
	go func() { recA <- postTraceTenant(s, "/compile", "gold", traceBody(t, "qos-a")) }()
	<-entered

	// B fills bronze's only queue slot.
	recB := make(chan *httptest.ResponseRecorder, 1)
	go func() { recB <- postTraceTenant(s, "/compile", "bronze", traceBody(t, "qos-b")) }()
	waitFor(t, "bronze job to queue", func() bool { d, _ := s.pool.ClassDepth("bronze"); return d == 1 })

	// C overflows bronze: rejected with bronze's Retry-After.
	recC := postTraceTenant(s, "/compile", "bronze", traceBody(t, "qos-c"))
	if recC.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated bronze answered %d, want 429", recC.Code)
	}
	if ra := recC.Header().Get("Retry-After"); ra != "7" {
		t.Fatalf("bronze Retry-After = %q, want \"7\"", ra)
	}

	// D is gold: its queue has room, so it is admitted despite bronze
	// being full — the caps are per class, not global.
	recD := make(chan *httptest.ResponseRecorder, 1)
	go func() { recD <- postTraceTenant(s, "/compile", "gold", traceBody(t, "qos-d")) }()
	waitFor(t, "gold job to queue", func() bool { d, _ := s.pool.ClassDepth("gold"); return d == 1 })

	close(release)
	for _, ch := range []chan *httptest.ResponseRecorder{recA, recB, recD} {
		rec := <-ch
		if rec.Code != http.StatusOK {
			t.Fatalf("admitted request finished %d: %s", rec.Code, rec.Body.String())
		}
	}

	snap := metricsSnapshot(t, s)
	if got := snap.QoS["bronze"].Rejected; got != 1 {
		t.Fatalf("bronze rejected = %d, want 1", got)
	}
	if got := snap.QoS["gold"].Rejected; got != 0 {
		t.Fatalf("gold rejected = %d, want 0", got)
	}
}

// metricsSnapshot fetches and decodes /metrics.
func metricsSnapshot(t *testing.T, s *Server) *MetricsSnapshot {
	t.Helper()
	req := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	s.ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("/metrics answered %d", rec.Code)
	}
	var snap MetricsSnapshot
	if err := json.Unmarshal(rec.Body.Bytes(), &snap); err != nil {
		t.Fatal(err)
	}
	return &snap
}

// TestCachePartitionIsolation floods one tenant's cache partition far past
// its capacity and proves the other tenant's entries survive: eviction
// happens only inside the flooding tenant's partition.
func TestCachePartitionIsolation(t *testing.T) {
	s := newWhiteboxServer(t, Config{
		QoS: []qos.Class{
			{Name: "gold", Weight: 4, CacheEntries: 4},
			{Name: "bronze", Weight: 1, CacheEntries: 2},
		},
	})

	// Bronze warms its two entries first (oldest in global LRU age).
	victims := [][]byte{traceBody(t, "victim-0"), traceBody(t, "victim-1")}
	for _, body := range victims {
		if rec := postTraceTenant(s, "/compile", "bronze", body); rec.Code != http.StatusOK {
			t.Fatalf("bronze warmup failed: %d", rec.Code)
		}
	}
	// Gold floods 12 distinct keys through a 4-entry partition.
	for i := 0; i < 12; i++ {
		body := traceBody(t, fmt.Sprintf("flood-%d", i))
		if rec := postTraceTenant(s, "/compile", "gold", body); rec.Code != http.StatusOK {
			t.Fatalf("gold flood failed: %d", rec.Code)
		}
	}
	// Bronze's entries are still cached: the flood evicted only gold keys.
	// Their aliases survived with them, so every repeat is a digest hit.
	for i, body := range victims {
		before := metricsSnapshot(t, s).Cache.DigestHits
		rec := postTraceTenant(s, "/compile", "bronze", body)
		if !strings.Contains(rec.Body.String(), `"cache":"hit"`) {
			t.Fatalf("victim %d not cached after flood: %s", i, rec.Body.String())
		}
		if after := metricsSnapshot(t, s).Cache.DigestHits; after != before+1 {
			t.Fatalf("victim %d repeat was not a digest hit (%d -> %d)", i, before, after)
		}
	}

	snap := metricsSnapshot(t, s)
	gold, bronze := snap.QoS["gold"], snap.QoS["bronze"]
	if gold.CacheEvictions != 8 {
		t.Fatalf("gold evictions = %d, want 8 (12 keys through 4 slots)", gold.CacheEvictions)
	}
	if bronze.CacheEvictions != 0 {
		t.Fatalf("bronze evictions = %d, want 0", bronze.CacheEvictions)
	}
	if bronze.CacheEntries != 2 || bronze.CacheCapacity != 2 {
		t.Fatalf("bronze partition %d/%d, want 2/2", bronze.CacheEntries, bronze.CacheCapacity)
	}
	if gold.CacheEntries != 4 || gold.CacheCapacity != 4 {
		t.Fatalf("gold partition %d/%d, want 4/4", gold.CacheEntries, gold.CacheCapacity)
	}
}

// TestQoSMetricsBlock drives traffic under two tenants (one of them an
// unknown name that must fold into the default class) and checks the
// per-class accounting in /metrics: requests, hits, weights, queue capacity
// and the queue-wait histogram.
func TestQoSMetricsBlock(t *testing.T) {
	s := newWhiteboxServer(t, Config{
		QoS: []qos.Class{{Name: "gold", Weight: 8, QueueDepth: 16}},
	})

	body := traceBody(t, "metrics-doc")
	if rec := postTraceTenant(s, "/compile", "gold", body); rec.Code != http.StatusOK {
		t.Fatalf("gold compile failed: %d", rec.Code)
	}
	if rec := postTraceTenant(s, "/compile", "gold", body); rec.Code != http.StatusOK {
		t.Fatalf("gold re-compile failed: %d", rec.Code)
	}
	// Unknown tenant: billed to the default class.
	if rec := postTraceTenant(s, "/compile", "stranger", traceBody(t, "stranger-doc")); rec.Code != http.StatusOK {
		t.Fatalf("stranger compile failed: %d", rec.Code)
	}

	snap := metricsSnapshot(t, s)
	gold, ok := snap.QoS["gold"]
	if !ok {
		t.Fatalf("metrics QoS block missing gold: %v", snap.QoS)
	}
	def, ok := snap.QoS[qos.DefaultClass]
	if !ok {
		t.Fatalf("metrics QoS block missing default class: %v", snap.QoS)
	}
	if gold.Requests != 2 || gold.Hits != 1 || gold.Misses != 1 {
		t.Fatalf("gold counters %+v, want 2 requests, 1 hit, 1 miss", gold)
	}
	if def.Requests != 1 || def.Misses != 1 {
		t.Fatalf("default counters %+v, want the stranger's 1 request, 1 miss", def)
	}
	if gold.Weight != 8 || gold.QueueCapacity != 16 {
		t.Fatalf("gold weight/capacity = %d/%d, want 8/16", gold.Weight, gold.QueueCapacity)
	}
	// Two gold submissions passed through the worker pool (the hit did
	// not), plus the stranger's: wait histogram counts pool pickups.
	if gold.QueueWaitUs.Count != 1 || def.QueueWaitUs.Count != 1 {
		t.Fatalf("queue-wait counts gold=%d default=%d, want 1 and 1",
			gold.QueueWaitUs.Count, def.QueueWaitUs.Count)
	}
	if snap.Queue.WaitUs.Count != 2 {
		t.Fatalf("global queue-wait count = %d, want 2", snap.Queue.WaitUs.Count)
	}
}

// TestTenantStoreQuota bounds one tenant's store partition and floods it:
// the offender's oldest artifacts are evicted, the victim tenant's artifact
// survives, and evictions are attributed in /metrics.
func TestTenantStoreQuota(t *testing.T) {
	s := newWhiteboxServer(t, Config{
		StoreDir: t.TempDir(),
		QoS: []qos.Class{
			{Name: "gold", Weight: 4, StoreEntries: 3},
			{Name: "bronze", Weight: 1},
		},
	})

	victim := traceBody(t, "stored-victim")
	if rec := postTraceTenant(s, "/compile", "bronze", victim); rec.Code != http.StatusOK {
		t.Fatalf("bronze compile failed: %d", rec.Code)
	}
	for i := 0; i < 9; i++ {
		body := traceBody(t, fmt.Sprintf("stored-flood-%d", i))
		if rec := postTraceTenant(s, "/compile", "gold", body); rec.Code != http.StatusOK {
			t.Fatalf("gold flood failed: %d", rec.Code)
		}
	}

	snap := metricsSnapshot(t, s)
	gold, bronze := snap.QoS["gold"], snap.QoS["bronze"]
	if gold.StoreEntries != 3 {
		t.Fatalf("gold store entries = %d, want quota of 3", gold.StoreEntries)
	}
	if gold.StoreEvictions != 6 {
		t.Fatalf("gold store evictions = %d, want 6 (9 artifacts through 3 slots)", gold.StoreEvictions)
	}
	if bronze.StoreEntries != 1 || bronze.StoreEvictions != 0 {
		t.Fatalf("bronze store %d entries %d evictions, want 1 and 0",
			bronze.StoreEntries, bronze.StoreEvictions)
	}
}
