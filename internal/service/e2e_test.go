package service_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/topology"
	"repro/internal/trace"
)

// newTestServer starts an in-process daemon on the 8x8 torus.
func newTestServer(t *testing.T, cfg service.Config) (*httptest.Server, *client.Client) {
	t.Helper()
	if cfg.Topology == nil {
		cfg.Topology = topology.NewTorus(8, 8)
	}
	svc, err := service.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(svc)
	t.Cleanup(func() {
		ts.Close()
		svc.Close()
	})
	return ts, &client.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
}

// p3mDoc builds the P3M trace document the paper's Table 4 uses.
func p3mDoc(t *testing.T) trace.Document {
	t.Helper()
	phases, err := apps.P3M(32)
	if err != nil {
		t.Fatal(err)
	}
	prog := core.Program{Name: "p3m-32"}
	for _, ph := range phases {
		prog.Phases = append(prog.Phases, core.Phase{Name: ph.Name, Messages: ph.Messages})
	}
	return trace.FromProgram(prog, 64)
}

func TestCompileEndToEnd(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	doc := p3mDoc(t)
	ctx := context.Background()

	resp, res, err := c.Compile(ctx, doc, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Cache != service.CacheMiss {
		t.Fatalf("first compile cache state = %q, want miss", resp.Cache)
	}
	if len(resp.Key) != 64 {
		t.Fatalf("key %q not a sha256 hex digest", resp.Key)
	}
	if res.Program != "p3m-32" || res.PEs != 64 || res.Topology != "torus-8x8" || res.Scheduler != "combined" {
		t.Fatalf("result header wrong: %+v", res)
	}
	if len(res.Phases) != len(doc.Phases) {
		t.Fatalf("result has %d phases, want %d", len(res.Phases), len(doc.Phases))
	}
	if res.MaxDegree < 1 || res.TotalSlots < 1 {
		t.Fatalf("degenerate result: max degree %d, total %d", res.MaxDegree, res.TotalSlots)
	}
	for _, ph := range res.Phases {
		if ph.Degree != len(ph.Configs) || ph.Degree < 1 || ph.PredictedSlots < 1 {
			t.Fatalf("degenerate phase %+v", ph)
		}
	}
	if err := client.Verify(doc, res); err != nil {
		t.Fatalf("compiled schedules fail validation: %v", err)
	}

	// The same document again: a cache hit with the byte-identical artifact.
	resp2, _, err := c.Compile(ctx, doc, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cache != service.CacheHit {
		t.Fatalf("second compile cache state = %q, want hit", resp2.Cache)
	}
	if resp2.Key != resp.Key {
		t.Fatalf("key changed between identical requests: %s vs %s", resp.Key, resp2.Key)
	}
	if !bytes.Equal(resp.Result, resp2.Result) {
		t.Fatal("cache hit is not byte-identical to the cold compile")
	}
}

func TestCompileOrderInvariance(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	doc := p3mDoc(t)
	ctx := context.Background()
	resp, _, err := c.Compile(ctx, doc, client.Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Shuffle every phase's message list; the canonical key must not move
	// and the permuted request must be served from cache.
	rng := rand.New(rand.NewSource(42))
	shuffled := doc
	shuffled.Phases = append([]trace.Phase(nil), doc.Phases...)
	for i := range shuffled.Phases {
		msgs := append([]trace.Message(nil), shuffled.Phases[i].Messages...)
		rng.Shuffle(len(msgs), func(a, b int) { msgs[a], msgs[b] = msgs[b], msgs[a] })
		shuffled.Phases[i].Messages = msgs
	}
	resp2, _, err := c.Compile(ctx, shuffled, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Key != resp.Key {
		t.Fatal("message order changed the cache key")
	}
	if resp2.Cache != service.CacheHit {
		t.Fatalf("permuted request state = %q, want hit", resp2.Cache)
	}
	if !bytes.Equal(resp.Result, resp2.Result) {
		t.Fatal("permuted request returned a different artifact")
	}
	// The permuted body took the full path (decode, sort, key) once; its
	// byte-identical repeat is answered from the digest alias it left.
	digestHits := func() uint64 {
		snap, err := c.Metrics(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return snap.Cache.DigestHits
	}
	if n := digestHits(); n != 0 {
		t.Fatalf("digest hits after the first permuted request = %d, want 0", n)
	}
	resp3, _, err := c.Compile(ctx, shuffled, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp3.Key != resp.Key || resp3.Cache != service.CacheHit || !bytes.Equal(resp3.Result, resp.Result) {
		t.Fatalf("repeat of the permuted request: key %s state %q, want key %s, a byte-identical hit", resp3.Key, resp3.Cache, resp.Key)
	}
	if n := digestHits(); n != 1 {
		t.Fatalf("digest hits after the repeat = %d, want 1", n)
	}
}

func TestCompileDynamicPhaseFallback(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	doc := p3mDoc(t)
	doc.Phases[0].Dynamic = true
	_, res, err := c.Compile(context.Background(), doc, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Phases[0].Fallback || res.Phases[0].Algorithm != "aapc-fallback" {
		t.Fatalf("dynamic phase not served by fallback: %+v", res.Phases[0])
	}
	if err := client.Verify(doc, res); err != nil {
		t.Fatalf("fallback coverage check failed: %v", err)
	}
}

func TestRecompileWithFaultMask(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	doc := p3mDoc(t)
	ctx := context.Background()
	if _, _, err := c.Compile(ctx, doc, client.Options{}); err != nil {
		t.Fatal(err)
	}

	mask := service.FaultMask{Links: []int{3, 17, 42}}
	resp, degraded, err := c.Recompile(ctx, doc, mask, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if degraded.Faults == nil || len(degraded.Faults.Links) != 3 {
		t.Fatalf("fault mask not echoed: %+v", degraded.Faults)
	}
	if err := client.Verify(doc, degraded); err != nil {
		t.Fatalf("degraded schedules fail validation: %v", err)
	}
	// The degraded artifact is cached under its own key.
	if resp.Cache != service.CacheMiss {
		t.Fatalf("first recompile state = %q, want miss", resp.Cache)
	}
	resp2, _, err := c.Recompile(ctx, doc, mask, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if resp2.Cache != service.CacheHit || resp2.Key != resp.Key {
		t.Fatalf("repeat recompile state=%q key match=%v", resp2.Cache, resp2.Key == resp.Key)
	}

	// An empty mask routes through the healthy pipeline and shares its key.
	respEmpty, _, err := c.Recompile(ctx, doc, service.FaultMask{}, client.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if respEmpty.Cache != service.CacheHit {
		t.Fatalf("empty-mask recompile state = %q, want hit against the /compile entry", respEmpty.Cache)
	}
}

// TestRecompileCountsEveryPhase checks /metrics' delta block on a store
// daemon: every static phase the resolver resolves counts exactly once,
// including a /recompile phase with no stored base, which is scheduled on
// the masked view in full.
func TestRecompileCountsEveryPhase(t *testing.T) {
	_, c := newTestServer(t, service.Config{StoreDir: t.TempDir()})
	doc := p3mDoc(t)
	doc.Phases = doc.Phases[:2]
	ctx := context.Background()
	if _, _, err := c.Recompile(ctx, doc, service.FaultMask{Links: []int{3}}, client.Options{}); err != nil {
		t.Fatal(err)
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if d := snap.Delta; d.Full != 2 || d.Patched != 0 || d.ScheduleHits != 0 {
		t.Fatalf("delta metrics after recompiling two never-compiled phases = %+v, want full 2", d)
	}
}

func TestRecompileDisconnected(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	doc := p3mDoc(t)
	// Failing a switch disconnects every request that starts or ends there:
	// the compile must fail with 422, not 500.
	_, _, err := c.Recompile(context.Background(), doc, service.FaultMask{Nodes: []int{0}}, client.Options{})
	he, ok := err.(*client.HTTPError)
	if !ok || he.Status != http.StatusUnprocessableEntity {
		t.Fatalf("disconnected recompile: got %v, want HTTP 422", err)
	}
}

func TestTopologyAndSchedulerOverride(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	doc := p3mDoc(t)
	_, res, err := c.Compile(context.Background(), doc, client.Options{Topology: "mesh-8x8", Scheduler: "coloring"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Topology != "mesh-8x8" || res.Scheduler != "coloring" {
		t.Fatalf("override ignored: %+v", res)
	}
	if err := client.Verify(doc, res); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	doc := p3mDoc(t)
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, _, err := c.Compile(ctx, doc, client.Options{}); err != nil {
			t.Fatal(err)
		}
	}
	snap, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	ep := snap.Endpoints["compile"]
	if ep.Requests != 3 || ep.Misses != 1 || ep.Hits != 2 {
		t.Fatalf("compile metrics = %+v, want 3 requests, 1 miss, 2 hits", ep)
	}
	if ep.LatencyUs.Count != 3 || ep.LatencyUs.Quantile(1) < 1 {
		t.Fatalf("latency histogram not recording: %+v", ep.LatencyUs)
	}
	if snap.Cache.Entries != 1 || snap.Cache.Hits < 2 {
		t.Fatalf("cache metrics = %+v", snap.Cache)
	}
	if snap.Queue.Workers < 1 || snap.Queue.Capacity < 1 {
		t.Fatalf("queue metrics = %+v", snap.Queue)
	}
	if snap.Topology != "torus-8x8" || snap.Scheduler != "combined" {
		t.Fatalf("metrics header = %+v", snap)
	}
}

func TestBadRequests(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{})
	post := func(path, body string) int {
		resp, err := http.Post(ts.URL+path, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var eb service.ErrorBody
		if resp.StatusCode != http.StatusOK {
			if err := json.NewDecoder(resp.Body).Decode(&eb); err != nil || eb.Error == "" {
				t.Fatalf("%s: non-2xx reply without JSON error body (decode err %v)", path, err)
			}
		}
		return resp.StatusCode
	}
	valid := `{"name":"x","pes":64,"phases":[{"name":"p","messages":[{"src":0,"dst":1,"flits":1}]}]}`
	// valid compiles, leaving an alias its repeat is answered from; the
	// same body under a bad query must still be rejected, not aliased.
	for i := 0; i < 2; i++ {
		if code := post("/compile", valid); code != http.StatusOK {
			t.Fatalf("valid compile -> %d, want 200", code)
		}
	}

	if code := post("/compile", "{not json"); code != http.StatusBadRequest {
		t.Fatalf("malformed JSON -> %d, want 400", code)
	}
	if code := post("/compile", `{"name":"x","pes":16,"phases":[{"name":"p","messages":[{"src":0,"dst":1,"flits":1}]}]}`); code != http.StatusBadRequest {
		t.Fatalf("PE mismatch -> %d, want 400", code)
	}
	if code := post("/compile?topology=klein-8", valid); code != http.StatusBadRequest {
		t.Fatalf("bad topology -> %d, want 400", code)
	}
	if code := post("/compile?alg=quantum", valid); code != http.StatusBadRequest {
		t.Fatalf("bad scheduler -> %d, want 400", code)
	}
	if code := post("/recompile?links=9999", valid); code != http.StatusBadRequest {
		t.Fatalf("out-of-range link -> %d, want 400", code)
	}
	if code := post("/recompile?links=1,,2", valid); code != http.StatusBadRequest {
		t.Fatalf("malformed link list -> %d, want 400", code)
	}
	// Data after the document is an error, not ignored: a second document
	// or stray bytes would otherwise be answered for the first alone.
	for _, path := range []string{"/compile", "/recompile?links=3"} {
		for _, tail := range []string{valid, "garbage"} {
			if code := post(path, valid+tail); code != http.StatusBadRequest {
				t.Fatalf("%s with %q after the document -> %d, want 400", path, tail, code)
			}
		}
	}
	// A message starting at the compiled engine's 1<<40-slot cap is
	// refused with 422, at once: a slot-stepping simulator would walk
	// 1.1e12 slots before answering.
	begin := time.Now()
	for _, path := range []string{"/compile", "/recompile?links=3"} {
		if code := post(path, oneMessageAt(1<<40)); code != http.StatusUnprocessableEntity {
			t.Fatalf("%s with start 1<<40 -> %d, want 422", path, code)
		}
	}
	if d := time.Since(begin); d > time.Second {
		t.Fatalf("capped starts answered in %v, want under 1s", d)
	}
	// Just under the cap the closed form prices the message exactly: the
	// lone circuit is degree 1, so it is delivered one slot after it
	// starts.
	under := 1<<40 - 1000
	resp, err := http.Post(ts.URL+"/compile", "application/json", strings.NewReader(oneMessageAt(under)))
	if err != nil {
		t.Fatal(err)
	}
	var env service.Response
	err = json.NewDecoder(resp.Body).Decode(&env)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("start %d -> %d (decode err %v), want 200", under, resp.StatusCode, err)
	}
	var res service.Result
	if err := json.Unmarshal(env.Result, &res); err != nil {
		t.Fatal(err)
	}
	if got := res.Phases[0].PredictedSlots; got != under+1 {
		t.Fatalf("start %d: predicted_slots %d, want %d", under, got, under+1)
	}
	resp, err = http.Get(ts.URL + "/compile")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /compile -> %d, want 405", resp.StatusCode)
	}
	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz -> %d", hz.StatusCode)
	}
}

// oneMessageAt is a one-phase, one-message 64-PE program whose message
// starts at slot start.
func oneMessageAt(start int) string {
	return fmt.Sprintf(`{"name":"late","pes":64,"phases":[{"name":"p","messages":[{"src":0,"dst":1,"flits":1,"start":%d}]}]}`, start)
}

func TestPprofWiring(t *testing.T) {
	ts, _ := newTestServer(t, service.Config{EnablePprof: true})
	resp, err := http.Get(ts.URL + "/debug/pprof/")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("pprof index -> %d", resp.StatusCode)
	}
}
