package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strconv"
	"testing"

	"repro/internal/network"
)

// encodedResponse is the reply json.Encoder writes for an envelope: the
// reference the spliced envelope must match byte for byte.
func encodedResponse(t *testing.T, key, state string, raw json.RawMessage) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(Response{Key: key, Cache: state, Result: raw}); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// fixedPeer is a PeerResolver whose owner always answers with raw.
type fixedPeer struct{ raw json.RawMessage }

func (f fixedPeer) Resolve(PeerContext) (json.RawMessage, bool) { return f.raw, true }

// TestSplicedEnvelope pins writeArtifact to the envelope json.Encoder
// writes, for every cache state and for a program whose name encoding/json
// escapes, and proves that artifacts entering from outside the process —
// a gossip pull through ArtifactPutOwned, a peer's forward reply — are
// served compacted, as encoding the envelope would have written them.
func TestSplicedEnvelope(t *testing.T) {
	body := traceBody(t, "a<b&c> ")
	s := newWhiteboxServer(t, Config{StoreDir: t.TempDir(), CacheEntries: 1})
	miss := postTrace(s, "/compile", body)
	resp := decodeResponse(t, miss)
	key, raw := resp.Key, resp.Result
	if !bytes.Contains(raw, []byte(`"program":"a\u003cb\u0026c\u003e "`)) {
		t.Fatalf("artifact does not carry the escaped program name: %.80s", raw)
	}

	for _, state := range []string{CacheMiss, CacheHit, CacheStore, CacheCoalesced, CachePeer} {
		rec := httptest.NewRecorder()
		writeArtifact(rec, key, state, raw)
		want := encodedResponse(t, key, state, raw)
		if !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("%s: spliced\n%s\nencoded\n%s", state, rec.Body.Bytes(), want)
		}
		if cl := rec.Header().Get("Content-Length"); cl != strconv.Itoa(len(want)) {
			t.Fatalf("%s: Content-Length %s, body %d bytes", state, cl, len(want))
		}
	}

	// The same through the handler: the miss, two repeats (digest hits on
	// the alias the miss left), and a store read after another key took the
	// one cache slot and the alias with it.
	type reply struct {
		state string
		rec   *httptest.ResponseRecorder
	}
	served := []reply{{CacheMiss, miss}}
	for i := 0; i < 2; i++ {
		served = append(served, reply{CacheHit, postTrace(s, "/compile", body)})
	}
	postTrace(s, "/compile", traceBody(t, "evictor"))
	served = append(served, reply{CacheStore, postTrace(s, "/compile", body)})
	for i, sv := range served {
		if want := encodedResponse(t, key, sv.state, raw); !bytes.Equal(sv.rec.Body.Bytes(), want) {
			t.Fatalf("reply %d (%s): got\n%s\nwant\n%s", i, sv.state, sv.rec.Body.Bytes(), want)
		}
	}
	if n := getMetrics(t, s).Cache.DigestHits; n != 2 {
		t.Fatalf("digest hits = %d, want 2 (the repeats)", n)
	}

	var pretty bytes.Buffer
	if err := json.Indent(&pretty, raw, "", "  "); err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(pretty.Bytes(), raw) {
		t.Fatal("indenting did not change the artifact")
	}

	// A gossip pull installs a pretty-printed copy: it is served compacted.
	pulled := newWhiteboxServer(t, Config{})
	pulled.ArtifactPutOwned(key, "", pretty.Bytes())
	for i := 0; i < 2; i++ { // a full-path hit, then a digest hit
		rec := postTrace(pulled, "/compile", body)
		if want := encodedResponse(t, key, CacheHit, raw); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("pulled artifact, request %d: got\n%s\nwant\n%s", i, rec.Body.Bytes(), want)
		}
	}

	// A peer answers a forward with a pretty-printed copy: the reply and the
	// cached copy behind the digest hit that follows are compact.
	fwd := newWhiteboxServer(t, Config{})
	fwd.SetPeers(fixedPeer{pretty.Bytes()})
	for i, state := range []string{CachePeer, CacheHit} {
		rec := postTrace(fwd, "/compile", body)
		if want := encodedResponse(t, key, state, raw); !bytes.Equal(rec.Body.Bytes(), want) {
			t.Fatalf("forwarded artifact, request %d: got\n%s\nwant\n%s", i, rec.Body.Bytes(), want)
		}
	}
}

// TestNamedTopologySharesRouteCache posts 100 cache misses that name the
// same topology: they must share one instance, and with it one route
// table, not each route on a fresh one.
func TestNamedTopologySharesRouteCache(t *testing.T) {
	s := newWhiteboxServer(t, Config{})
	if rec := postTrace(s, "/compile", traceBody(t, "own")); rec.Code != 200 {
		t.Fatalf("compile answered %d", rec.Code)
	}
	var shared network.Topology
	for i := 0; i < 100; i++ {
		rec := postTrace(s, "/compile?topology=torus-4x4", traceBody(t, fmt.Sprintf("named-%d", i)))
		if rec.Code != 200 || !bytes.Contains(rec.Body.Bytes(), []byte(`"cache":"miss"`)) {
			t.Fatalf("request %d: %d %s", i, rec.Code, rec.Body.String())
		}
		view, err := s.views.named("torus-4x4")
		if err != nil {
			t.Fatal(err)
		}
		if shared == nil {
			shared = view
		} else if view != shared {
			t.Fatalf("after %d named requests the view is a new instance", i+1)
		}
	}
}

// TestNamedViewAllocs bounds a repeat of a ?topology= lookup in either
// spelling topology.Parse accepts. After the first request both spellings
// are map hits on the one shared instance; the colon form used to miss
// every time and re-parse under the table's lock (2,026 allocations per
// repeat of dragonfly:4,8,2).
func TestNamedViewAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newWhiteboxServer(t, Config{})
	for _, spellings := range [][2]string{{"dragonfly:4,8,2", "dragonfly-4x8x2"}, {"fattree:8", "fattree-8"}} {
		first, err := s.views.named(spellings[0])
		if err != nil {
			t.Fatal(err)
		}
		for _, spec := range spellings {
			var got network.Topology
			allocs := testing.AllocsPerRun(50, func() { got, err = s.views.named(spec) })
			if err != nil {
				t.Fatal(err)
			}
			if got != first {
				t.Fatalf("%s returned a second instance of %s", spec, first.Name())
			}
			const bound = 1
			t.Logf("%s: %.0f allocs per lookup (bound %d)", spec, allocs, bound)
			if allocs > bound {
				t.Fatalf("%s took %.0f allocs per lookup, bound %d", spec, allocs, bound)
			}
		}
	}
}
