package service

import (
	"bytes"
	"encoding/json"
	"math/rand"
	"net/http"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/redist"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/trace"
)

// redistBody returns a single-phase /compile body holding one of the
// paper's Table 2 redistributions (a random block-cyclic redistribution of
// a 64×64×64 array over the 8×8 torus's 64 PEs) with 900 to 1100 messages.
// The stream is fixed, so every run posts the same body.
func redistBody(t testing.TB) []byte {
	t.Helper()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		pat, _, _, err := redist.RandomRedistribution(rng, [3]int{64, 64, 64}, 64)
		if err != nil {
			t.Fatal(err)
		}
		if len(pat.Reqs) < 900 || len(pat.Reqs) > 1100 {
			continue
		}
		msgs := make([]trace.Message, len(pat.Reqs))
		for j, r := range pat.Reqs {
			msgs[j] = trace.Message{Src: int(r.Src), Dst: int(r.Dst), Flits: (pat.Volume[r] + apps.FlitElements - 1) / apps.FlitElements}
		}
		// Compact, as internal/service/client sends it.
		body, err := json.Marshal(trace.Document{Name: "redist", PEs: 64, Phases: []trace.Phase{{Name: "redistribute", Messages: msgs}}})
		if err != nil {
			t.Fatal(err)
		}
		return body
	}
	t.Fatal("no redistribution of about 1000 messages in the stream")
	return nil
}

// nullWriter is the least a handler can write to: a reused header map and a
// byte count.
type nullWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) WriteHeader(code int)        { w.status = code }
func (w *nullWriter) Write(b []byte) (int, error) { w.n += len(b); return len(b), nil }

// rewindBody is a request body that can be replayed without allocating.
type rewindBody struct{ bytes.Reader }

func (*rewindBody) Close() error { return nil }

// TestHitPathAllocs bounds the allocations of an in-process /compile hit:
// Server.ServeHTTP answering a byte-identical repeat of a ~1000-message
// redistribution (a 31 KB body), with no client, no transport and a writer
// that keeps nothing. Before the request-digest alias and the spliced
// envelope the repeat took 87 allocations (go1.24, linux/amd64): the body
// read, the trace decode, the per-phase sort, the pattern key and the
// envelope encode. It now takes 8 — reading and hashing the body, the
// envelope's head and its two headers — and the bound leaves room for
// other Go releases.
func TestHitPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newWhiteboxServer(t, Config{Topology: topology.NewTorus(8, 8)})
	body := redistBody(t)
	rb := &rewindBody{}
	req, err := http.NewRequest(http.MethodPost, "/compile", rb)
	if err != nil {
		t.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	w := &nullWriter{h: make(http.Header)}
	post := func() {
		rb.Reset(body)
		w.status, w.n = 0, 0
		s.ServeHTTP(w, req)
	}
	post() // the compile
	if w.status != http.StatusOK {
		t.Fatalf("compile answered %d", w.status)
	}
	allocs := testing.AllocsPerRun(50, post)
	if w.status != http.StatusOK || w.n == 0 {
		t.Fatalf("repeat answered %d with %d bytes", w.status, w.n)
	}
	const bound = 12
	t.Logf("hit path: %.0f allocs per request (bound %d)", allocs, bound)
	if allocs > bound {
		t.Fatalf("hit path took %.0f allocs per request, bound %d", allocs, bound)
	}
}

// TestTraceDecodeAllocs bounds trace.Decode of the redistribution body:
// the document's two names and its two lists, plus room for the pooled
// message buffer to be refilled after a collection. encoding/json's Decoder
// took 36.
func TestTraceDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	body := redistBody(t)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := trace.Decode(body); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 18
	t.Logf("trace decode: %.0f allocs (bound %d)", allocs, bound)
	if allocs > bound {
		t.Fatalf("trace decode took %.0f allocs, bound %d", allocs, bound)
	}
}

// TestReplyDecodeAllocs bounds DecodeResponse of the reply to the
// redistribution body: the strings, the phase list, and each phase's
// configs with their one backing array of pairs. json.Unmarshal of the
// envelope and then of its result took 243.
func TestReplyDecodeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newWhiteboxServer(t, Config{Topology: topology.NewTorus(8, 8)})
	rec := postTrace(s, "/compile", redistBody(t))
	if rec.Code != http.StatusOK {
		t.Fatalf("compile answered %d", rec.Code)
	}
	reply := rec.Body.Bytes()
	allocs := testing.AllocsPerRun(50, func() {
		if _, _, err := DecodeResponse(reply); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 24
	t.Logf("reply decode (%d bytes): %.0f allocs (bound %d)", len(reply), allocs, bound)
	if allocs > bound {
		t.Fatalf("reply decode took %.0f allocs, bound %d", allocs, bound)
	}
}

// TestParseAllocs bounds Server.parse of the redistribution body: the
// query, the request, trace.Decode's allocations, the program's one backing
// array of messages with its phase list and its sort buffer, and the key.
// Before the program was built in one pass it took 37: a second
// validation's copy, a canonical copy, the key's triples and their sorted
// copy, sort.Slice's reflection and a Write per key field.
func TestParseAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	s := newWhiteboxServer(t, Config{Topology: topology.NewTorus(8, 8)})
	body := redistBody(t)
	req, err := http.NewRequest(http.MethodPost, "/compile", nil)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := s.parse(req, body, nil, false); err != nil {
			t.Fatal(err)
		}
	})
	const bound = 24
	t.Logf("parse: %.0f allocs (bound %d)", allocs, bound)
	if allocs > bound {
		t.Fatalf("parse took %.0f allocs, bound %d", allocs, bound)
	}
}

// BenchmarkParse times Server.parse of the redistribution body: decode,
// canonical program and key.
func BenchmarkParse(b *testing.B) {
	s, err := New(Config{Topology: topology.NewTorus(8, 8)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := redistBody(b)
	req, err := http.NewRequest(http.MethodPost, "/compile", nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := s.parse(req, body, nil, false); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCanonicalArtifact times the admission of a peer's artifact:
// canonicalArtifact of the redistribution body's compiled result.
func BenchmarkCanonicalArtifact(b *testing.B) {
	s, err := New(Config{Topology: topology.NewTorus(8, 8)})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	rec := postTrace(s, "/compile", redistBody(b))
	env, _, err := DecodeResponse(rec.Body.Bytes())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(env.Result)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := canonicalArtifact(env.Result); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSortMessages sorts the redistribution body's messages, shuffled,
// into canonical order: the radix sort canonicalProgram runs, and the
// sort.Slice of the oracle it replaced.
func BenchmarkSortMessages(b *testing.B) {
	doc, err := trace.Decode(redistBody(b))
	if err != nil {
		b.Fatal(err)
	}
	msgs := canonicalProgram(doc).Phases[0].Messages
	rand.New(rand.NewSource(1)).Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
	work := make([]sim.Message, len(msgs))
	for _, bc := range []struct {
		name string
		sort func([]sim.Message)
	}{
		{"radix", sortMessages},
		{"sort.Slice", func(m []sim.Message) {
			oracleCanonicalProgram(core.Program{Phases: []core.Phase{{Messages: m}}})
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				copy(work, msgs)
				bc.sort(work)
			}
		})
	}
}
