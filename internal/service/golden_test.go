package service_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"repro/internal/collective"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/service"
	"repro/internal/topology"
	"repro/internal/trace"
)

// goldenRow pins one reply of the golden matrix: its status, and for a 200
// the SHA-256 of its body.
type goldenRow struct {
	name   string
	status int
	sha    string
}

// goldenReq is one request of the golden matrix. view names the masked
// topology view of a /recompile, which a 422 reply must name.
type goldenReq struct {
	name, path string
	doc        trace.Document
	view       string
}

// pipelined matches /session's timing-dependent trailer counter.
var pipelined = regexp.MustCompile(`,"pipelined_compiles":[0-9]+`)

// renamed returns doc under another program name: new program key, same
// phase patterns.
func renamed(doc trace.Document, name string) trace.Document {
	doc.Name = name
	return doc
}

// drifted returns doc under another name with the first message of phase
// `phase` retargeted to its next PE — a small pattern drift the store patches
// from the nearest base.
func drifted(doc trace.Document, name string, phase int) trace.Document {
	doc.Name = name
	doc.Phases = append([]trace.Phase(nil), doc.Phases...)
	msgs := append([]trace.Message(nil), doc.Phases[phase].Messages...)
	m := &msgs[0]
	m.Dst = (m.Dst + 1) % doc.PEs
	if m.Dst == m.Src {
		m.Dst = (m.Dst + 1) % doc.PEs
	}
	doc.Phases[phase].Messages = msgs
	return doc
}

// dynamicAt returns doc under another name with phase `phase` marked
// dynamic, so it is served by the AAPC fallback.
func dynamicAt(doc trace.Document, name string, phase int) trace.Document {
	doc.Name = name
	doc.Phases = append([]trace.Phase(nil), doc.Phases...)
	doc.Phases[phase].Dynamic = true
	return doc
}

// shiftDoc is a two-phase program of cyclic shifts, compiled nowhere else
// in the matrix: a /recompile of it finds no stored base.
func shiftDoc(pes int) trace.Document {
	doc := trace.Document{Name: fmt.Sprintf("shift-%d", pes), PEs: pes}
	for _, k := range []int{pes/2 - 1, pes/2 + 1} {
		ph := trace.Phase{Name: fmt.Sprintf("shift+%d", k)}
		for i := 0; i < pes; i++ {
			ph.Messages = append(ph.Messages, trace.Message{Src: i, Dst: (i + k) % pes, Flits: 3})
		}
		doc.Phases = append(doc.Phases, ph)
	}
	return doc
}

// pe16Doc is the 16-PE program every 16-PE topology of the matrix serves:
// a static ring, a dynamic phase and the ring with one circuit drifted.
func pe16Doc() trace.Document {
	ring := func() []trace.Message {
		msgs := make([]trace.Message, 16)
		for i := range msgs {
			msgs[i] = trace.Message{Src: i, Dst: (i + 1) % 16, Flits: 2}
		}
		return msgs
	}
	drift := ring()
	drift[0].Dst = 2
	cross := make([]trace.Message, 16)
	for i := range cross {
		cross[i] = trace.Message{Src: i, Dst: (i + 5) % 16, Flits: 1}
	}
	return trace.Document{Name: "pe16", PEs: 16, Phases: []trace.Phase{
		{Name: "ring", Messages: ring()},
		{Name: "cross", Dynamic: true, Messages: cross},
		{Name: "ring-drift", Messages: drift},
	}}
}

// survivorsDoc is a 64-PE program that never touches PE 63: a ring over
// PEs 0-62, on which coloring meets the resource lower bound once PE 63's
// switch is masked, and 200 random messages among the same PEs, on which
// it does not.
func survivorsDoc() trace.Document {
	ring := trace.Phase{Name: "ring-63"}
	for i := 0; i < 63; i++ {
		ring.Messages = append(ring.Messages, trace.Message{Src: i, Dst: (i + 1) % 63, Flits: 2})
	}
	scatter := trace.Phase{Name: "random-200"}
	rng := rand.New(rand.NewSource(6))
	for len(scatter.Messages) < 200 {
		if s, d := rng.Intn(63), rng.Intn(63); s != d {
			scatter.Messages = append(scatter.Messages, trace.Message{Src: s, Dst: d, Flits: 1})
		}
	}
	return trace.Document{Name: "survivors-63", PEs: 64, Phases: []trace.Phase{ring, scatter}}
}

func moeDoc(t *testing.T) trace.Document {
	t.Helper()
	coll, err := collective.MoEAllToAll(64, 2, 32, 7)
	if err != nil {
		t.Fatal(err)
	}
	return trace.FromProgram(coll.Program(1), 64)
}

// maskedView names the view /recompile builds for a link or node mask.
func maskedView(t *testing.T, topo string, links, nodes []int) string {
	t.Helper()
	top, err := topology.Parse(topo)
	if err != nil {
		t.Fatal(err)
	}
	set := fault.NewSet()
	for _, l := range links {
		set.FailLink(network.LinkID(l))
	}
	for _, n := range nodes {
		set.FailNode(network.NodeID(n))
	}
	return fault.NewMasked(top, set).Name()
}

// goldenRequests is the replay of one daemon on torus-8x8: the cache, store
// and delta paths of /compile and /recompile, then /session, then one 16-PE
// program through all three endpoints on every 16-PE topology family.
func goldenRequests(t *testing.T, prefix string) []goldenReq {
	p3m := p3mDoc(t)
	pe16 := pe16Doc()
	reqs := []goldenReq{
		{name: "compile-miss", path: "/compile", doc: p3m},
		{name: "compile-digest-repeat", path: "/compile", doc: p3m},
		{name: "compile-exact-base", path: "/compile", doc: renamed(p3m, "p3m-renamed")},
		{name: "compile-nearest-patch", path: "/compile", doc: drifted(p3m, "p3m-drifted", 0)},
		{name: "compile-dynamic", path: "/compile", doc: dynamicAt(p3m, "p3m-dynamic", 0)},
		{name: "recompile-stored-base", path: "/recompile?links=3", doc: p3m},
		{name: "recompile-no-base", path: "/recompile?links=3", doc: shiftDoc(64)},
		{name: "recompile-dynamic", path: "/recompile?links=3", doc: dynamicAt(p3m, "p3m-dynamic", 0)},
		{name: "recompile-disconnected", path: "/recompile?nodes=0", doc: p3m,
			view: maskedView(t, "torus-8x8", nil, []int{0})},
		{name: "compile-mesh-coloring", path: "/compile?topology=mesh-8x8&alg=coloring", doc: p3m},
		{name: "compile-aapc", path: "/compile?alg=aapc", doc: p3m},
		{name: "session-static", path: "/session", doc: mixedDoc(t)},
		{name: "session-drifted", path: "/session", doc: drifted(p3m, "p3m-session-drift", 1)},
		{name: "session-dynamic", path: "/session", doc: dynamicAt(mixedDoc(t), "mixed-dynamic", 2)},
		{name: "session-ring-allreduce", path: "/session", doc: ringAllReduceDoc(t, 8)},
		{name: "session-moe", path: "/session", doc: moeDoc(t)},
	}
	for _, topo := range []string{"mesh-4x4", "ring-16", "linear-16", "hypercube-4", "omega-16", "dragonfly-2x4x2", "fattree-4", "torus3d-2x2x4"} {
		q := "?topology=" + topo
		reqs = append(reqs,
			goldenReq{name: topo + "/compile", path: "/compile" + q, doc: pe16},
			goldenReq{name: topo + "/recompile", path: "/recompile" + q + "&links=1", doc: pe16,
				view: maskedView(t, topo, []int{1}, nil)},
			goldenReq{name: topo + "/session", path: "/session" + q, doc: pe16},
		)
	}
	// A dead switch the program never touches leaves the masked view with
	// no all-to-all decomposition; Combined schedules every phase with
	// coloring instead of failing.
	reqs = append(reqs, goldenReq{name: "recompile-untouched-dead-node", path: "/recompile?nodes=63",
		doc: survivorsDoc(), view: maskedView(t, "torus-8x8", nil, []int{63})})
	for i := range reqs {
		reqs[i].name = prefix + "/" + reqs[i].name
	}
	return reqs
}

// replayGolden sends the matrix to a fresh storeless and a fresh store
// daemon, one request at a time, and returns the observed rows.
func replayGolden(t *testing.T) []goldenRow {
	var rows []goldenRow
	for _, d := range []struct {
		prefix string
		cfg    service.Config
	}{
		{"nostore", service.Config{}},
		{"store", service.Config{StoreDir: t.TempDir()}},
	} {
		cfg := d.cfg
		cfg.Topology = topology.NewTorus(8, 8)
		svc, err := service.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range goldenRequests(t, d.prefix) {
			var body bytes.Buffer
			if err := trace.Write(&body, q.doc); err != nil {
				t.Fatal(err)
			}
			rec := httptest.NewRecorder()
			svc.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, q.path, &body))
			row := goldenRow{name: q.name, status: rec.Code}
			switch {
			case rec.Code == http.StatusOK:
				reply := rec.Body.Bytes()
				if strings.HasPrefix(q.path, "/session") {
					reply = pipelined.ReplaceAll(reply, nil)
				}
				sum := sha256.Sum256(reply)
				row.sha = hex.EncodeToString(sum[:])
			case rec.Code == http.StatusUnprocessableEntity:
				if q.view == "" || !strings.Contains(rec.Body.String(), q.view) {
					t.Errorf("%s: 422 does not name its masked view %q: %s", q.name, q.view, rec.Body.String())
				}
			}
			rows = append(rows, row)
		}
		svc.Close()
	}
	return rows
}

// TestGoldenReplies pins every reply of a fixed request matrix — the cache,
// store, delta and fallback paths of /compile, /recompile and /session on
// nine topology families — to the bytes it produced when the table was
// written. A phase-resolution refactor must leave every 200 byte-identical
// and every other status unchanged. On a mismatch the test prints the
// observed table, ready to paste over goldenTable once a change in the
// replies is intended.
func TestGoldenReplies(t *testing.T) {
	got := replayGolden(t)
	want := goldenTable
	mismatch := len(got) != len(want)
	for i := 0; i < len(got) && i < len(want); i++ {
		if got[i] != want[i] {
			t.Errorf("row %d: got %+v, want %+v", i, got[i], want[i])
			mismatch = true
		}
	}
	if mismatch {
		var b strings.Builder
		for _, r := range got {
			fmt.Fprintf(&b, "\t{%q, %d, %q},\n", r.name, r.status, r.sha)
		}
		t.Fatalf("golden matrix has %d rows, table %d; observed table:\n%s", len(got), len(want), b.String())
	}
}

var goldenTable = []goldenRow{
	{"nostore/compile-miss", 200, "935207dc191af75fb67369de5cfce172b3f2b68f2892f3fa0289806264ca8c8d"},
	{"nostore/compile-digest-repeat", 200, "e0767620f79d37658d470840881ec600b674ecb3c750ced60f89c595f77ddb0f"},
	{"nostore/compile-exact-base", 200, "473aa9668624d06ce4268f548c2df9985c8fc8b9505e5ac01fcdac8488466fa0"},
	{"nostore/compile-nearest-patch", 200, "ccf5138483d6fe282cb22c959254a788585154a6e5fd205072a162396839448e"},
	{"nostore/compile-dynamic", 200, "cc492b26e0b6d8ae676a7883d015e3a38122dbb7291a4e0a0f1f00e0b7961c30"},
	{"nostore/recompile-stored-base", 200, "7f87cabb91bcdad3b71038e90ad028210c0c922bc640643c2177b0da9d8099dc"},
	{"nostore/recompile-no-base", 200, "b5fbeac84848ceacb4359ac16d4fcfbf091812433c73328af4b711bcb786408b"},
	{"nostore/recompile-dynamic", 200, "25f64e7505de08ca4513c8770489c7faec36489371c529ef0bea13f2f7ff442e"},
	{"nostore/recompile-disconnected", 422, ""},
	{"nostore/compile-mesh-coloring", 200, "382811ac7bcbab3cb58a47fa7dcd6f0094c0f6bef9f00abbc08967450e641dd3"},
	{"nostore/compile-aapc", 200, "cd623354127d8f0ddb8b432094c4b05f640679619adf99b2ccae92131676cc80"},
	{"nostore/session-static", 200, "de34116cd327f0a6ced8d25597c55870e57e877f280355e28f9b7d68c04ec342"},
	{"nostore/session-drifted", 200, "cf455b10a868f84e0a423f85066a0de4fdee8eb5b2f19ddcef21ca41f70eb87a"},
	{"nostore/session-dynamic", 200, "6fb52a2dc79c8ee0ba2b9ebbd0733d63fbe2e5228b33392296f49d2f14470030"},
	{"nostore/session-ring-allreduce", 200, "390adabd26a785c0a1aa5124386bd9cade45f64645ccc435298a7311122e0cbd"},
	{"nostore/session-moe", 200, "c7686e40b05965b22fab328771b0926861c700f2c8be3a64e1447c80f58d3ab3"},
	{"nostore/mesh-4x4/compile", 200, "ad60e67c8fcc2e64256d02dc2c1434730d584e0f40da6a282cf3a7ddfbf6cade"},
	{"nostore/mesh-4x4/recompile", 200, "7698f536124d7545c18061bc84e781d671b73fa3b66d842b0dba4929eb86db59"},
	{"nostore/mesh-4x4/session", 200, "1e53c0ed6df3f4fecc993f80e446397cf29654a672008156163412055709f6a5"},
	{"nostore/ring-16/compile", 200, "834e8dadf984b6510fe5f257e19281a99760df2c0a40e7643128d4707ba22ef0"},
	{"nostore/ring-16/recompile", 200, "edde4275ffbea369022ecc6e8353ad3a56b2b268521537e80e48d0a484e586f2"},
	{"nostore/ring-16/session", 200, "8a89a58c3297dac3b120c12dc7d67ffbcbe740d31b46557dc6b72f7d362366ad"},
	{"nostore/linear-16/compile", 200, "c2a165f652b6b45e719981354395910d48f057d39c443cc1b688cd18900cd091"},
	{"nostore/linear-16/recompile", 422, ""},
	{"nostore/linear-16/session", 200, "19c7b8483bf4c70f4a67deb096ec7d37e787e2d2fda8d12a314a42e3c3d1ea05"},
	{"nostore/hypercube-4/compile", 200, "18e8615d1fc85b779b0f0fa3df0676a9219ae53dce49c9a41fe6592efc2d54b7"},
	{"nostore/hypercube-4/recompile", 200, "5ab5515e845ff3d4c340ff3b35539f68ee7b371e1f80046b5129a59dc5c3c512"},
	{"nostore/hypercube-4/session", 200, "06b40a8afa9b1f725d821d9a296f19c71d7b8ce1378f70c54186ce1f2e722208"},
	{"nostore/omega-16/compile", 200, "b5e3a3de024b3f8c67af385cb9836783d984940a19c577ed845bd9c159df5d4c"},
	{"nostore/omega-16/recompile", 422, ""},
	{"nostore/omega-16/session", 200, "6568166c7c40a6dfa171e57265d6d5cfa0a0aa8adb852cb423b04d9a4ef23429"},
	{"nostore/dragonfly-2x4x2/compile", 200, "ad5153bf0a1369c2328047e19cc6555454204fafe29985ce14cd8a8f0c46664e"},
	{"nostore/dragonfly-2x4x2/recompile", 422, ""},
	{"nostore/dragonfly-2x4x2/session", 200, "bede21b1bbe44f96236919a5124c3681d4f6fa72e54e57ecdfd0273c9361efe3"},
	{"nostore/fattree-4/compile", 200, "5664d92b85930e815e537c28c86550fe61ee830f53f837383f1181c48524daed"},
	{"nostore/fattree-4/recompile", 422, ""},
	{"nostore/fattree-4/session", 200, "f8387422e07f45cf3c141b0c1a9f8583a4b93a1c8fa0d43faf2d9940d677d334"},
	{"nostore/torus3d-2x2x4/compile", 200, "c5a52d29ae6c31b77b7b8977e269e4175615b5b2d30c351d8bd9ea684c7f412e"},
	{"nostore/torus3d-2x2x4/recompile", 200, "976d49f835284f1ff73b1becbbe2231513e0294a3cc870d6166b46f4ee845788"},
	{"nostore/torus3d-2x2x4/session", 200, "5704decbdc7319179f237710e92bf9ec2f7626b53335d262ebe82ebe32096f95"},
	{"nostore/recompile-untouched-dead-node", 200, "23b3fd30074499bdac8c179f17ec07abdf888cb8b658d440806cfd452a5ade1a"},
	{"store/compile-miss", 200, "935207dc191af75fb67369de5cfce172b3f2b68f2892f3fa0289806264ca8c8d"},
	{"store/compile-digest-repeat", 200, "e0767620f79d37658d470840881ec600b674ecb3c750ced60f89c595f77ddb0f"},
	{"store/compile-exact-base", 200, "473aa9668624d06ce4268f548c2df9985c8fc8b9505e5ac01fcdac8488466fa0"},
	{"store/compile-nearest-patch", 200, "afc5a7a1ed17dcadb50482c4ba3a9fc396f6424ed47d3f0003ede0ad235f06c6"},
	{"store/compile-dynamic", 200, "cc492b26e0b6d8ae676a7883d015e3a38122dbb7291a4e0a0f1f00e0b7961c30"},
	{"store/recompile-stored-base", 200, "20f0864b9c8ca18301e6b6ba9e10b6fb42c5ccc9530cf8ea3696984a1c53351a"},
	{"store/recompile-no-base", 200, "b5fbeac84848ceacb4359ac16d4fcfbf091812433c73328af4b711bcb786408b"},
	{"store/recompile-dynamic", 200, "eaf48b01344b93a7de78bdd981cc61d306c14108bbb5b302ba9e9ed3aa5b3586"},
	{"store/recompile-disconnected", 422, ""},
	{"store/compile-mesh-coloring", 200, "382811ac7bcbab3cb58a47fa7dcd6f0094c0f6bef9f00abbc08967450e641dd3"},
	{"store/compile-aapc", 200, "bbc9cef570aeea8255da83c5593cc2ae73d30afd533e099d46675dde4bf45fae"},
	{"store/session-static", 200, "84c736dbb1473b04b227856a128fa52564d531851d2c9b0862a7425f8f45dc7d"},
	{"store/session-drifted", 200, "d92e2e84d24d578be20e8a10c6d7285a836e436cc18efc5dc8a80c4ed96e97b6"},
	{"store/session-dynamic", 200, "7d3211df6d0d5c49cb8f4c393dd5cc040a986d1ab8d0f6dba1c18a96596ea82d"},
	{"store/session-ring-allreduce", 200, "7f0310ff035c5f17930396c2fcf8b04f5d05daa9757b3fe2ee5cd75f95c266d5"},
	{"store/session-moe", 200, "c7686e40b05965b22fab328771b0926861c700f2c8be3a64e1447c80f58d3ab3"},
	{"store/mesh-4x4/compile", 200, "96a7dc4c9784e25a54545275881231d518e4b9d9974ac735aa05a01912ea4973"},
	{"store/mesh-4x4/recompile", 200, "4b5f2cab6c5fbbadb7d30d9f6af356d940c146aa7d46401209678846a2028600"},
	{"store/mesh-4x4/session", 200, "b941a2fac0ed141c3c8ebd1138b0387f66cbb6b5d004434673d44dfeaf03fcd0"},
	{"store/ring-16/compile", 200, "1104e22c5a96da4745125ed1a7d883622f37a910ceabe0faafe86604f88fbee3"},
	{"store/ring-16/recompile", 200, "ccc10a688c0afe3868d2857c63d73f2694a0b67defe98b71a24abd899ccf0a12"},
	{"store/ring-16/session", 200, "34a883f4dc0c1a538fee1ce8f3507822bb75695c59dfa148b9a5df5d0f8bb1ae"},
	{"store/linear-16/compile", 200, "853fb4a73b95bf4293bda8a523455a37860bb43bff1cd30fea189ed82f0715ac"},
	{"store/linear-16/recompile", 422, ""},
	{"store/linear-16/session", 200, "c6701328c901faac6243fb7576465ff7807664cffa00ca53ad478c88d3bb7284"},
	{"store/hypercube-4/compile", 200, "4dc5c0b96e436a08de07bfed6f5cee8d7facdc7136cd080c19fee44cd91a503e"},
	{"store/hypercube-4/recompile", 200, "c28e8b98e9241d1b5b0794dcaaafb55a836d53f6f40f81711484c86e50e7eec1"},
	{"store/hypercube-4/session", 200, "3a07c04d371d56e23a2287764ec4b8cb523a31b1c12735dc28a90b04f8196f91"},
	{"store/omega-16/compile", 200, "695009a7e3293a9afcaf4fdb57f78e4e44b340b52f21fef9725c308c33cca578"},
	{"store/omega-16/recompile", 422, ""},
	{"store/omega-16/session", 200, "fdd1fae2e132bb64ce4a78d59aaa82c99c23bd52ff32d29cf680269275202ae0"},
	{"store/dragonfly-2x4x2/compile", 200, "2e0b500590d374e32ebb1c1b0bf2a904d48ca6e803d03a0169f2761fd34cd2ba"},
	{"store/dragonfly-2x4x2/recompile", 422, ""},
	{"store/dragonfly-2x4x2/session", 200, "fe29e9cbcde4593432385c2b49ab5d052197e50b21cf9644297b8e6e737a2945"},
	{"store/fattree-4/compile", 200, "8e88922d9ce9db65b547f9bde857540e6e2a153b016ca703bd6758c5a2fa2bec"},
	{"store/fattree-4/recompile", 422, ""},
	{"store/fattree-4/session", 200, "92f5caf6fede18798bc2053ab32296e08107742d15d762b4092a2e5ac9e1a6a4"},
	{"store/torus3d-2x2x4/compile", 200, "d2cdea13c62c373c9f089f6416d4e647943232ab431c730fdcd6272286690baa"},
	{"store/torus3d-2x2x4/recompile", 200, "4c5ab2bdaacf7e9bd8faadc74de145707eb360b8550c3a144c2bfd5ca08585be"},
	{"store/torus3d-2x2x4/session", 200, "adc2ac1ed3a4afe8ad729a73a626cd1de8b5914016e8501417dedb0c64d0ffb2"},
	{"store/recompile-untouched-dead-node", 200, "4142b06ba0b067b42e773e909da4d4d85c765126391bed3bcdb2ba486eecc8ad"},
}
