package service

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/request"
	"repro/internal/store"
	"repro/internal/trace"
)

// fuzzDocument builds a valid trace document from fuzz bytes, shaped to
// reach every branch of the canonical sort and the keys: one to three
// phases, some dynamic, some with a repeated name; PE counts whose
// endpoints need one to six bytes; duplicate messages and (src, dst) ties
// that differ in start and flits; phases left in the generated order or
// sorted; and a fault string.
func fuzzDocument(data []byte) (trace.Document, string) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := int(data[0])
		data = data[1:]
		return b
	}
	scale := []int{1, 3, 257, 65537, 1 << 40}[next()%5]
	doc := trace.Document{Name: fmt.Sprintf("fuzz-%d", next()%3), PEs: 8 * scale}
	endpoint := func() int { return (next()%8)*scale + next()%min(scale, 256) }
	for p, phases := 0, 1+next()%3; p < phases; p++ {
		ph := trace.Phase{Name: fmt.Sprintf("phase-%d", next()%2), Dynamic: next()%4 == 0}
		for m, msgs := 0, 1+next()%24; m < msgs; m++ {
			msg := trace.Message{Src: endpoint(), Dst: endpoint(), Flits: 1 + next()%3, Start: next() % 3}
			if msg.Src == msg.Dst {
				msg.Dst = (msg.Dst + 1) % doc.PEs
			}
			if prev := len(ph.Messages) - 1; prev >= 0 {
				switch next() % 4 {
				case 0: // a duplicate
					msg = ph.Messages[prev]
				case 1: // a tie on (src, dst)
					msg.Src, msg.Dst = ph.Messages[prev].Src, ph.Messages[prev].Dst
				}
			}
			ph.Messages = append(ph.Messages, msg)
		}
		if next()%2 == 0 {
			slices.SortFunc(ph.Messages, func(a, b trace.Message) int {
				return request.CompareTriples(request.Triple(a), request.Triple(b))
			})
		}
		doc.Phases = append(doc.Phases, ph)
	}
	return doc, []string{"", "links=3", "links=1,7;nodes=2"}[next()%3]
}

// cloneDocument copies a document deeply.
func cloneDocument(d trace.Document) trace.Document {
	c := d
	c.Phases = slices.Clone(d.Phases)
	for i := range c.Phases {
		c.Phases[i].Messages = slices.Clone(d.Phases[i].Messages)
	}
	return c
}

// FuzzProgramKey holds the one-pass canonical program and the keys built
// on it to the oracles: the same program, the same program key, the same
// pattern key for every phase in any order and the same store base key,
// while KeyForDocument leaves its caller's document as it was.
func FuzzProgramKey(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 1, 20, 1, 2, 3, 4, 1, 1, 0, 7, 0, 6, 0, 2, 2, 1, 0, 1, 5, 0, 5, 0, 1, 2, 1, 1})
	f.Add([]byte("tie and duplicate: many short messages on eight PEs"))
	f.Add([]byte{3, 1, 2, 0, 23, 200, 17, 9, 99, 2, 2, 1, 40, 41, 42, 43, 44, 0, 1, 255, 254, 253, 252, 251, 250, 1})
	f.Add([]byte{4, 2, 2, 1, 9, 7, 255, 0, 1, 3, 0, 1, 7, 200, 6, 100, 2, 1, 1, 0, 3, 9, 5, 8, 2, 0, 1, 1, 0, 2})
	f.Add(bytes.Repeat([]byte{2, 7, 1, 3, 0}, 40))
	// Out of order, with a (src, dst) tie whose starts arrive reversed.
	f.Add([]byte{0, 0, 0, 0, 1, 2, 3, 0, 5, 0, 2, 2, 1, 0, 2, 0, 0, 2, 3, 6, 0, 7, 0, 0, 0, 1, 1, 0})
	const topo, sched = "torus-8x8", "combined"
	f.Fuzz(func(t *testing.T, data []byte) {
		doc, faults := fuzzDocument(data)
		if err := doc.Validate(); err != nil {
			t.Fatalf("generated an invalid document: %v", err)
		}
		before := cloneDocument(doc)
		prog, err := doc.Program()
		if err != nil {
			t.Fatal(err)
		}
		want := oracleCanonicalProgram(prog)
		got := canonicalProgram(doc)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("canonical program\n got %+v\nwant %+v", got, want)
		}
		if g, w := programKey(got, doc.PEs, topo, sched, faults), oracleProgramKey(want, doc.PEs, topo, sched, faults); g != w {
			t.Fatalf("program key %s, oracle %s", g, w)
		}
		for i, ph := range doc.Phases {
			triples := make([]request.Triple, len(ph.Messages))
			for j, m := range ph.Messages {
				triples[j] = request.Triple(m)
			}
			params := []string{"alg=" + sched, "phase=" + ph.Name}
			if g, w := request.PatternKey(triples, topo, params...), oraclePatternKey(triples, topo, params...); g != w {
				t.Fatalf("phase %d pattern key %s, oracle %s", i, g, w)
			}
			reqs := got.Phases[i].Requests()
			if g, w := store.BaseKey(reqs, topo, sched), oraclePatternKey(reqs.Triples(0), topo, "alg="+sched, "kind=delta-base"); g != w {
				t.Fatalf("phase %d base key %s, oracle %s", i, g, w)
			}
		}
		key, err := KeyForDocument(doc, topo, sched)
		if err != nil {
			t.Fatal(err)
		}
		if w := oracleProgramKey(want, doc.PEs, topo, sched, ""); key != w {
			t.Fatalf("KeyForDocument %s, oracle %s", key, w)
		}
		if !reflect.DeepEqual(doc, before) {
			t.Fatal("KeyForDocument changed its argument")
		}
	})
}

// FuzzCanonicalArtifact holds canonicalArtifact to json.Marshal of a
// json.RawMessage: both fail on the same texts and otherwise write the
// same bytes, which canonicalArtifact returns in an exact-size copy.
func FuzzCanonicalArtifact(f *testing.F) {
	for _, seed := range []string{
		``, ` `, `null`, ` {"a" : [1, 2 ,3]}` + "\n\t\r ",
		`{"s":" spaced  string\t","b":true,"f":false,"n":null}`,
		`"<script>&amp;</script>"`, `"\u003c\u003e\u0026"`,
		"\"line\u2028para\u2029\"", `"\u2028\u2029"`, "\"\xe2\x80\xa8\xe2\x80\xa9\xe2\x80\xaa\xe2\x80\"",
		"\"\xff\xfe\xe2\"", "\"\xe2\x80", `"\u0000"`, "\"\x00\"", "\"\x1f\"", "\"\x7f\"",
		`[1e5,-0.5E+3,0,-0,1.0e-7,12345678901234567890]`, `[01]`, `[1.]`, `[.5]`, `[-]`, `[+1]`, `[1e]`,
		`{"k":1,"k":2}`, `{"a":1}{"b":2}`, `{"a":1} x`, `[1,]`, `{"a":1,}`, `{,}`, `[`, `{"a"}`, `{"a":}`,
		`"\ud83d\ude00"`, `"\x"`, `"\u12"`, `"\/\b\f\n\r\t\"\\"`, `tru`, `nul`, `truex`,
		`{"program":"p","pes":4,"phases":[{"name":"a & b","configs":[[[0,1],[2,3]]]}]}`,
	} {
		f.Add([]byte(seed))
	}
	if got, err := canonicalArtifact(nil); err != nil || string(got) != "null" {
		f.Fatalf("nil artifact: %q, %v; json.Marshal writes null", got, err)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		want, wantErr := json.Marshal(json.RawMessage(b))
		got, err := canonicalArtifact(b)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("%q: error %v, json.Marshal's %v", b, err, wantErr)
		}
		if err != nil {
			return
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("%q: wrote %q, json.Marshal %q", b, got, want)
		}
		if len(got) != cap(got) {
			t.Fatalf("%q: %d bytes in a buffer of %d", b, len(got), cap(got))
		}
		if len(b) > 0 && &got[0] == &b[0] {
			t.Fatalf("%q: the artifact aliases its input", b)
		}
	})
}
