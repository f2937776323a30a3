package request

import (
	"cmp"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Triple is one entry of a canonical communication pattern: a connection
// from Src to Dst carrying Flits flits, optionally injected at slot Start
// (zero for pure patterns with no traced timing). Triples are the unit the
// content-addressed schedule cache hashes: a phase's message list reduced to
// triples, canonically ordered, identifies the compiled artifact regardless
// of the order a caller happened to enumerate its messages in.
type Triple struct {
	Src, Dst, Flits, Start int
}

// Triples converts the request set to unit-flit triples, the form PatternKey
// hashes. Duplicate requests stay duplicated — the multiset is part of the
// pattern's identity.
func (s Set) Triples(flits int) []Triple {
	out := make([]Triple, len(s))
	for i, r := range s {
		out[i] = Triple{Src: int(r.Src), Dst: int(r.Dst), Flits: flits}
	}
	return out
}

// CompareTriples is the canonical order: by Src, then Dst, Start and
// Flits. It is total over all four fields, so every correct sort of a
// multiset of triples yields the same sequence.
func CompareTriples(a, b Triple) int {
	switch {
	case a.Src != b.Src:
		return cmp.Compare(a.Src, b.Src)
	case a.Dst != b.Dst:
		return cmp.Compare(a.Dst, b.Dst)
	case a.Start != b.Start:
		return cmp.Compare(a.Start, b.Start)
	}
	return cmp.Compare(a.Flits, b.Flits)
}

// CanonicalTriples returns a copy of the triples in canonical order. Two
// message lists that are permutations of each other canonicalize
// identically, which is what makes PatternKey independent of request order
// and of map iteration in any producer.
func CanonicalTriples(ts []Triple) []Triple {
	out := make([]Triple, len(ts))
	copy(out, ts)
	slices.SortFunc(out, CompareTriples)
	return out
}

// patternKeyDomain separates PatternKey digests from any other SHA-256 use;
// bumping the version invalidates every persisted key on purpose.
const patternKeyDomain = "ccomm-pattern-v1"

// PatternKey returns the canonical content hash of a communication pattern:
// a hex SHA-256 over the canonically ordered triples, the topology name,
// and any extra parameters that select a different compiled artifact
// (scheduler name, fault mask, phase attributes). The encoding is
// injective — every field is length- or count-prefixed — so two inputs
// collide only if SHA-256 itself collides, and the triple ordering is
// canonicalized first (by a sorted copy, unless the triples are already in
// canonical order), so the key never depends on request order.
func PatternKey(triples []Triple, topology string, params ...string) string {
	if !slices.IsSortedFunc(triples, CompareTriples) {
		triples = CanonicalTriples(triples)
	}
	return CanonicalPatternKey(len(triples), func(i int) Triple { return triples[i] }, topology, params...)
}

// CanonicalPatternKey is PatternKey of n triples that are already in
// canonical order, read by index through at, so a caller holding them in
// another form hashes them without copying or sorting them. Triples out of
// canonical order give a key that no permutation of them has.
func CanonicalPatternKey(n int, at func(i int) Triple, topology string, params ...string) string {
	h := sha256.New()
	b := make([]byte, 0, keyChunk) // the encoding, hashed a chunk at a time
	b = appendKeyString(b, patternKeyDomain)
	b = appendKeyString(b, topology)
	b = appendKeyInt(b, len(params))
	for _, p := range params {
		b = appendKeyString(b, p)
	}
	b = appendKeyInt(b, n)
	for i := 0; i < n; i++ {
		if len(b) > keyChunk-32 {
			h.Write(b)
			b = b[:0]
		}
		t := at(i)
		b = appendKeyInt(b, t.Src)
		b = appendKeyInt(b, t.Dst)
		b = appendKeyInt(b, t.Flits)
		b = appendKeyInt(b, t.Start)
	}
	h.Write(b)
	return hex.EncodeToString(h.Sum(b[:0]))
}

// keyChunk is the size of the buffer PatternKey encodes into: large enough
// that SHA-256 sees few Writes, small enough to cost nothing to allocate.
const keyChunk = 2048

// appendKeyInt appends v as eight little-endian bytes.
func appendKeyInt(b []byte, v int) []byte {
	return binary.LittleEndian.AppendUint64(b, uint64(int64(v)))
}

// appendKeyString appends s prefixed by its length.
func appendKeyString(b []byte, s string) []byte {
	return append(appendKeyInt(b, len(s)), s...)
}
