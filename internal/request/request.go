// Package request models sets of connection requests — the input to the
// off-line connection-scheduling algorithms. A request (s, d) asks for an
// all-optical circuit from PE s to PE d.
package request

import (
	"fmt"
	"sort"

	"repro/internal/network"
)

// Request is a single connection request from Src to Dst.
type Request struct {
	Src, Dst network.NodeID
}

// String implements fmt.Stringer in the paper's "(s, d)" notation.
func (r Request) String() string { return fmt.Sprintf("(%d, %d)", r.Src, r.Dst) }

// Set is an ordered collection of requests. Order matters: the greedy
// scheduler is order-sensitive (the whole point of the Fig. 3 example and of
// the ordered-AAPC reordering), so Set preserves insertion order.
type Set []Request

// Clone returns a copy of the set.
func (s Set) Clone() Set {
	out := make(Set, len(s))
	copy(out, s)
	return out
}

// Sorted returns a copy sorted by (Src, Dst); useful for deterministic
// comparison in tests.
func (s Set) Sorted() Set {
	out := s.Clone()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Src != out[j].Src {
			return out[i].Src < out[j].Src
		}
		return out[i].Dst < out[j].Dst
	})
	return out
}

// Dedup returns a copy with duplicate (s, d) pairs removed, preserving the
// first occurrence's position. It is hash-free and O(n) on any input: a
// stable radix sort of the pairs (SortPairs) leaves each pair's
// occurrences adjacent and in input order, so the first of every run is
// the one kept.
func (s Set) Dedup() Set {
	n := len(s)
	buf := make([]PairKey, 2*n)
	keys, scratch := buf[:n], buf[n:]
	for i, r := range s {
		keys[i] = PairKey{Src: uint(r.Src), Dst: uint(r.Dst), At: int32(i)}
	}
	SortPairs(keys, scratch)
	// scratch is free now: dup[i].At = 1 marks s[i] as a later occurrence
	// of its pair.
	dup := scratch
	clear(dup)
	kept := n
	for k := 1; k < n; k++ {
		if keys[k-1].Src == keys[k].Src && keys[k-1].Dst == keys[k].Dst {
			dup[keys[k].At].At = 1
			kept--
		}
	}
	out := make(Set, 0, kept)
	for i, r := range s {
		if dup[i].At == 0 {
			out = append(out, r)
		}
	}
	return out
}

// PairKey is one element's key for SortPairs: its (src, dst) pair, read as
// unsigned integers, and its index in the caller's slice.
type PairKey struct {
	Src, Dst uint
	At       int32
}

// SortPairs stably sorts keys on (Src, Dst) with a least-significant-digit
// radix sort through scratch, which must be at least as long as keys: one
// counting pass over 256 buckets per byte the largest Dst and then the
// largest Src need. Keys of equal pairs keep their order. It hashes
// nothing and needs no memory beyond scratch, whatever the key range.
func SortPairs(keys, scratch []PairKey) {
	var srcBits, dstBits uint
	for _, k := range keys {
		srcBits |= k.Src
		dstBits |= k.Dst
	}
	from, to := keys, scratch[:len(keys)]
	pass := func(bySrc bool, shift uint) {
		digit := func(k PairKey) uint {
			if bySrc {
				return k.Src >> shift & 0xff
			}
			return k.Dst >> shift & 0xff
		}
		var start [256]int
		for _, k := range from {
			start[digit(k)]++
		}
		at := 0
		for b, c := range start {
			start[b], at = at, at+c
		}
		for _, k := range from {
			b := digit(k)
			to[start[b]] = k
			start[b]++
		}
		from, to = to, from
	}
	for shift := uint(0); dstBits>>shift != 0; shift += 8 {
		pass(false, shift)
	}
	for shift := uint(0); srcBits>>shift != 0; shift += 8 {
		pass(true, shift)
	}
	copy(keys, from) // a no-op after an even number of passes
}

// Validate checks that every request addresses nodes inside the topology
// and is not a self-loop.
func (s Set) Validate(t network.Topology) error {
	n := t.NumNodes()
	for i, r := range s {
		if int(r.Src) < 0 || int(r.Src) >= n || int(r.Dst) < 0 || int(r.Dst) >= n {
			return fmt.Errorf("request %d: %v out of range for %s", i, r, t.Name())
		}
		if r.Src == r.Dst {
			return fmt.Errorf("request %d: %v is a self-loop", i, r)
		}
	}
	return nil
}

// Sources returns the multiset of per-source request counts. The maximum is
// a lower bound on the multiplexing degree (each PE has one injection port).
func (s Set) Sources() map[network.NodeID]int {
	m := make(map[network.NodeID]int)
	for _, r := range s {
		m[r.Src]++
	}
	return m
}

// Destinations returns the multiset of per-destination request counts.
func (s Set) Destinations() map[network.NodeID]int {
	m := make(map[network.NodeID]int)
	for _, r := range s {
		m[r.Dst]++
	}
	return m
}

// Routes computes the circuit path of every request in the set. Paths are
// served from the topology's route table (see network.RoutesOf), so
// repeated pairs — within one set or across scheduling runs on the same
// topology value — are routed once. The returned paths share link slices
// with the table and must not be mutated.
func (s Set) Routes(t network.Topology) ([]network.Path, error) {
	paths := make([]network.Path, len(s))
	rs := network.RoutesOf(t)
	for i, r := range s {
		p, err := rs.Route(r.Src, r.Dst)
		if err != nil {
			return nil, fmt.Errorf("request %v: %w", r, err)
		}
		paths[i] = p
	}
	return paths, nil
}
