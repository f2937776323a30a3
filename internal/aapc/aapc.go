// Package aapc constructs phased decompositions of the all-to-all
// personalized communication (AAPC) pattern: partitions of all N*(N-1)
// connection requests into contention-free phases, each of which is a valid
// network configuration.
//
// The ordered-AAPC scheduler (Fig. 5 of the paper) relies on such a set: any
// communication pattern embeds in AAPC, so scheduling requests in AAPC-phase
// order bounds the multiplexing degree for dense patterns by the number of
// AAPC phases — at most N^3/8 for an N x N torus (Hinrichs et al., SPAA'94).
//
// The torus decomposition here groups connections into offset classes
// (dx, dy): all sources translated by the same per-dimension hop counts.
// Within a class, sources whose coordinates agree modulo the offset
// magnitudes have link-disjoint L-shaped circuits, so the class splits into
// structured subphases. Classes are emitted longest-path-first and packed
// first-fit into phases; the structure keeps the packing near the link-load
// lower bound (63 for the paper's 8x8 torus; the paper quotes the N^3/8 = 64
// bound).
package aapc

import (
	"fmt"
	"sort"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/topology"
)

// Set is a decomposition of the complete all-to-all pattern on a topology
// into contention-free phases.
type Set struct {
	// Topology the decomposition was built for.
	Topology network.Topology
	// Phases lists the contention-free configurations; their union is the
	// complete all-to-all request set.
	Phases []request.Set

	// n is the terminal count; phaseOf[src*n+dst] is the phase of (src,
	// dst), -1 for a pair outside the decomposition.
	n       int
	phaseOf []int32
}

// NumPhases returns the number of phases in the decomposition.
func (s *Set) NumPhases() int { return len(s.Phases) }

// PhaseOf returns the index of the phase containing request r, and whether
// the request belongs to the decomposition (it does not when r is a
// self-loop or out of range).
func (s *Set) PhaseOf(r request.Request) (int, bool) {
	if uint(r.Src) >= uint(s.n) || uint(r.Dst) >= uint(s.n) {
		return 0, false
	}
	k := s.phaseOf[int(r.Src)*s.n+int(r.Dst)]
	return int(k), k >= 0
}

// newSet indexes phases, a partition of the all-to-all pattern on t's
// terminals, by pair.
func newSet(t network.Topology, phases []request.Set) *Set {
	n := network.TerminalCount(t)
	s := &Set{Topology: t, Phases: phases, n: n, phaseOf: make([]int32, n*n)}
	for i := range s.phaseOf {
		s.phaseOf[i] = -1
	}
	for k, phase := range phases {
		for _, r := range phase {
			s.phaseOf[int(r.Src)*n+int(r.Dst)] = int32(k)
		}
	}
	return s
}

// Validate checks that the set is a true partition of the all-to-all
// pattern into conflict-free configurations.
func (s *Set) Validate() error {
	n := network.TerminalCount(s.Topology)
	seen := make(map[request.Request]int)
	for k, phase := range s.Phases {
		occ := network.NewOccupancy()
		for _, r := range phase {
			p, err := s.Topology.Route(r.Src, r.Dst)
			if err != nil {
				return fmt.Errorf("aapc: phase %d request %v: %w", k, r, err)
			}
			if !occ.CanAdd(p) {
				return fmt.Errorf("aapc: phase %d not contention-free at %v", k, r)
			}
			occ.Add(p)
			seen[r]++
		}
	}
	want := n * (n - 1)
	if len(seen) != want {
		return fmt.Errorf("aapc: decomposition covers %d pairs, want %d", len(seen), want)
	}
	for r, c := range seen {
		if c != 1 {
			return fmt.Errorf("aapc: request %v appears %d times", r, c)
		}
	}
	return nil
}

// Decompose builds an AAPC configuration set for the topology. The torus
// gets the structured offset-class decomposition; other topologies fall
// back to longest-path-first first-fit packing, which is what the generic
// bound in the paper's section 3.3 requires (any fixed contention-free
// partition of AAPC works; structure only improves the constant).
func Decompose(t network.Topology) (*Set, error) {
	switch tt := t.(type) {
	case *topology.Torus:
		return decomposeTorus(tt)
	default:
		return decomposeGeneric(t)
	}
}

// pairKey orders requests for deterministic first-fit packing.
type orderedReq struct {
	req  request.Request
	path network.Path
	key  [4]int // sort key fields, compared lexicographically descending/ascending as built
}

// pack first-fit packs pre-ordered requests into contention-free phases.
func pack(t network.Topology, ordered []orderedReq) (*Set, error) {
	var phases []request.Set
	var occs []*network.Occupancy
	for _, or := range ordered {
		placed := false
		for k := range phases {
			if occs[k].CanAdd(or.path) {
				occs[k].Add(or.path)
				phases[k] = append(phases[k], or.req)
				placed = true
				break
			}
		}
		if !placed {
			occ := network.NewOccupancy()
			occ.Add(or.path)
			occs = append(occs, occ)
			phases = append(phases, request.Set{or.req})
		}
	}
	return newSet(t, phases), nil
}

// decomposeTorus builds the tight product decomposition when per-dimension
// ring Latin squares exist (both dimensions <= 8 with balanced ties, which
// covers the paper's 8x8 torus and reaches its N^3/8 = 64 phase bound), and
// falls back to structured first-fit packing otherwise.
func decomposeTorus(t *topology.Torus) (*Set, error) {
	if t.Tie == topology.TieBalanced {
		lw, okW := RingLatin(t.W)
		lh, okH := RingLatin(t.H)
		if okW && okH {
			return productDecomposition(t, lw, lh)
		}
	}
	return decomposeTorusFirstFit(t)
}

// productDecomposition assigns connection ((r,c) -> (r',c')) to phase
// Lw[c][c'] * H + Lh[r][r']. Latin-square row/column uniqueness bounds each
// PE to one injection and one ejection per phase; per-slot arc disjointness
// of the ring squares makes all x-arcs (same row) and y-arcs (same column)
// of a phase link-disjoint. See ringlatin.go for the argument.
func productDecomposition(t *topology.Torus, lw, lh [][]int) (*Set, error) {
	n := t.NumNodes()
	raw := make([]request.Set, t.W*t.H)
	for s := 0; s < n; s++ {
		sr, sc := t.Coord(network.NodeID(s))
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			dr, dc := t.Coord(network.NodeID(d))
			k := lw[sc][dc]*t.H + lh[sr][dr]
			raw[k] = append(raw[k], request.Request{Src: network.NodeID(s), Dst: network.NodeID(d)})
		}
	}
	var phases []request.Set
	for _, phase := range raw {
		if len(phase) == 0 {
			continue // a phase of two identity slots carries only self pairs
		}
		phases = append(phases, phase)
	}
	return newSet(t, phases), nil
}

// decomposeTorusFirstFit orders all pairs by offset class, longest classes
// first, and within a class by structured subphase (source coordinates
// modulo the offset magnitudes), then first-fit packs.
func decomposeTorusFirstFit(t *topology.Torus) (*Set, error) {
	n := t.NumNodes()
	ordered := make([]orderedReq, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			req := request.Request{Src: network.NodeID(s), Dst: network.NodeID(d)}
			p, err := t.Route(req.Src, req.Dst)
			if err != nil {
				return nil, err
			}
			dx, dy := t.Offsets(req.Src, req.Dst)
			mx, my := maxi(1, absi(dx)), maxi(1, absi(dy))
			sr, sc := t.Coord(req.Src)
			ordered = append(ordered, orderedReq{
				req:  req,
				path: p,
				// Class: total length desc, then (dx, dy) for determinism.
				// Subphase within class: (col mod |dx|, row mod |dy|).
				key: [4]int{
					-(absi(dx) + absi(dy)),
					dx*1000 + dy,
					(sc%mx)*1000 + sr%my,
					sr*1000 + sc,
				},
			})
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i].key, ordered[j].key
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return pack(t, ordered)
}

// decomposeGeneric orders all pairs longest-path-first and first-fit packs.
func decomposeGeneric(t network.Topology) (*Set, error) {
	n := network.TerminalCount(t)
	ordered := make([]orderedReq, 0, n*(n-1))
	for s := 0; s < n; s++ {
		for d := 0; d < n; d++ {
			if s == d {
				continue
			}
			req := request.Request{Src: network.NodeID(s), Dst: network.NodeID(d)}
			p, err := t.Route(req.Src, req.Dst)
			if err != nil {
				return nil, err
			}
			ordered = append(ordered, orderedReq{
				req:  req,
				path: p,
				key:  [4]int{-p.Len(), s, d, 0},
			})
		}
	}
	sort.Slice(ordered, func(i, j int) bool {
		a, b := ordered[i].key, ordered[j].key
		for k := range a {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return false
	})
	return pack(t, ordered)
}

func absi(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func maxi(a, b int) int {
	if a > b {
		return a
	}
	return b
}
