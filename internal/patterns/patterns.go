// Package patterns generates the communication patterns used throughout the
// paper's evaluation: uniformly random request sets (Table 1) and the
// frequently used patterns — ring, nearest neighbor, hypercube,
// shuffle-exchange and all-to-all (Table 3). Patterns are logical: they name
// PE pairs and are independent of the physical topology they are later
// scheduled on (the paper embeds them all in the 8x8 torus).
package patterns

import (
	"fmt"
	"math/rand"

	"repro/internal/network"
	"repro/internal/request"
)

// Random generates a pattern of n distinct random connection requests over
// `nodes` PEs. Sources and destinations are drawn from the uniform
// distribution; self-loops and duplicate (s, d) pairs are rejected and
// redrawn, matching the paper's random-pattern workload (up to 4032 distinct
// pairs on 64 nodes).
func Random(rng *rand.Rand, nodes, n int) (request.Set, error) {
	if nodes < 0 || n < 0 {
		return nil, fmt.Errorf("patterns: negative count (%d requests over %d nodes)", n, nodes)
	}
	maxPairs := nodes * (nodes - 1)
	if n > maxPairs {
		return nil, fmt.Errorf("patterns: %d requests exceed the %d distinct pairs of %d nodes", n, maxPairs, nodes)
	}
	seen := make(map[request.Request]struct{}, n)
	set := make(request.Set, 0, n)
	for len(set) < n {
		s := network.NodeID(rng.Intn(nodes))
		d := network.NodeID(rng.Intn(nodes))
		if s == d {
			continue
		}
		r := request.Request{Src: s, Dst: d}
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = struct{}{}
		set = append(set, r)
	}
	return set, nil
}

// Ring treats the PEs as a logical ring and connects every PE to both of
// its neighbors: 2*nodes requests (the GS pattern; 128 connections for 64
// PEs in Table 3).
func Ring(nodes int) request.Set {
	set := make(request.Set, 0, 2*nodes)
	for i := 0; i < nodes; i++ {
		set = append(set,
			request.Request{Src: network.NodeID(i), Dst: network.NodeID((i + 1) % nodes)},
			request.Request{Src: network.NodeID(i), Dst: network.NodeID((i - 1 + nodes) % nodes)},
		)
	}
	return set
}

// LinearNeighbors is the open-chain variant of Ring: every PE talks to its
// adjacent PEs without wraparound (the exact GS shared-array pattern, where
// boundary PEs have a single neighbor).
func LinearNeighbors(nodes int) request.Set {
	set := make(request.Set, 0, 2*nodes-2)
	for i := 0; i < nodes-1; i++ {
		set = append(set,
			request.Request{Src: network.NodeID(i), Dst: network.NodeID(i + 1)},
			request.Request{Src: network.NodeID(i + 1), Dst: network.NodeID(i)},
		)
	}
	return set
}

// NearestNeighbor2D treats the PEs as a logical w x h wraparound grid and
// connects every PE with its four neighbors: 4*w*h requests (256 for 8x8 in
// Table 3).
func NearestNeighbor2D(w, h int) request.Set {
	node := func(r, c int) network.NodeID {
		return network.NodeID(((r+h)%h)*w + (c+w)%w)
	}
	set := make(request.Set, 0, 4*w*h)
	for r := 0; r < h; r++ {
		for c := 0; c < w; c++ {
			src := node(r, c)
			set = append(set,
				request.Request{Src: src, Dst: node(r, c+1)},
				request.Request{Src: src, Dst: node(r, c-1)},
				request.Request{Src: src, Dst: node(r+1, c)},
				request.Request{Src: src, Dst: node(r-1, c)},
			)
		}
	}
	return set
}

// NearestNeighbor3D treats the PEs as a logical x*y*z wraparound grid and
// connects every PE with all 26 surrounding PEs (the P3M 5 pattern).
// Duplicate destinations that arise when a dimension has fewer than 3
// distinct coordinates are removed.
func NearestNeighbor3D(x, y, z int) request.Set {
	node := func(i, j, k int) network.NodeID {
		i, j, k = (i+x)%x, (j+y)%y, (k+z)%z
		return network.NodeID((i*y+j)*z + k)
	}
	var set request.Set
	for i := 0; i < x; i++ {
		for j := 0; j < y; j++ {
			for k := 0; k < z; k++ {
				src := node(i, j, k)
				seen := map[network.NodeID]struct{}{src: {}}
				for di := -1; di <= 1; di++ {
					for dj := -1; dj <= 1; dj++ {
						for dk := -1; dk <= 1; dk++ {
							if di == 0 && dj == 0 && dk == 0 {
								continue
							}
							dst := node(i+di, j+dj, k+dk)
							if _, ok := seen[dst]; ok {
								continue
							}
							seen[dst] = struct{}{}
							set = append(set, request.Request{Src: src, Dst: dst})
						}
					}
				}
			}
		}
	}
	return set
}

// Hypercube connects every PE with its log2(nodes) hypercube neighbors
// (the TSCF pattern; 384 connections for 64 PEs in Table 3). nodes must be
// a power of two.
func Hypercube(nodes int) (request.Set, error) {
	if nodes <= 0 || nodes&(nodes-1) != 0 {
		return nil, fmt.Errorf("patterns: hypercube needs a power-of-two node count, got %d", nodes)
	}
	var set request.Set
	for i := 0; i < nodes; i++ {
		for b := 1; b < nodes; b <<= 1 {
			set = append(set, request.Request{Src: network.NodeID(i), Dst: network.NodeID(i ^ b)})
		}
	}
	return set, nil
}

// ShuffleExchange connects every PE i to shuffle(i) (cyclic left rotation
// of its binary address) and to exchange(i) = i XOR 1. Fixed points of the
// shuffle (nodes 0 and nodes-1) contribute no shuffle request, which yields
// the paper's 126 connections for 64 PEs. nodes must be a power of two.
func ShuffleExchange(nodes int) (request.Set, error) {
	if nodes <= 1 || nodes&(nodes-1) != 0 {
		return nil, fmt.Errorf("patterns: shuffle-exchange needs a power-of-two node count, got %d", nodes)
	}
	logN := 0
	for 1<<logN < nodes {
		logN++
	}
	var set request.Set
	for i := 0; i < nodes; i++ {
		shuffled := ((i << 1) | (i >> (logN - 1))) & (nodes - 1)
		if shuffled != i {
			set = append(set, request.Request{Src: network.NodeID(i), Dst: network.NodeID(shuffled)})
		}
		set = append(set, request.Request{Src: network.NodeID(i), Dst: network.NodeID(i ^ 1)})
	}
	return set, nil
}

// AllToAll connects every PE to every other PE: nodes*(nodes-1) requests
// (4032 for 64 PEs).
func AllToAll(nodes int) request.Set {
	set := make(request.Set, 0, nodes*(nodes-1))
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			if s != d {
				set = append(set, request.Request{Src: network.NodeID(s), Dst: network.NodeID(d)})
			}
		}
	}
	return set
}

// Transpose connects PE (r, c) of a logical w x w grid to PE (c, r); PEs on
// the diagonal send nothing. A classic dense pattern used in the extension
// experiments.
func Transpose(w int) request.Set {
	var set request.Set
	for r := 0; r < w; r++ {
		for c := 0; c < w; c++ {
			if r != c {
				set = append(set, request.Request{
					Src: network.NodeID(r*w + c),
					Dst: network.NodeID(c*w + r),
				})
			}
		}
	}
	return set
}

// BitReversal connects every PE to the PE whose address is its bit-reversed
// address. nodes must be a power of two.
func BitReversal(nodes int) (request.Set, error) {
	if nodes <= 1 || nodes&(nodes-1) != 0 {
		return nil, fmt.Errorf("patterns: bit reversal needs a power-of-two node count, got %d", nodes)
	}
	logN := 0
	for 1<<logN < nodes {
		logN++
	}
	var set request.Set
	for i := 0; i < nodes; i++ {
		rev := 0
		for b := 0; b < logN; b++ {
			if i&(1<<b) != 0 {
				rev |= 1 << (logN - 1 - b)
			}
		}
		if rev != i {
			set = append(set, request.Request{Src: network.NodeID(i), Dst: network.NodeID(rev)})
		}
	}
	return set, nil
}
