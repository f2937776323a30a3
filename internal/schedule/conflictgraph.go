package schedule

import (
	"math/bits"

	"repro/internal/network"
)

// ConflictGraph is the graph whose vertices are connection requests and
// whose edges join pairs of requests that cannot share a configuration. The
// coloring scheduler colors this graph; the number of colors equals the
// multiplexing degree.
//
// Adjacency is stored as one bitset row per vertex so that degree updates
// and neighborhood scans during coloring stay cache-friendly even for the
// 4032-request all-to-all pattern of the paper's 8x8 torus.
type ConflictGraph struct {
	n    int
	rows [][]uint64
	deg  []int
}

// resourceIndex is the inverted index from each resource (directed link,
// then source port, then destination port) to the requests occupying it, in
// compressed-sparse-row form: resource r's users are
// user[start[r]:start[r+1]]. The flat layout is what the arena reuses
// across compiles — rebuilding it touches no allocator.
type resourceIndex struct {
	start []int32 // len nres+1, prefix sums
	pos   []int32 // scratch: per-resource fill cursor
	user  []int32 // concatenated user lists, in ascending request order
}

// build fills the index for pre-routed requests on a resource space of
// nl links and nn nodes, reusing the receiver's memory.
func (ix *resourceIndex) build(nl, nn int, paths []network.Path) {
	nres := nl + 2*nn
	ix.start = growZero(ix.start, nres+1)
	for _, p := range paths {
		for _, l := range p.Links {
			ix.start[int(l)+1]++
		}
		ix.start[nl+int(p.Src)+1]++
		ix.start[nl+nn+int(p.Dst)+1]++
	}
	for r := 1; r <= nres; r++ {
		ix.start[r] += ix.start[r-1]
	}
	ix.pos = grow(ix.pos, nres)
	copy(ix.pos, ix.start[:nres])
	ix.user = grow(ix.user, int(ix.start[nres]))
	for i, p := range paths {
		for _, l := range p.Links {
			ix.user[ix.pos[l]] = int32(i)
			ix.pos[l]++
		}
		ix.user[ix.pos[nl+int(p.Src)]] = int32(i)
		ix.pos[nl+int(p.Src)]++
		ix.user[ix.pos[nl+nn+int(p.Dst)]] = int32(i)
		ix.pos[nl+nn+int(p.Dst)]++
	}
}

// users returns the requests occupying resource r.
func (ix *resourceIndex) users(r int) []int32 { return ix.user[ix.start[r]:ix.start[r+1]] }

// maxLoad returns the most requests occupying any one resource: the
// resource lower bound on the multiplexing degree (see LowerBound).
func (ix *resourceIndex) maxLoad() int {
	var most int32
	for r := 1; r < len(ix.start); r++ {
		if load := ix.start[r] - ix.start[r-1]; load > most {
			most = load
		}
	}
	return int(most)
}

// fillRows constructs the adjacency rows: each vertex or-s in the users of
// every resource on its path, clears its own bit, and counts its degree.
// Visiting each edge once from either endpoint, the result is the same
// set-valued adjacency a pairwise resource scan produces, at a word write
// per incidence instead of a read-modify-write per pair.
func fillRows(g *ConflictGraph, nl, nn int, paths []network.Path, ix *resourceIndex) {
	for i := range paths {
		row := g.rows[i]
		p := paths[i]
		for _, l := range p.Links {
			markUsers(row, ix.users(int(l)))
		}
		markUsers(row, ix.users(nl+int(p.Src)))
		markUsers(row, ix.users(nl+nn+int(p.Dst)))
		// The vertex saw itself through every one of its resources.
		row[i>>6] &^= 1 << uint(i&63)
		d := 0
		for _, word := range row {
			d += bits.OnesCount64(word)
		}
		g.deg[i] = d
	}
}

func markUsers(row []uint64, users []int32) {
	for _, j := range users {
		row[j>>6] |= 1 << uint(j&63)
	}
}

// BuildConflictGraph constructs the conflict graph for pre-routed requests.
// Instead of testing all O(|R|^2) pairs directly, it builds an inverted
// index from each resource to the requests occupying it and or-s each
// vertex's resource user lists into its adjacency row — a word-parallel
// sweep whose cost is one bit write per (vertex, resource-sharing request)
// incidence. The differential-testing oracle for this construction is
// OracleConflictGraph, the direct O(|R|^2) pairwise build.
func BuildConflictGraph(t network.Topology, paths []network.Path) *ConflictGraph {
	n := len(paths)
	words := (n + 63) / 64
	g := &ConflictGraph{n: n, rows: make([][]uint64, n), deg: make([]int, n)}
	flat := make([]uint64, n*words)
	for i := range g.rows {
		g.rows[i] = flat[i*words : (i+1)*words]
	}
	var ix resourceIndex
	ix.build(t.NumLinks(), t.NumNodes(), paths)
	fillRows(g, t.NumLinks(), t.NumNodes(), paths, &ix)
	return g
}

// Len returns the number of vertices.
func (g *ConflictGraph) Len() int { return g.n }

// Degree returns the degree of vertex i in the full graph.
func (g *ConflictGraph) Degree(i int) int { return g.deg[i] }

// Adjacent reports whether vertices i and j conflict.
func (g *ConflictGraph) Adjacent(i, j int) bool {
	return g.rows[i][j/64]&(1<<uint(j%64)) != 0
}

// Neighbors calls fn for every neighbor of vertex i.
func (g *ConflictGraph) Neighbors(i int, fn func(j int)) {
	for w, word := range g.rows[i] {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			fn(w*64 + b)
			word &^= 1 << uint(b)
		}
	}
}

// Words returns the number of 64-bit words per adjacency row, for callers
// that maintain vertex bitsets of their own.
func (g *ConflictGraph) Words() int { return (g.n + 63) / 64 }

// OrInto ors vertex i's adjacency row into dst, which must have Words()
// elements. It lets the coloring scheduler accumulate the set of vertices
// blocked by the configuration under construction in O(n/64) per insertion.
func (g *ConflictGraph) OrInto(dst []uint64, i int) {
	for w, word := range g.rows[i] {
		dst[w] |= word
	}
}

// AndInto intersects dst with vertex i's adjacency row.
func (g *ConflictGraph) AndInto(dst []uint64, i int) {
	for w, word := range g.rows[i] {
		dst[w] &= word
	}
}

// CountWithin returns the number of vertex i's neighbors inside the set.
func (g *ConflictGraph) CountWithin(set []uint64, i int) int {
	n := 0
	for w, word := range g.rows[i] {
		n += bits.OnesCount64(word & set[w])
	}
	return n
}

// Edges returns the total number of edges.
func (g *ConflictGraph) Edges() int {
	sum := 0
	for _, d := range g.deg {
		sum += d
	}
	return sum / 2
}
