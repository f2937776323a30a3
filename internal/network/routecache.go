package network

import "sync/atomic"

// Route tables.
//
// Routing in compiled communication is a pure function of the topology: the
// paper fixes every circuit's path at compile time, so Route(src, dst) always
// returns the same path for the same topology value. The combined algorithm
// routes every request twice (once per member scheduler), the switch
// compiler and the verifier route each scheduled circuit again, and the
// Table 1–3 sweeps route the same pairs hundreds of times on one torus. A
// RouteTable memoizes one topology value's paths so all of them share one
// route computation per pair.
//
// Semantics:
//
//   - One table per topology value. Every topology of internal/topology and
//     fault.Masked embeds one; two values never share a table, even with
//     equal dimensions, so mutating one cannot poison another, and a table
//     is freed with its topology.
//     A topology that carries none (a test fake, say) is routed directly.
//   - A compile fetches the table once (RoutesOf) and then reads entries by
//     (src, dst) index through a three-level directory: one atomic load of
//     the source's row, one of a mid node, one of a block and one of the
//     entry, with no hash and no lock.
//   - Memory grows with the pairs actually routed, at every size. The
//     directory holds one row pointer per source. A source's row, allocated
//     on its first route, holds a pointer per midSpan destinations; a mid
//     node holds midLen block pointers and a block blockLen entries, each
//     allocated on the first route into it, and an entry points at its
//     pair's links. A sparse exchange thus pays at most one mid node, one
//     block and one links header per pair (280 bytes) and a row of
//     n/midSpan words per source. Rows, mid nodes, blocks and links
//     headers are carved from slabs of slabLen, so a table allocates once
//     per slabLen of them plus once per row's pointer array. An entry is
//     published by a compare-and-swap once its links are written, so
//     concurrent readers (the daemon's compile workers, a sweep's -workers
//     pool) see either nothing or a complete path.
//   - Cached paths are shared, not copied. Callers must treat Path.Links as
//     immutable (routes are compiler artifacts, not scratch buffers).
//   - Mutable topologies: a topology whose routing inputs change after first
//     use (e.g. assigning Torus.Tie) must call InvalidateRoutes(t)
//     afterwards. Mutating before the first route is always safe.
//   - A type that embeds a topology and overrides Route must also embed a
//     RouteTable of its own, or it would fill the embedded value's table.
//
// Routing errors (self-loops, out-of-range nodes, pairs a fault mask
// disconnects) are never cached; they are returned directly from the
// topology.

const (
	// blockLen is the number of destinations one block covers and midLen
	// the number of blocks one mid node covers: a sparse exchange pays a
	// whole block and mid node per pair, so both stay small.
	blockLen = 16
	midLen   = 16
	midSpan  = blockLen * midLen
	// slabLen is the number of rows, mid nodes, blocks or links headers
	// allocated together.
	slabLen = 64
)

// RouteTable is the lazily filled (src, dst) route table of one topology
// value. The zero value is empty and ready to use; embed it in the
// topology, whose method set then carries it to RoutesOf.
type RouteTable struct {
	cur atomic.Pointer[routeDir]
}

func (rt *RouteTable) table() *RouteTable { return rt }

// routeDir is one generation of a table: InvalidateRoutes drops it whole.
type routeDir struct {
	n       int                        // nodes covered
	rows    []atomic.Pointer[routeRow] // per source, nil until its first route
	rowBuf  slab[routeRow]
	midBuf  slab[routeMid]
	blkBuf  slab[routeBlock]
	linkBuf slab[[]LinkID]
}

// routeRow is one source's row: a mid-node pointer per midSpan
// destinations.
type routeRow struct {
	mids []atomic.Pointer[routeMid]
}

// routeMid covers midSpan consecutive destinations of one row.
type routeMid [midLen]atomic.Pointer[routeBlock]

// routeBlock covers blockLen consecutive destinations of one row: each
// entry is nil until its pair is routed, then points at the pair's links.
type routeBlock [blockLen]atomic.Pointer[[]LinkID]

// slab hands out zeroed values carved from arrays of slabLen. A value lost
// to a racing filler stays unused in its array.
type slab[T any] struct {
	cur atomic.Pointer[slabArray[T]]
}

type slabArray[T any] struct {
	used  atomic.Int32
	items [slabLen]T
}

func (s *slab[T]) get() *T {
	for {
		a := s.cur.Load()
		if a != nil {
			if i := a.used.Add(1) - 1; i < slabLen {
				return &a.items[i]
			}
		}
		next := new(slabArray[T])
		next.used.Store(1)
		if s.cur.CompareAndSwap(a, next) {
			return &next.items[0]
		}
	}
}

// tabled is implemented by topologies that embed a route table.
type tabled interface {
	table() *RouteTable
}

// dir returns the table's current generation for a topology of n nodes,
// creating it on first use.
func (rt *RouteTable) dir(n int) *routeDir {
	if d := rt.cur.Load(); d != nil {
		return d
	}
	d := &routeDir{n: n, rows: make([]atomic.Pointer[routeRow], n)}
	if !rt.cur.CompareAndSwap(nil, d) {
		if cur := rt.cur.Load(); cur != nil {
			return cur
		}
	}
	return d
}

// Routes is a compile's handle on a topology's routes: fetch it once with
// RoutesOf, then call Route per pair.
type Routes struct {
	t   Topology
	dir *routeDir // nil: route every pair directly
}

// RoutesOf returns the route handle of t, backed by t's route table when it
// carries one.
func RoutesOf(t Topology) Routes {
	if tt, ok := t.(tabled); ok {
		return Routes{t: t, dir: tt.table().dir(t.NumNodes())}
	}
	return Routes{t: t}
}

// Route returns the topology's deterministic path for (src, dst), computing
// it at most once per table generation. The returned Path shares its Links
// slice with every other caller and must not be mutated.
func (r Routes) Route(src, dst NodeID) (Path, error) {
	d := r.dir
	if d == nil || uint(src) >= uint(d.n) || uint(dst) >= uint(d.n) {
		return r.t.Route(src, dst)
	}
	row := d.rows[src].Load()
	if row != nil {
		if mid := row.mids[dst/midSpan].Load(); mid != nil {
			if b := mid[dst/blockLen%midLen].Load(); b != nil {
				if links := b[dst%blockLen].Load(); links != nil {
					return Path{Src: src, Dst: dst, Links: *links}, nil
				}
			}
		}
	}
	p, err := r.t.Route(src, dst)
	if err != nil {
		return Path{}, err
	}
	if row == nil {
		row = d.rowBuf.get()
		row.mids = make([]atomic.Pointer[routeMid], (d.n+midSpan-1)/midSpan)
		if !d.rows[src].CompareAndSwap(nil, row) {
			row = d.rows[src].Load()
		}
	}
	mid := claim(&row.mids[dst/midSpan], &d.midBuf)
	b := claim(&mid[dst/blockLen%midLen], &d.blkBuf)
	// A filler that loses the race returns its own, equal, path.
	links := d.linkBuf.get()
	*links = p.Links
	b[dst%blockLen].CompareAndSwap(nil, links)
	return p, nil
}

// claim returns the node at p, installing a fresh one from buf if p is
// empty; a filler that loses the race adopts the winner's node.
func claim[T any](p *atomic.Pointer[T], buf *slab[T]) *T {
	if v := p.Load(); v != nil {
		return v
	}
	if v := buf.get(); p.CompareAndSwap(nil, v) {
		return v
	}
	return p.Load()
}

// CachedRoute is Route through t's route table: RoutesOf(t).Route(src,
// dst). Callers that route many pairs should fetch RoutesOf once instead.
func CachedRoute(t Topology, src, dst NodeID) (Path, error) {
	return RoutesOf(t).Route(src, dst)
}

// InvalidateRoutes drops every memoized route of one topology. Call it after
// mutating a topology value that has already been routed on (for example,
// changing a torus's tie policy between runs).
func InvalidateRoutes(t Topology) {
	if tt, ok := t.(tabled); ok {
		tt.table().cur.Store(nil)
	}
}
