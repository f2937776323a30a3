package topology

import (
	"fmt"

	"repro/internal/network"
)

// Dragonfly is the canonical two-level direct network (Kim, Dally, Scott &
// Abts, ISCA'08): g groups of a routers each, every router hosting h PEs and
// driving h global channels, with an all-to-all electrical fabric inside each
// group and exactly one optical global channel per ordered pair of groups.
// It is the fabric family where the compiled-vs-dynamic tradeoff is most
// interesting at scale: all traffic between two groups funnels through a
// single global link, so pattern sparsity directly controls the multiplexing
// degree a compiled schedule needs.
//
// Node numbering: nodes 0..N-1 (N = a*g*h) are the PEs; node N + gi*a + r is
// router r of group gi. PE p attaches to router p/h. Only PEs originate or
// terminate circuits (network.Terminals).
//
// The global channels use the "consecutive" arrangement: group gi's global
// channel q (q in [0, g-1), owned by router q/h on its local slot q%h)
// connects to group (q < gi ? q : q+1). The reverse direction is a distinct
// link owned by the peer group under the same rule, so the ordered-pair
// layout is a fixed function of (a, g, h) and link ids are stable across
// processes — the property PatternKey/store/cluster hashing relies on.
//
// Link-id layout (contiguous blocks, documented in DESIGN.md §15):
//
//	[0, N)                       injection   PE p -> router p/h
//	[N, N + g*a*(a-1))           local       complete digraph per group:
//	                             id = N + (gi*a + r)*(a-1) + k targets
//	                             router k (k < r) or k+1 (k >= r)
//	[localEnd, localEnd+g*(g-1)) global      id = base + gi*(g-1) + q
//	[globalEnd, globalEnd + N)   ejection    router p/h -> PE p
//
// Routing is minimal with local detours: inject, at most one local hop to
// the gateway router owning the global channel, the global channel, at most
// one local hop from the landing router to the destination router, eject.
type Dragonfly struct {
	name               string // precomputed so Name() never allocates
	network.RouteTable        // this value's memoized routes (network.RoutesOf)

	A int // routers per group
	G int // groups
	H int // PEs (and global channels) per router
	N int // total PEs = A*G*H
}

// Router port numbering (both sides): PE ports 1..h, local ports
// h+1..h+(a-1), global ports h+a..h+a+h-1. PE nodes use network.PEPort+1
// for their single inter-switch port.

// NewDragonfly returns a Dragonfly with a routers per group, g groups and h
// PEs (and global channels) per router. It requires a >= 1, g >= 2, h >= 1
// and a*h >= g-1 so every ordered pair of groups gets a global channel.
func NewDragonfly(a, g, h int) *Dragonfly {
	if a < 1 || g < 2 || h < 1 {
		panic(fmt.Sprintf("topology: dragonfly a=%d g=%d h=%d: want a >= 1, g >= 2, h >= 1", a, g, h))
	}
	if a*h < g-1 {
		panic(fmt.Sprintf("topology: dragonfly a=%d g=%d h=%d: a*h=%d global channels per group cannot reach the other %d groups", a, g, h, a*h, g-1))
	}
	d := &Dragonfly{
		A: a, G: g, H: h, N: a * g * h,
		name: fmt.Sprintf("dragonfly-%dx%dx%d", a, g, h),
	}
	if err := CheckInvariants(d, invariantSample); err != nil {
		panic(fmt.Sprintf("topology: dragonfly invariant violated: %v", err))
	}
	return d
}

// Name implements network.Topology.
func (d *Dragonfly) Name() string {
	if d.name != "" {
		return d.name
	}
	return fmt.Sprintf("dragonfly-%dx%dx%d", d.A, d.G, d.H)
}

// NumTerminals implements network.Terminals: only the N PEs originate or
// terminate circuits; routers are fabric switches.
func (d *Dragonfly) NumTerminals() int { return d.N }

// NumNodes implements network.Topology: N PEs plus a router per (group,
// position) pair.
func (d *Dragonfly) NumNodes() int { return d.N + d.A*d.G }

// NumLinks implements network.Topology: injection + per-group complete
// digraphs + one global channel per ordered group pair + ejection.
func (d *Dragonfly) NumLinks() int {
	return d.N + d.G*d.A*(d.A-1) + d.G*(d.G-1) + d.N
}

// router returns the node id of router r in group gi.
func (d *Dragonfly) router(gi, r int) network.NodeID {
	return network.NodeID(d.N + gi*d.A + r)
}

// localBase/globalBase/ejectBase delimit the link-id blocks.
func (d *Dragonfly) localBase() int  { return d.N }
func (d *Dragonfly) globalBase() int { return d.N + d.G*d.A*(d.A-1) }
func (d *Dragonfly) ejectBase() int  { return d.globalBase() + d.G*(d.G-1) }

// localLink returns the id of the local channel from router r to router rt
// (r != rt) inside group gi.
func (d *Dragonfly) localLink(gi, r, rt int) network.LinkID {
	k := rt
	if rt > r {
		k = rt - 1
	}
	return network.LinkID(d.localBase() + (gi*d.A+r)*(d.A-1) + k)
}

// globalSlot returns group gi's channel index q toward group gj (gi != gj)
// under the consecutive arrangement.
func globalSlot(gi, gj int) int {
	if gj < gi {
		return gj
	}
	return gj - 1
}

// Link implements network.Topology.
func (d *Dragonfly) Link(id network.LinkID) network.LinkInfo {
	n := int(id)
	switch {
	case n < d.N:
		// Injection: PE p enters its router on PE input port 1 + p%h.
		p := n
		return network.LinkInfo{
			ID: id, From: network.NodeID(p), To: network.NodeID(d.N + p/d.H),
			OutPort: network.PEPort + 1, InPort: 1 + p%d.H,
		}
	case n < d.globalBase():
		// Local channel inside a group's complete digraph.
		rel := n - d.localBase()
		gr := rel / (d.A - 1) // global router index gi*a + r
		k := rel % (d.A - 1)
		gi, r := gr/d.A, gr%d.A
		rt := k
		if k >= r {
			rt = k + 1
		}
		// The reverse neighbor index of r as seen from rt picks the input port.
		kIn := r
		if r > rt {
			kIn = r - 1
		}
		return network.LinkInfo{
			ID: id, From: d.router(gi, r), To: d.router(gi, rt),
			OutPort: d.H + 1 + k, InPort: d.H + 1 + kIn,
		}
	case n < d.ejectBase():
		// Global channel gi -> gj on slot q; it lands on the router of gj
		// that owns gj's reverse slot toward gi.
		rel := n - d.globalBase()
		gi := rel / (d.G - 1)
		q := rel % (d.G - 1)
		gj := q
		if q >= gi {
			gj = q + 1
		}
		qIn := globalSlot(gj, gi)
		return network.LinkInfo{
			ID: id, From: d.router(gi, q/d.H), To: d.router(gj, qIn/d.H),
			OutPort: d.H + d.A + q%d.H, InPort: d.H + d.A + qIn%d.H,
		}
	default:
		// Ejection: router p/h returns to PE p on PE output port 1 + p%h.
		p := n - d.ejectBase()
		return network.LinkInfo{
			ID: id, From: network.NodeID(d.N + p/d.H), To: network.NodeID(p),
			OutPort: 1 + p%d.H, InPort: network.PEPort + 1,
		}
	}
}

// Route implements network.Topology: minimal dragonfly routing. A circuit
// injects at the source router, takes at most one local detour hop to the
// gateway router owning the global channel toward the destination group,
// crosses that channel, takes at most one local hop from the landing router
// to the destination router, and ejects. Same-group circuits use at most one
// local hop.
func (d *Dragonfly) Route(src, dst network.NodeID) (network.Path, error) {
	if int(src) < 0 || int(src) >= d.N || int(dst) < 0 || int(dst) >= d.N {
		if int(src) < 0 || int(src) >= d.NumNodes() || int(dst) < 0 || int(dst) >= d.NumNodes() {
			return network.Path{}, network.ErrBadNode
		}
		return network.Path{}, fmt.Errorf("topology: dragonfly route endpoints must be PEs (0..%d)", d.N-1)
	}
	if src == dst {
		return network.Path{}, network.ErrSelfLoop
	}
	grS, grD := int(src)/d.H, int(dst)/d.H
	giS, rS := grS/d.A, grS%d.A
	giD, rD := grD/d.A, grD%d.A

	links := make([]network.LinkID, 0, 5)
	links = append(links, network.LinkID(int(src))) // injection
	if giS == giD {
		if rS != rD {
			links = append(links, d.localLink(giS, rS, rD))
		}
	} else {
		q := globalSlot(giS, giD)
		if ra := q / d.H; ra != rS {
			links = append(links, d.localLink(giS, rS, ra))
		}
		links = append(links, network.LinkID(d.globalBase()+giS*(d.G-1)+q))
		qIn := globalSlot(giD, giS)
		if rb := qIn / d.H; rb != rD {
			links = append(links, d.localLink(giD, rb, rD))
		}
	}
	links = append(links, network.LinkID(d.ejectBase()+int(dst))) // ejection
	return network.Path{Src: src, Dst: dst, Links: links}, nil
}

var _ network.Topology = (*Dragonfly)(nil)
var _ network.Terminals = (*Dragonfly)(nil)
