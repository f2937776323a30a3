package topology

import (
	"fmt"

	"repro/internal/network"
)

// Ring is a cycle of N switches, one link per direction between adjacent
// nodes. It is the one-dimensional specialization of the torus and is used
// by the per-dimension AAPC analysis and additional experiments.
type Ring struct {
	name               string // precomputed by the constructor so Name() never allocates
	network.RouteTable        // this value's memoized routes (network.RoutesOf)

	N   int
	Tie TiePolicy
}

// NewRing returns a ring of n nodes with balanced tie-breaking.
func NewRing(n int) *Ring {
	if n < 3 {
		panic(fmt.Sprintf("topology: ring of %d nodes too small", n))
	}
	return &Ring{N: n, Tie: TieBalanced, name: fmt.Sprintf("ring-%d", n)}
}

// Name implements network.Topology.
func (r *Ring) Name() string {
	if r.name != "" {
		return r.name
	}
	return fmt.Sprintf("ring-%d", r.N)
}

// NumNodes implements network.Topology.
func (r *Ring) NumNodes() int { return r.N }

// NumLinks implements network.Topology. Link 2*i goes i -> i+1 (mod N) and
// link 2*i+1 goes i -> i-1 (mod N).
func (r *Ring) NumLinks() int { return 2 * r.N }

// Link implements network.Topology.
func (r *Ring) Link(id network.LinkID) network.LinkInfo {
	i := int(id) / 2
	if int(id)%2 == 0 {
		return network.LinkInfo{
			ID: id, From: network.NodeID(i), To: network.NodeID((i + 1) % r.N),
			OutPort: PortRight, InPort: PortLeft,
		}
	}
	return network.LinkInfo{
		ID: id, From: network.NodeID(i), To: network.NodeID((i - 1 + r.N) % r.N),
		OutPort: PortLeft, InPort: PortRight,
	}
}

// Route implements network.Topology: shortest wraparound direction with the
// ring's tie policy.
func (r *Ring) Route(src, dst network.NodeID) (network.Path, error) {
	if int(src) < 0 || int(src) >= r.N || int(dst) < 0 || int(dst) >= r.N {
		return network.Path{}, network.ErrBadNode
	}
	if src == dst {
		return network.Path{}, network.ErrSelfLoop
	}
	d := ringOffset(int(src), int(dst), r.N, r.Tie)
	links := make([]network.LinkID, 0, abs(d))
	cur := int(src)
	for step := 0; step < abs(d); step++ {
		if d > 0 {
			links = append(links, network.LinkID(2*cur))
			cur = (cur + 1) % r.N
		} else {
			links = append(links, network.LinkID(2*cur+1))
			cur = (cur - 1 + r.N) % r.N
		}
	}
	return network.Path{Src: src, Dst: dst, Links: links}, nil
}

var _ network.Topology = (*Ring)(nil)
