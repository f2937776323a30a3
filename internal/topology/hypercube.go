package topology

import (
	"fmt"
	"math/bits"

	"repro/internal/network"
)

// Hypercube is a d-dimensional binary hypercube with e-cube (dimension
// order, lowest bit first) routing. Port 0 is the PE; port i+1 connects to
// the neighbor across dimension i. It is provided so the schedulers can be
// exercised on a topology with logarithmic diameter; the paper's evaluation
// itself runs on the torus.
type Hypercube struct {
	name               string // precomputed by the constructor so Name() never allocates
	network.RouteTable        // this value's memoized routes (network.RoutesOf)

	Dim int
}

// NewHypercube returns a hypercube of 2^dim nodes.
func NewHypercube(dim int) *Hypercube {
	if dim < 1 || dim > 20 {
		panic(fmt.Sprintf("topology: hypercube dimension %d out of range", dim))
	}
	return &Hypercube{Dim: dim, name: fmt.Sprintf("hypercube-%d", dim)}
}

// Name implements network.Topology.
func (h *Hypercube) Name() string {
	if h.name != "" {
		return h.name
	}
	return fmt.Sprintf("hypercube-%d", h.Dim)
}

// NumNodes implements network.Topology.
func (h *Hypercube) NumNodes() int { return 1 << h.Dim }

// NumLinks implements network.Topology: each node owns one outgoing link per
// dimension. Link id = node*Dim + dim.
func (h *Hypercube) NumLinks() int { return h.NumNodes() * h.Dim }

// Link implements network.Topology.
func (h *Hypercube) Link(id network.LinkID) network.LinkInfo {
	n := network.NodeID(int(id) / h.Dim)
	d := int(id) % h.Dim
	return network.LinkInfo{
		ID: id, From: n, To: network.NodeID(int(n) ^ (1 << d)),
		OutPort: d + 1, InPort: d + 1,
	}
}

// Route implements network.Topology with e-cube routing: differing address
// bits are corrected from least to most significant.
func (h *Hypercube) Route(src, dst network.NodeID) (network.Path, error) {
	if int(src) < 0 || int(src) >= h.NumNodes() || int(dst) < 0 || int(dst) >= h.NumNodes() {
		return network.Path{}, network.ErrBadNode
	}
	if src == dst {
		return network.Path{}, network.ErrSelfLoop
	}
	diff := int(src) ^ int(dst)
	links := make([]network.LinkID, 0, bits.OnesCount(uint(diff)))
	cur := int(src)
	for d := 0; d < h.Dim; d++ {
		if diff&(1<<d) != 0 {
			links = append(links, network.LinkID(cur*h.Dim+d))
			cur ^= 1 << d
		}
	}
	return network.Path{Src: src, Dst: dst, Links: links}, nil
}

var _ network.Topology = (*Hypercube)(nil)
