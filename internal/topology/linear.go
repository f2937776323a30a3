package topology

import (
	"fmt"

	"repro/internal/network"
)

// Linear port numbering: port 0 is the PE; ports 1 and 2 connect to the
// right and left neighbor respectively.
const (
	PortRight = 1
	PortLeft  = 2
)

// Linear is an array of N switches connected in a line, the topology of the
// paper's Fig. 3 scheduling example. Each adjacent pair is joined by one
// link per direction.
type Linear struct {
	name               string // precomputed by the constructor so Name() never allocates
	network.RouteTable        // this value's memoized routes (network.RoutesOf)

	N int
}

// NewLinear returns a linear array of n nodes.
func NewLinear(n int) *Linear {
	if n < 2 {
		panic(fmt.Sprintf("topology: linear array of %d nodes too small", n))
	}
	return &Linear{N: n, name: fmt.Sprintf("linear-%d", n)}
}

// Name implements network.Topology.
func (l *Linear) Name() string {
	if l.name != "" {
		return l.name
	}
	return fmt.Sprintf("linear-%d", l.N)
}

// NumNodes implements network.Topology.
func (l *Linear) NumNodes() int { return l.N }

// NumLinks implements network.Topology. Link 2*i goes i -> i+1 and link
// 2*i+1 goes i+1 -> i, for i in [0, N-1).
func (l *Linear) NumLinks() int { return 2 * (l.N - 1) }

// Link implements network.Topology.
func (l *Linear) Link(id network.LinkID) network.LinkInfo {
	i := int(id) / 2
	if int(id)%2 == 0 {
		return network.LinkInfo{
			ID: id, From: network.NodeID(i), To: network.NodeID(i + 1),
			OutPort: PortRight, InPort: PortLeft,
		}
	}
	return network.LinkInfo{
		ID: id, From: network.NodeID(i + 1), To: network.NodeID(i),
		OutPort: PortLeft, InPort: PortRight,
	}
}

// Route implements network.Topology: the unique straight-line path.
func (l *Linear) Route(src, dst network.NodeID) (network.Path, error) {
	if int(src) < 0 || int(src) >= l.N || int(dst) < 0 || int(dst) >= l.N {
		return network.Path{}, network.ErrBadNode
	}
	if src == dst {
		return network.Path{}, network.ErrSelfLoop
	}
	links := make([]network.LinkID, 0, abs(int(dst)-int(src)))
	if dst > src {
		for i := int(src); i < int(dst); i++ {
			links = append(links, network.LinkID(2*i))
		}
	} else {
		for i := int(src); i > int(dst); i-- {
			links = append(links, network.LinkID(2*(i-1)+1))
		}
	}
	return network.Path{Src: src, Dst: dst, Links: links}, nil
}

var _ network.Topology = (*Linear)(nil)
