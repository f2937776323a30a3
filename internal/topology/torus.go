package topology

import (
	"fmt"

	"repro/internal/network"
)

// Torus port numbering. Port 0 is the PE (network.PEPort); the four
// inter-switch ports make each switch the 5x5 crossbar of the paper.
const (
	PortXPlus  = 1 // toward increasing column (east)
	PortXMinus = 2 // toward decreasing column (west)
	PortYPlus  = 3 // toward increasing row (south)
	PortYMinus = 4 // toward decreasing row (north)
)

// Torus is a W x H wraparound grid of 5x5 electro-optical crossbar switches,
// the network evaluated throughout the paper (8x8 in all experiments).
// Nodes are numbered row-major: node = row*W + col. Routing is
// dimension-ordered: the circuit first travels along the row (X dimension)
// to the destination column, then along that column (Y dimension) to the
// destination row, taking the shorter wraparound direction in each
// dimension.
type Torus struct {
	name               string // precomputed by the constructor so Name() never allocates
	network.RouteTable        // this value's memoized routes (network.RoutesOf)

	W, H int
	Tie  TiePolicy
}

// NewTorus returns a W x H torus with balanced tie-breaking.
func NewTorus(w, h int) *Torus {
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("topology: torus dimensions %dx%d too small", w, h))
	}
	return &Torus{W: w, H: h, Tie: TieBalanced, name: fmt.Sprintf("torus-%dx%d", w, h)}
}

// Name implements network.Topology.
func (t *Torus) Name() string {
	if t.name != "" {
		return t.name
	}
	return fmt.Sprintf("torus-%dx%d", t.W, t.H)
}

// NumNodes implements network.Topology.
func (t *Torus) NumNodes() int { return t.W * t.H }

// NumLinks implements network.Topology. Each node owns four outgoing links,
// one per direction.
func (t *Torus) NumLinks() int { return 4 * t.W * t.H }

// Coord returns the (row, col) coordinates of a node.
func (t *Torus) Coord(n network.NodeID) (row, col int) {
	return int(n) / t.W, int(n) % t.W
}

// Node returns the node at (row, col), with wraparound.
func (t *Torus) Node(row, col int) network.NodeID {
	row = ((row % t.H) + t.H) % t.H
	col = ((col % t.W) + t.W) % t.W
	return network.NodeID(row*t.W + col)
}

// linkID encodes the outgoing link of node n through port p (1..4).
func (t *Torus) linkID(n network.NodeID, port int) network.LinkID {
	return network.LinkID(int(n)*4 + port - 1)
}

// Link implements network.Topology.
func (t *Torus) Link(id network.LinkID) network.LinkInfo {
	n := network.NodeID(int(id) / 4)
	port := int(id)%4 + 1
	row, col := t.Coord(n)
	var to network.NodeID
	var inPort int
	switch port {
	case PortXPlus:
		to, inPort = t.Node(row, col+1), PortXMinus
	case PortXMinus:
		to, inPort = t.Node(row, col-1), PortXPlus
	case PortYPlus:
		to, inPort = t.Node(row+1, col), PortYMinus
	case PortYMinus:
		to, inPort = t.Node(row-1, col), PortYPlus
	}
	return network.LinkInfo{ID: id, From: n, To: to, OutPort: port, InPort: inPort}
}

// Offsets returns the signed per-dimension hop counts the route from src to
// dst takes, after shortest-path wraparound and tie-breaking. It is exported
// because the AAPC decomposition groups connections by these offsets.
func (t *Torus) Offsets(src, dst network.NodeID) (dx, dy int) {
	sr, sc := t.Coord(src)
	dr, dc := t.Coord(dst)
	return ringOffset(sc, dc, t.W, t.Tie), ringOffset(sr, dr, t.H, t.Tie)
}

// Route implements network.Topology with X-then-Y dimension-order routing.
func (t *Torus) Route(src, dst network.NodeID) (network.Path, error) {
	if int(src) < 0 || int(src) >= t.NumNodes() || int(dst) < 0 || int(dst) >= t.NumNodes() {
		return network.Path{}, network.ErrBadNode
	}
	if src == dst {
		return network.Path{}, network.ErrSelfLoop
	}
	dx, dy := t.Offsets(src, dst)
	links := make([]network.LinkID, 0, abs(dx)+abs(dy))
	row, col := t.Coord(src)
	for step := 0; step < abs(dx); step++ {
		n := t.Node(row, col)
		if dx > 0 {
			links = append(links, t.linkID(n, PortXPlus))
			col++
		} else {
			links = append(links, t.linkID(n, PortXMinus))
			col--
		}
	}
	for step := 0; step < abs(dy); step++ {
		n := t.Node(row, col)
		if dy > 0 {
			links = append(links, t.linkID(n, PortYPlus))
			row++
		} else {
			links = append(links, t.linkID(n, PortYMinus))
			row--
		}
	}
	return network.Path{Src: src, Dst: dst, Links: links}, nil
}

var _ network.Topology = (*Torus)(nil)
