package topology

import (
	"fmt"

	"repro/internal/network"
)

// Mesh is a W x H grid without wraparound links, used to compare the torus
// against a cheaper substrate in the extension experiments. Port numbering
// matches the torus; border switches simply leave the corresponding ports
// unconnected.
type Mesh struct {
	name               string // precomputed by the constructor so Name() never allocates
	network.RouteTable        // this value's memoized routes (network.RoutesOf)

	W, H int
}

// NewMesh returns a W x H mesh.
func NewMesh(w, h int) *Mesh {
	if w < 2 || h < 2 {
		panic(fmt.Sprintf("topology: mesh dimensions %dx%d too small", w, h))
	}
	return &Mesh{W: w, H: h, name: fmt.Sprintf("mesh-%dx%d", w, h)}
}

// Name implements network.Topology.
func (m *Mesh) Name() string {
	if m.name != "" {
		return m.name
	}
	return fmt.Sprintf("mesh-%dx%d", m.W, m.H)
}

// NumNodes implements network.Topology.
func (m *Mesh) NumNodes() int { return m.W * m.H }

// NumLinks implements network.Topology. Horizontal links come first:
// 2*(W-1)*H of them, then 2*W*(H-1) vertical links. Within each group links
// are paired (forward, backward) like the linear array.
func (m *Mesh) NumLinks() int { return 2*(m.W-1)*m.H + 2*m.W*(m.H-1) }

// Coord returns the (row, col) coordinates of a node.
func (m *Mesh) Coord(n network.NodeID) (row, col int) {
	return int(n) / m.W, int(n) % m.W
}

// Node returns the node at (row, col).
func (m *Mesh) Node(row, col int) network.NodeID {
	return network.NodeID(row*m.W + col)
}

// hLink returns the link id for the horizontal link at (row, col)<->(row,
// col+1) in the given direction (true = rightward).
func (m *Mesh) hLink(row, col int, right bool) network.LinkID {
	base := 2 * (row*(m.W-1) + col)
	if right {
		return network.LinkID(base)
	}
	return network.LinkID(base + 1)
}

// vLink returns the link id for the vertical link (row, col)<->(row+1, col)
// in the given direction (true = downward).
func (m *Mesh) vLink(row, col int, down bool) network.LinkID {
	base := 2*(m.W-1)*m.H + 2*(row*m.W+col)
	if down {
		return network.LinkID(base)
	}
	return network.LinkID(base + 1)
}

// Link implements network.Topology.
func (m *Mesh) Link(id network.LinkID) network.LinkInfo {
	h := 2 * (m.W - 1) * m.H
	if int(id) < h {
		pair := int(id) / 2
		row, col := pair/(m.W-1), pair%(m.W-1)
		if int(id)%2 == 0 {
			return network.LinkInfo{ID: id, From: m.Node(row, col), To: m.Node(row, col+1), OutPort: PortXPlus, InPort: PortXMinus}
		}
		return network.LinkInfo{ID: id, From: m.Node(row, col+1), To: m.Node(row, col), OutPort: PortXMinus, InPort: PortXPlus}
	}
	pair := (int(id) - h) / 2
	row, col := pair/m.W, pair%m.W
	if (int(id)-h)%2 == 0 {
		return network.LinkInfo{ID: id, From: m.Node(row, col), To: m.Node(row+1, col), OutPort: PortYPlus, InPort: PortYMinus}
	}
	return network.LinkInfo{ID: id, From: m.Node(row+1, col), To: m.Node(row, col), OutPort: PortYMinus, InPort: PortYPlus}
}

// Route implements network.Topology with X-then-Y dimension-order routing.
func (m *Mesh) Route(src, dst network.NodeID) (network.Path, error) {
	if int(src) < 0 || int(src) >= m.NumNodes() || int(dst) < 0 || int(dst) >= m.NumNodes() {
		return network.Path{}, network.ErrBadNode
	}
	if src == dst {
		return network.Path{}, network.ErrSelfLoop
	}
	sr, sc := m.Coord(src)
	dr, dc := m.Coord(dst)
	links := make([]network.LinkID, 0, abs(dr-sr)+abs(dc-sc))
	for c := sc; c < dc; c++ {
		links = append(links, m.hLink(sr, c, true))
	}
	for c := sc; c > dc; c-- {
		links = append(links, m.hLink(sr, c-1, false))
	}
	for r := sr; r < dr; r++ {
		links = append(links, m.vLink(r, dc, true))
	}
	for r := sr; r > dr; r-- {
		links = append(links, m.vLink(r-1, dc, false))
	}
	return network.Path{Src: src, Dst: dst, Links: links}, nil
}

var _ network.Topology = (*Mesh)(nil)
