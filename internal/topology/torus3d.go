package topology

import (
	"fmt"

	"repro/internal/network"
)

// Torus3D port numbering. Port 0 is the PE; the six inter-switch ports make
// each switch a 7x7 crossbar.
const (
	Port3DXPlus  = 1
	Port3DXMinus = 2
	Port3DYPlus  = 3
	Port3DYMinus = 4
	Port3DZPlus  = 5
	Port3DZMinus = 6
)

// Torus3D is an X x Y x Z wraparound grid of 7x7 electro-optical crossbar
// switches — the natural substrate for the P3M 26-neighbor exchange, and an
// extension beyond the paper's 2-D evaluation. Nodes are numbered
// node = (i*Y + j)*Z + k. Routing is dimension-ordered X, then Y, then Z
// with shortest wraparound per dimension and the same balanced tie policy
// as the 2-D torus.
type Torus3D struct {
	name               string // precomputed by the constructor so Name() never allocates
	network.RouteTable        // this value's memoized routes (network.RoutesOf)

	X, Y, Z int
	Tie     TiePolicy
}

// NewTorus3D returns an x*y*z torus with balanced tie-breaking.
func NewTorus3D(x, y, z int) *Torus3D {
	if x < 2 || y < 2 || z < 2 {
		panic(fmt.Sprintf("topology: 3-D torus dimensions %dx%dx%d too small", x, y, z))
	}
	return &Torus3D{X: x, Y: y, Z: z, Tie: TieBalanced, name: fmt.Sprintf("torus3d-%dx%dx%d", x, y, z)}
}

// Name implements network.Topology.
func (t *Torus3D) Name() string {
	if t.name != "" {
		return t.name
	}
	return fmt.Sprintf("torus3d-%dx%dx%d", t.X, t.Y, t.Z)
}

// NumNodes implements network.Topology.
func (t *Torus3D) NumNodes() int { return t.X * t.Y * t.Z }

// NumLinks implements network.Topology: six outgoing links per node.
func (t *Torus3D) NumLinks() int { return 6 * t.NumNodes() }

// Coord returns the (i, j, k) coordinates of a node.
func (t *Torus3D) Coord(n network.NodeID) (i, j, k int) {
	k = int(n) % t.Z
	j = (int(n) / t.Z) % t.Y
	i = int(n) / (t.Y * t.Z)
	return
}

// Node returns the node at (i, j, k), with wraparound.
func (t *Torus3D) Node(i, j, k int) network.NodeID {
	i = ((i % t.X) + t.X) % t.X
	j = ((j % t.Y) + t.Y) % t.Y
	k = ((k % t.Z) + t.Z) % t.Z
	return network.NodeID((i*t.Y+j)*t.Z + k)
}

func (t *Torus3D) linkID(n network.NodeID, port int) network.LinkID {
	return network.LinkID(int(n)*6 + port - 1)
}

// Link implements network.Topology.
func (t *Torus3D) Link(id network.LinkID) network.LinkInfo {
	n := network.NodeID(int(id) / 6)
	port := int(id)%6 + 1
	i, j, k := t.Coord(n)
	var to network.NodeID
	var inPort int
	switch port {
	case Port3DXPlus:
		to, inPort = t.Node(i+1, j, k), Port3DXMinus
	case Port3DXMinus:
		to, inPort = t.Node(i-1, j, k), Port3DXPlus
	case Port3DYPlus:
		to, inPort = t.Node(i, j+1, k), Port3DYMinus
	case Port3DYMinus:
		to, inPort = t.Node(i, j-1, k), Port3DYPlus
	case Port3DZPlus:
		to, inPort = t.Node(i, j, k+1), Port3DZMinus
	case Port3DZMinus:
		to, inPort = t.Node(i, j, k-1), Port3DZPlus
	}
	return network.LinkInfo{ID: id, From: n, To: to, OutPort: port, InPort: inPort}
}

// Offsets returns the signed per-dimension hop counts from src to dst.
func (t *Torus3D) Offsets(src, dst network.NodeID) (di, dj, dk int) {
	si, sj, sk := t.Coord(src)
	ti, tj, tk := t.Coord(dst)
	return ringOffset(si, ti, t.X, t.Tie), ringOffset(sj, tj, t.Y, t.Tie), ringOffset(sk, tk, t.Z, t.Tie)
}

// Route implements network.Topology with X-then-Y-then-Z dimension-order
// routing.
func (t *Torus3D) Route(src, dst network.NodeID) (network.Path, error) {
	if int(src) < 0 || int(src) >= t.NumNodes() || int(dst) < 0 || int(dst) >= t.NumNodes() {
		return network.Path{}, network.ErrBadNode
	}
	if src == dst {
		return network.Path{}, network.ErrSelfLoop
	}
	di, dj, dk := t.Offsets(src, dst)
	links := make([]network.LinkID, 0, abs(di)+abs(dj)+abs(dk))
	i, j, k := t.Coord(src)
	step := func(d int, plus, minus int, advance func(int)) {
		for s := 0; s < abs(d); s++ {
			n := t.Node(i, j, k)
			if d > 0 {
				links = append(links, t.linkID(n, plus))
				advance(1)
			} else {
				links = append(links, t.linkID(n, minus))
				advance(-1)
			}
		}
	}
	step(di, Port3DXPlus, Port3DXMinus, func(s int) { i += s })
	step(dj, Port3DYPlus, Port3DYMinus, func(s int) { j += s })
	step(dk, Port3DZPlus, Port3DZMinus, func(s int) { k += s })
	return network.Path{Src: src, Dst: dst, Links: links}, nil
}

var _ network.Topology = (*Torus3D)(nil)
