package topology

import (
	"fmt"

	"repro/internal/network"
)

// FatTree is the k-ary three-stage folded-Clos fabric (Al-Fares, Loukissas &
// Vahdat, SIGCOMM'08): k pods of k/2 edge and k/2 aggregation switches plus
// (k/2)^2 core switches, hosting N = k^3/4 PEs. Like Omega it is an indirect
// fabric — interior nodes are switches (network.Terminals) — but unlike
// Omega it is multi-rooted: a circuit climbs at most to one core and comes
// back down, so the stage machinery generalizes from "one wire per stage" to
// "one deterministic up/down spine per destination".
//
// Node numbering: PEs 0..N-1, then edge switch e of pod p at
// N + p*(k/2) + e, then aggregation switch a of pod p at
// N + k^2/2 + p*(k/2) + a, then core c at N + k^2 + c. Aggregation switch a
// of every pod connects to cores [a*k/2, (a+1)*k/2).
//
// Link-id layout: six contiguous N-sized blocks (DESIGN.md §15):
//
//	[0,  N)  injection  PE -> its edge switch
//	[N,  2N) edge up    id = N  + (pod*(k/2)+e)*(k/2) + a  (edge e -> agg a)
//	[2N, 3N) agg down   id = 2N + (pod*(k/2)+a)*(k/2) + e  (agg a -> edge e)
//	[3N, 4N) agg up     id = 3N + (pod*(k/2)+a)*(k/2) + j  (agg a -> core a*k/2+j)
//	[4N, 5N) core down  id = 4N + c*k + pod               (core c -> agg c/(k/2) of pod)
//	[5N, 6N) ejection   edge switch -> PE
//
// Routing is the paper's deterministic two-level lookup: the destination's
// within-pod index selects the core (and therefore both aggregation
// switches), so every (src, dst) pair has exactly one path and link usage is
// a stable function of k — the layout contract PatternKey hashing needs.
type FatTree struct {
	name               string // precomputed so Name() never allocates
	network.RouteTable        // this value's memoized routes (network.RoutesOf)

	K int // switch radix; k even, >= 4
	N int // PEs = k^3/4
}

// NewFatTree returns a k-ary fat-tree. k must be even and >= 4 (and <= 64 to
// keep N = k^3/4 within practical bounds).
func NewFatTree(k int) *FatTree {
	if k < 4 || k%2 != 0 || k > 64 {
		panic(fmt.Sprintf("topology: fattree radix %d: want even k with 4 <= k <= 64", k))
	}
	f := &FatTree{K: k, N: k * k * k / 4, name: fmt.Sprintf("fattree-%d", k)}
	if err := CheckInvariants(f, invariantSample); err != nil {
		panic(fmt.Sprintf("topology: fattree invariant violated: %v", err))
	}
	return f
}

// Name implements network.Topology.
func (f *FatTree) Name() string {
	if f.name != "" {
		return f.name
	}
	return fmt.Sprintf("fattree-%d", f.K)
}

// NumTerminals implements network.Terminals.
func (f *FatTree) NumTerminals() int { return f.N }

// NumNodes implements network.Topology: PEs + k^2/2 edge + k^2/2 agg +
// (k/2)^2 core switches.
func (f *FatTree) NumNodes() int { return f.N + f.K*f.K + f.K*f.K/4 }

// NumLinks implements network.Topology: six N-sized blocks.
func (f *FatTree) NumLinks() int { return 6 * f.N }

func (f *FatTree) edgeNode(pod, e int) network.NodeID {
	return network.NodeID(f.N + pod*(f.K/2) + e)
}

func (f *FatTree) aggNode(pod, a int) network.NodeID {
	return network.NodeID(f.N + f.K*f.K/2 + pod*(f.K/2) + a)
}

func (f *FatTree) coreNode(c int) network.NodeID {
	return network.NodeID(f.N + f.K*f.K + c)
}

// hostLoc decomposes a PE id into (pod, edge index, port index at the edge).
func (f *FatTree) hostLoc(hid int) (pod, e, i int) {
	half := f.K / 2
	perPod := half * half
	pod = hid / perPod
	wp := hid % perPod
	return pod, wp / half, wp % half
}

// Switch port numbering: down-side ports 1..k/2, up-side ports k/2+1..k.
// Core switches use ports 1..k, one per pod, on each side.

// Link implements network.Topology.
func (f *FatTree) Link(id network.LinkID) network.LinkInfo {
	half := f.K / 2
	n := int(id)
	switch {
	case n < f.N:
		// Injection: PE -> edge switch, down-side input port 1+i.
		pod, e, i := f.hostLoc(n)
		return network.LinkInfo{
			ID: id, From: network.NodeID(n), To: f.edgeNode(pod, e),
			OutPort: network.PEPort + 1, InPort: 1 + i,
		}
	case n < 2*f.N:
		// Edge up: edge (pod, e) -> agg (pod, a).
		rel := n - f.N
		pe := rel / half // pod*half + e
		a := rel % half
		pod, e := pe/half, pe%half
		return network.LinkInfo{
			ID: id, From: f.edgeNode(pod, e), To: f.aggNode(pod, a),
			OutPort: half + 1 + a, InPort: 1 + e,
		}
	case n < 3*f.N:
		// Agg down: agg (pod, a) -> edge (pod, e).
		rel := n - 2*f.N
		pa := rel / half
		e := rel % half
		pod, a := pa/half, pa%half
		return network.LinkInfo{
			ID: id, From: f.aggNode(pod, a), To: f.edgeNode(pod, e),
			OutPort: 1 + e, InPort: half + 1 + a,
		}
	case n < 4*f.N:
		// Agg up: agg (pod, a) -> core a*half + j.
		rel := n - 3*f.N
		pa := rel / half
		j := rel % half
		pod, a := pa/half, pa%half
		return network.LinkInfo{
			ID: id, From: f.aggNode(pod, a), To: f.coreNode(a*half + j),
			OutPort: half + 1 + j, InPort: 1 + pod,
		}
	case n < 5*f.N:
		// Core down: core c -> agg (pod, c/half).
		rel := n - 4*f.N
		c := rel / f.K
		pod := rel % f.K
		return network.LinkInfo{
			ID: id, From: f.coreNode(c), To: f.aggNode(pod, c/half),
			OutPort: 1 + pod, InPort: half + 1 + c%half,
		}
	default:
		// Ejection: edge switch -> PE, down-side output port 1+i.
		hid := n - 5*f.N
		pod, e, i := f.hostLoc(hid)
		return network.LinkInfo{
			ID: id, From: f.edgeNode(pod, e), To: network.NodeID(hid),
			OutPort: 1 + i, InPort: network.PEPort + 1,
		}
	}
}

// Route implements network.Topology with the deterministic two-level lookup:
// the destination's within-pod index c = e_d*(k/2) + i_d names the core, so
// the up-path aggregation switch is c/(k/2) = e_d in both pods and the
// circuit is PE -> edge -> agg -> core -> agg -> edge -> PE (shorter when
// src and dst share a pod or an edge switch).
func (f *FatTree) Route(src, dst network.NodeID) (network.Path, error) {
	if int(src) < 0 || int(src) >= f.N || int(dst) < 0 || int(dst) >= f.N {
		if int(src) < 0 || int(src) >= f.NumNodes() || int(dst) < 0 || int(dst) >= f.NumNodes() {
			return network.Path{}, network.ErrBadNode
		}
		return network.Path{}, fmt.Errorf("topology: fattree route endpoints must be PEs (0..%d)", f.N-1)
	}
	if src == dst {
		return network.Path{}, network.ErrSelfLoop
	}
	half := f.K / 2
	podS, eS, _ := f.hostLoc(int(src))
	podD, eD, iD := f.hostLoc(int(dst))

	links := make([]network.LinkID, 0, 6)
	links = append(links, network.LinkID(int(src))) // injection
	switch {
	case podS == podD && eS == eD:
		// Same edge switch: inject then eject.
	case podS == podD:
		// Up to the destination-selected agg, back down to dst's edge.
		a := iD
		links = append(links,
			network.LinkID(f.N+(podS*half+eS)*half+a),
			network.LinkID(2*f.N+(podD*half+a)*half+eD))
	default:
		// Cross-pod: core c = eD*half + iD; agg index c/half = eD on both sides.
		c := eD*half + iD
		a, j := eD, iD
		links = append(links,
			network.LinkID(f.N+(podS*half+eS)*half+a),
			network.LinkID(3*f.N+(podS*half+a)*half+j),
			network.LinkID(4*f.N+c*f.K+podD),
			network.LinkID(2*f.N+(podD*half+a)*half+eD))
	}
	links = append(links, network.LinkID(5*f.N+int(dst))) // ejection
	return network.Path{Src: src, Dst: dst, Links: links}, nil
}

var _ network.Topology = (*FatTree)(nil)
var _ network.Terminals = (*FatTree)(nil)
