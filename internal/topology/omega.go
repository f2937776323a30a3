package topology

import (
	"fmt"
	"math/bits"

	"repro/internal/network"
)

// Omega is an N-PE Omega multistage interconnection network (MIN) built
// from 2x2 electro-optical switches — the network family the paper's TDM
// control lineage (Qiao & Melhem, "Reconfiguration with Time Division
// Multiplexed MINs") studies. N must be a power of two; the network has
// log2(N) stages of N/2 switches with a perfect shuffle between stages.
//
// Node numbering: nodes 0..N-1 are the PEs (sources inject and
// destinations eject there); node N + s*(N/2) + i is switch i of stage s.
// Each PE owns an injection link into stage 0 and receives an ejection link
// from the last stage, so a connection's circuit is
//
//	PE -> stage 0 -> shuffle links -> stage log2(N)-1 -> PE.
//
// Routing is destination-tag: at stage s the circuit leaves through the
// switch output selected by destination bit log2(N)-1-s. Unlike the torus,
// two circuits can conflict *inside* the fabric even with distinct sources
// and destinations, which is what makes MIN scheduling interesting: the
// multiplexing degree of a permutation equals the number of passes the
// Omega network classically needs for it.
type Omega struct {
	name               string // precomputed by the constructor so Name() never allocates
	network.RouteTable        // this value's memoized routes (network.RoutesOf)

	N      int // PEs
	stages int
}

// NewOmega returns an Omega network over n PEs (n a power of two >= 4).
func NewOmega(n int) *Omega {
	if n < 4 || n&(n-1) != 0 {
		panic(fmt.Sprintf("topology: omega size %d not a power of two >= 4", n))
	}
	return &Omega{N: n, stages: bits.TrailingZeros(uint(n)), name: fmt.Sprintf("omega-%d", n)}
}

// Name implements network.Topology.
func (o *Omega) Name() string {
	if o.name != "" {
		return o.name
	}
	return fmt.Sprintf("omega-%d", o.N)
}

// NumTerminals implements network.Terminals: only the N PEs originate or
// terminate circuits; the interior nodes are fabric switches.
func (o *Omega) NumTerminals() int { return o.N }

// Stages returns log2(N), the number of switch stages.
func (o *Omega) Stages() int { return o.stages }

// NumNodes implements network.Topology: the PEs plus every 2x2 switch.
func (o *Omega) NumNodes() int { return o.N + o.stages*o.N/2 }

// NumLinks implements network.Topology. Links are laid out as:
//   - N injection links (PE p -> stage-0 switch), ids [0, N);
//   - (stages-1)*N shuffle links between consecutive stages, ids
//     [N, N + (stages-1)*N): link for stage-s output wire w has id
//     N + s*N + w;
//   - N ejection links (last stage -> PE), ids [N + (stages-1)*N, ...).
func (o *Omega) NumLinks() int { return o.N + (o.stages-1)*o.N + o.N }

// switchNode returns the node id of switch i in stage s.
func (o *Omega) switchNode(s, i int) network.NodeID {
	return network.NodeID(o.N + s*(o.N/2) + i)
}

// shuffle is the perfect-shuffle permutation on wire indices: rotate the
// log2(N)-bit address left by one.
func (o *Omega) shuffle(w int) int {
	return ((w << 1) | (w >> (o.stages - 1))) & (o.N - 1)
}

// Omega switch port numbering: the two inputs are 1 and 2, the two outputs
// are 1 and 2 (top and bottom wire). PE nodes use network.PEPort for their
// single port on each side.
const (
	omegaTop    = 1
	omegaBottom = 2
)

// wirePort converts a wire index entering/leaving a switch into the
// switch-local port: wire w connects to switch w/2, port 1 + w%2.
func wirePort(w int) int { return omegaTop + w%2 }

// Link implements network.Topology.
func (o *Omega) Link(id network.LinkID) network.LinkInfo {
	n := int(id)
	switch {
	case n < o.N:
		// Injection: PE p enters stage 0 at wire shuffle(p) (the classic
		// Omega input shuffle).
		p := n
		w := o.shuffle(p)
		return network.LinkInfo{
			ID: id, From: network.NodeID(p), To: o.switchNode(0, w/2),
			OutPort: network.PEPort + 1, InPort: wirePort(w),
		}
	case n < o.N+(o.stages-1)*o.N:
		// Shuffle link: output wire w of stage s feeds input wire
		// shuffle(w) of stage s+1.
		s := (n - o.N) / o.N
		w := (n - o.N) % o.N
		wNext := o.shuffle(w)
		return network.LinkInfo{
			ID: id, From: o.switchNode(s, w/2), To: o.switchNode(s+1, wNext/2),
			OutPort: wirePort(w), InPort: wirePort(wNext),
		}
	default:
		// Ejection: output wire w of the last stage is PE w.
		w := n - o.N - (o.stages-1)*o.N
		return network.LinkInfo{
			ID: id, From: o.switchNode(o.stages-1, w/2), To: network.NodeID(w),
			OutPort: wirePort(w), InPort: network.PEPort + 1,
		}
	}
}

// Route implements network.Topology with destination-tag routing: after the
// input shuffle the circuit sits on some wire of stage 0; at stage s it
// exits on the wire whose low bit is destination bit stages-1-s.
func (o *Omega) Route(src, dst network.NodeID) (network.Path, error) {
	if int(src) < 0 || int(src) >= o.N || int(dst) < 0 || int(dst) >= o.N {
		// Only PEs originate or terminate circuits.
		if int(src) < 0 || int(src) >= o.NumNodes() || int(dst) < 0 || int(dst) >= o.NumNodes() {
			return network.Path{}, network.ErrBadNode
		}
		return network.Path{}, fmt.Errorf("topology: omega route endpoints must be PEs (0..%d)", o.N-1)
	}
	if src == dst {
		return network.Path{}, network.ErrSelfLoop
	}
	links := make([]network.LinkID, 0, o.stages+1)
	links = append(links, network.LinkID(int(src))) // injection
	w := o.shuffle(int(src))
	for s := 0; s < o.stages; s++ {
		// Leave switch w/2 of stage s on the wire selected by the
		// destination bit for this stage.
		bit := (int(dst) >> (o.stages - 1 - s)) & 1
		wOut := (w &^ 1) | bit
		if s < o.stages-1 {
			links = append(links, network.LinkID(o.N+s*o.N+wOut))
			w = o.shuffle(wOut)
		} else {
			links = append(links, network.LinkID(o.N+(o.stages-1)*o.N+wOut))
			w = wOut
		}
	}
	if w != int(dst) {
		return network.Path{}, fmt.Errorf("topology: omega routing reached wire %d, want %d", w, dst)
	}
	return network.Path{Src: src, Dst: dst, Links: links}, nil
}

var _ network.Topology = (*Omega)(nil)
