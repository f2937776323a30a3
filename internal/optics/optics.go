// Package optics verifies compiled network control at the physical level:
// it traces light through the switch crossbar settings alone, without
// consulting the schedule or the routing function that produced them.
//
// A Tracer injects a probe into the PE injection port of a switch during a
// TDM slot and follows the optical path dictated purely by the loaded
// crossbar states: in-port -> out-port inside each switch, out-port ->
// neighbor in-port along each fiber. Whatever PE ejection port the probe
// reaches is where the data physically lands. Comparing that against the
// intended destinations is the strongest end-to-end check the system has:
// it would catch a correct schedule lowered to wrong register contents, a
// wrong link table, or a routing/lowering disagreement.
package optics

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/switchprog"
)

// Tracer follows light through a compiled switch program.
type Tracer struct {
	prog *switchprog.Program
	// Crossbar states and wiring flattened at construction, so one hop is
	// two array reads instead of two map probes: state holds out+1 per
	// (node, slot, in) with 0 meaning dark, linkAt holds link index+1 per
	// (node, outPort) with 0 meaning no fiber.
	ports  int
	stride int // Degree * ports
	state  []int32
	linkAt []int32
	links  []network.LinkInfo
}

// NewTracer indexes the topology's wiring and the program's crossbar
// states. The snapshot is taken here: mutations of the program after
// construction are not seen by this Tracer.
func NewTracer(prog *switchprog.Program) *Tracer {
	topo := prog.Topology
	nn := topo.NumNodes()
	t := &Tracer{prog: prog, links: make([]network.LinkInfo, topo.NumLinks())}
	ports := network.PEPort + 1
	for id := range t.links {
		li := topo.Link(network.LinkID(id))
		t.links[id] = li
		if li.OutPort >= ports {
			ports = li.OutPort + 1
		}
		if li.InPort >= ports {
			ports = li.InPort + 1
		}
	}
	// The program is untrusted here — it may have been compiled against a
	// wider crossbar than the wiring uses — so the port bound must cover
	// its registers too.
	if prog.Ports() > ports {
		ports = prog.Ports()
	}
	t.ports = ports
	t.stride = prog.Degree * ports
	t.linkAt = make([]int32, nn*ports)
	for id := range t.links {
		li := &t.links[id]
		t.linkAt[int(li.From)*ports+li.OutPort] = int32(id + 1)
	}
	t.state = make([]int32, nn*t.stride)
	for n := 0; n < nn; n++ {
		base := n * t.stride
		for slot := 0; slot < prog.Degree; slot++ {
			row := base + slot*ports
			prog.EachEntry(network.NodeID(n), slot, func(in, out int) {
				t.state[row+in] = int32(out + 1)
			})
		}
	}
	return t
}

// Trace injects a probe at src's PE port in the given slot and returns the
// node whose PE ejection port the light reaches, together with the hop
// count. It fails if the injection port is dark (no crossbar entry), if an
// out-port leads to no fiber, or if the path exceeds the network size
// (a miswired loop).
func (t *Tracer) Trace(src network.NodeID, slot int) (network.NodeID, int, error) {
	if slot < 0 || slot >= t.prog.Degree {
		return 0, 0, fmt.Errorf("optics: slot %d outside degree %d", slot, t.prog.Degree)
	}
	node := src
	in := network.PEPort
	hops := 0
	limit := len(t.links) + 1
	for {
		v := t.state[int(node)*t.stride+slot*t.ports+in]
		if v == 0 {
			return 0, 0, fmt.Errorf("optics: dark input: switch %d slot %d port %d", node, slot, in)
		}
		out := int(v - 1)
		if out == network.PEPort {
			return node, hops, nil
		}
		w := t.linkAt[int(node)*t.ports+out]
		if w == 0 {
			return 0, 0, fmt.Errorf("optics: switch %d output port %d leads to no fiber", node, out)
		}
		li := &t.links[w-1]
		node = li.To
		in = li.InPort
		hops++
		if hops > limit {
			return 0, 0, fmt.Errorf("optics: light from %d loops in slot %d", src, slot)
		}
	}
}

// VerifySchedule traces every circuit of a schedule's configurations
// through the program, each in its own slot (configs[k] in slot k), and
// checks the light lands at the scheduled destination. It returns the
// number of circuits verified.
func (t *Tracer) VerifySchedule(configs []request.Set) (int, error) {
	n := 0
	for slot, c := range configs {
		for _, r := range c {
			dst, _, err := t.Trace(r.Src, slot)
			if err != nil {
				return n, fmt.Errorf("optics: circuit %v: %w", r, err)
			}
			if dst != r.Dst {
				return n, fmt.Errorf("optics: circuit %v delivers to %d", r, dst)
			}
			n++
		}
	}
	return n, nil
}

// SlotCensus traces every lit PE injection port of a slot and returns the
// realized connection set — the physical configuration the network
// establishes in that slot.
func (t *Tracer) SlotCensus(slot int) (request.Set, error) {
	var set request.Set
	for node := 0; node < t.prog.Topology.NumNodes(); node++ {
		if t.state[node*t.stride+slot*t.ports+network.PEPort] == 0 {
			continue
		}
		dst, _, err := t.Trace(network.NodeID(node), slot)
		if err != nil {
			return nil, err
		}
		set = append(set, request.Request{Src: network.NodeID(node), Dst: dst})
	}
	return set, nil
}
