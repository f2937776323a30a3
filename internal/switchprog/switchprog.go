// Package switchprog lowers a connection schedule to per-switch control
// programs — the artifact compiled communication actually loads into the
// network before a communication phase executes.
//
// Under TDM, each electro-optical switch is driven by a circular shift
// register that cycles through K states, one per time slot. State k of a
// switch is a partial crossbar setting: a mapping from input ports to
// output ports realizing the slot-k configuration's circuits through that
// switch. This package computes those states from a schedule.Result and
// verifies they are crossbar-legal (no output port used twice per slot).
package switchprog

import (
	"fmt"
	"strings"

	"repro/internal/network"
	"repro/internal/schedule"
)

// Program is the compiled network control for one communication phase. The
// register contents are held in one flat table indexed by (switch, slot,
// input port) — the shape the shift registers physically have — rather than
// per-slot maps: reads are single array loads and compiling a phase costs a
// handful of allocations however many circuits it routes.
type Program struct {
	Topology network.Topology
	Degree   int
	// ports is the crossbar width: one entry per port, PEPort included.
	ports  int
	stride int // Degree * ports
	// state[(node, slot, in)] = out+1; zero means the input is dark.
	state []int32
	// counts[(node, slot)] is the number of lit inputs of that register.
	counts []int32
}

// Ports is the crossbar width the program was compiled for (the number of
// distinct ports per switch, PE ports included).
func (p *Program) Ports() int { return p.ports }

// Entry reads one register: the output port the switch connects input `in`
// to during `slot`, with ok false when the input is dark.
func (p *Program) Entry(node network.NodeID, slot, in int) (out int, ok bool) {
	if slot < 0 || slot >= p.Degree || in < 0 || in >= p.ports {
		return 0, false
	}
	v := p.state[int(node)*p.stride+slot*p.ports+in]
	if v == 0 {
		return 0, false
	}
	return int(v - 1), true
}

// SetEntry overwrites one register unchecked — no crossbar-legality
// enforcement. out < 0 darkens the input. This is the fault-injection hook
// the optics tests use to corrupt a program and confirm the light trace
// notices; production code never mutates a compiled program.
func (p *Program) SetEntry(node network.NodeID, slot, in, out int) {
	if slot < 0 || slot >= p.Degree || in < 0 || in >= p.ports {
		panic(fmt.Sprintf("switchprog: SetEntry(%d, %d, %d) outside degree %d x ports %d", node, slot, in, p.Degree, p.ports))
	}
	idx := int(node)*p.stride + slot*p.ports + in
	prev := p.state[idx]
	if out < 0 {
		p.state[idx] = 0
		if prev != 0 {
			p.counts[int(node)*p.Degree+slot]--
		}
		return
	}
	if out >= p.ports {
		panic(fmt.Sprintf("switchprog: SetEntry output %d outside ports %d", out, p.ports))
	}
	p.state[idx] = int32(out + 1)
	if prev == 0 {
		p.counts[int(node)*p.Degree+slot]++
	}
}

// EachEntry calls fn for every lit register of (node, slot) in input-port
// order.
func (p *Program) EachEntry(node network.NodeID, slot int, fn func(in, out int)) {
	if slot < 0 || slot >= p.Degree {
		return
	}
	base := int(node)*p.stride + slot*p.ports
	for in := 0; in < p.ports; in++ {
		if v := p.state[base+in]; v != 0 {
			fn(in, int(v-1))
		}
	}
}

// SlotEntries is the number of lit inputs of (node, slot).
func (p *Program) SlotEntries(node network.NodeID, slot int) int {
	if slot < 0 || slot >= p.Degree {
		return 0
	}
	return int(p.counts[int(node)*p.Degree+slot])
}

// Compile lowers a schedule to switch programs. Every circuit contributes
// one crossbar entry to each switch it traverses: PE-in to first link at
// the source, link to link at intermediate switches, and last link to
// PE-out at the destination.
//
// Crossbar legality is tracked during the fill in a transient output-claim
// table; the input-side table is the program's register state itself, so
// nothing is materialized afterwards.
func Compile(res *schedule.Result) (*Program, error) {
	t := res.Topology
	degree := res.Degree()
	nn := t.NumNodes()
	prog := &Program{Topology: t, Degree: degree}
	if degree == 0 {
		return prog, nil
	}
	// Route replay touches the same few links in every slot; fetch each
	// LinkInfo through the interface once.
	links := make([]network.LinkInfo, t.NumLinks())
	ports := network.PEPort + 1
	for i := range links {
		links[i] = t.Link(network.LinkID(i))
		if links[i].OutPort >= ports {
			ports = links[i].OutPort + 1
		}
		if links[i].InPort >= ports {
			ports = links[i].InPort + 1
		}
	}
	prog.ports = ports
	prog.stride = degree * ports
	prog.state = make([]int32, nn*prog.stride)
	prog.counts = make([]int32, nn*degree)
	// outClaim[(node,slot,out)] = in+1; zero means the output is free.
	outClaim := make([]int32, nn*prog.stride)
	setting := func(node network.NodeID, slot, in, out int) error {
		base := int(node)*prog.stride + slot*ports
		if prev := prog.state[base+in]; prev != 0 {
			if int(prev-1) != out {
				return fmt.Errorf("switchprog: switch %d slot %d input %d claimed for outputs %d and %d",
					node, slot, in, prev-1, out)
			}
			return nil
		}
		if prev := outClaim[base+out]; prev != 0 {
			return fmt.Errorf("switchprog: switch %d slot %d output %d claimed by inputs %d and %d",
				node, slot, out, prev-1, in)
		}
		prog.state[base+in] = int32(out + 1)
		outClaim[base+out] = int32(in + 1)
		prog.counts[int(node)*degree+slot]++
		return nil
	}
	rs := network.RoutesOf(t)
	for slot, config := range res.Configs {
		for _, req := range config {
			p, err := rs.Route(req.Src, req.Dst)
			if err != nil {
				return nil, fmt.Errorf("switchprog: routing %v: %w", req, err)
			}
			in := network.PEPort
			node := p.Src
			for _, l := range p.Links {
				li := &links[l]
				if err := setting(node, slot, in, li.OutPort); err != nil {
					return nil, err
				}
				node = li.To
				in = li.InPort
			}
			if err := setting(node, slot, in, network.PEPort); err != nil {
				return nil, err
			}
		}
	}
	return prog, nil
}

// CircuitPorts traces the circuit of (src, dst) through the compiled
// program at the given slot, returning the sequence of (node, inPort,
// outPort) crossbar entries it uses; used by tests to confirm the lowered
// program reconstructs every scheduled circuit.
func (p *Program) CircuitPorts(src, dst network.NodeID, slot int) ([][3]int, error) {
	path, err := network.CachedRoute(p.Topology, src, dst)
	if err != nil {
		return nil, err
	}
	var hops [][3]int
	in := network.PEPort
	node := path.Src
	for _, l := range path.Links {
		li := p.Topology.Link(l)
		out, ok := p.Entry(node, slot, in)
		if !ok || out != li.OutPort {
			return nil, fmt.Errorf("switchprog: circuit %d->%d broken at switch %d slot %d", src, dst, node, slot)
		}
		hops = append(hops, [3]int{int(node), in, out})
		node = li.To
		in = li.InPort
	}
	out, ok := p.Entry(node, slot, in)
	if !ok || out != network.PEPort {
		return nil, fmt.Errorf("switchprog: circuit %d->%d not ejected at switch %d slot %d", src, dst, node, slot)
	}
	hops = append(hops, [3]int{int(node), in, out})
	return hops, nil
}

// ActiveEntries returns the total number of crossbar entries across all
// switches and slots, a proxy for control-register occupancy.
func (p *Program) ActiveEntries() int {
	n := 0
	for _, c := range p.counts {
		n += int(c)
	}
	return n
}

// Dump renders the program in a compact human-readable form, one line per
// (switch, slot) with entries "in->out", for the CLI tools.
func (p *Program) Dump() string {
	var b strings.Builder
	fmt.Fprintf(&b, "network %s, multiplexing degree %d\n", p.Topology.Name(), p.Degree)
	for n := 0; n < p.Topology.NumNodes(); n++ {
		for slot := 0; slot < p.Degree; slot++ {
			if p.SlotEntries(network.NodeID(n), slot) == 0 {
				continue
			}
			fmt.Fprintf(&b, "switch %3d slot %2d:", n, slot)
			p.EachEntry(network.NodeID(n), slot, func(in, out int) {
				fmt.Fprintf(&b, " %d->%d", in, out)
			})
			b.WriteByte('\n')
		}
	}
	return b.String()
}
