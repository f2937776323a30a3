package fault

import (
	"fmt"

	"repro/internal/network"
)

// Masked presents a degraded network as an ordinary network.Topology, so
// every consumer of the healthy topology — the schedulers, the switch
// compiler, the optics tracer, the conflict machinery — recompiles against
// the failed network unchanged. The link-id space is preserved (failed
// links keep their ids and Link() descriptions; they simply never appear in
// a route), which keeps occupancy tracking, conflict graphs and switch
// lowering oblivious to the masking.
//
// Routing semantics: if the base topology's deterministic compile-time
// route survives the failure set, Masked returns it verbatim — degraded
// compilation then differs from healthy compilation only where it must.
// Otherwise Masked falls back to a deterministic shortest path over the
// surviving links (network.BFSRoute), and only when no such path exists —
// the failures disconnect the pair — does Route fail, with
// network.ErrNoRoute in its chain.
//
// A Masked value must be built after its failure Set is final: routes are
// memoized in the value's own route table (network.RoutesOf), so mutating
// the Set of an already-routed Masked requires network.InvalidateRoutes(m).
type Masked struct {
	// Base is the healthy topology being masked.
	Base network.Topology
	// Faults is the failure state hidden from consumers.
	Faults *Set

	network.RouteTable // the view's memoized routes; they go with the view
}

// NewMasked wraps a topology with a failure set.
func NewMasked(base network.Topology, faults *Set) *Masked {
	if faults == nil {
		faults = NewSet()
	}
	return &Masked{Base: base, Faults: faults}
}

// Name implements network.Topology.
func (m *Masked) Name() string {
	if m.Faults.Empty() {
		return m.Base.Name()
	}
	return fmt.Sprintf("%s[faults %s]", m.Base.Name(), m.Faults)
}

// NumNodes implements network.Topology.
func (m *Masked) NumNodes() int { return m.Base.NumNodes() }

// NumLinks implements network.Topology. Failed links keep their ids.
func (m *Masked) NumLinks() int { return m.Base.NumLinks() }

// Link implements network.Topology.
func (m *Masked) Link(id network.LinkID) network.LinkInfo { return m.Base.Link(id) }

// NumTerminals reports the PE-bearing node count of the base topology, so
// multistage bases keep their terminal structure under masking.
func (m *Masked) NumTerminals() int { return network.TerminalCount(m.Base) }

// Route implements network.Topology over the surviving network.
func (m *Masked) Route(src, dst network.NodeID) (network.Path, error) {
	if int(src) >= 0 && int(src) < m.NumNodes() && m.Faults.NodeFailed(src) {
		return network.Path{}, fmt.Errorf("%w: source switch %d failed", network.ErrNoRoute, src)
	}
	if int(dst) >= 0 && int(dst) < m.NumNodes() && m.Faults.NodeFailed(dst) {
		return network.Path{}, fmt.Errorf("%w: destination switch %d failed", network.ErrNoRoute, dst)
	}
	// The base topology is long-lived (many masked views of one network),
	// so its routes come from the base's route table; only the detours
	// around failed resources are computed per mask.
	p, err := network.CachedRoute(m.Base, src, dst)
	if err == nil && !m.Faults.BlocksPath(m.Base, p) {
		return p, nil
	}
	if err != nil {
		// Structural errors (self-loop, bad node) are not maskable.
		return network.Path{}, err
	}
	return network.BFSRoute(m.Base, src, dst, m.Faults.Blocks)
}

var (
	_ network.Topology  = (*Masked)(nil)
	_ network.Terminals = (*Masked)(nil)
)
