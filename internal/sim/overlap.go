package sim

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
)

// This file is the simulator-level accounting path for overlap-aware
// reconfiguration. Between two compiled phases the switches must rewrite
// the shift-register entries that differ; each switch owns its register
// write port, so switches load in parallel while the entries of one switch
// load serially (one entry per ReconfigCost.PerSlot slots). A switch that
// sits idle in some TDM slots of the *current* phase can absorb register
// writes during those slots, so the next phase only stalls for the largest
// per-switch remainder that could not be hidden, plus the epoch barrier.

// Request returns the message's connection request — the (src, dst) pair a
// compiled schedule must hold a circuit for.
func (m Message) Request() request.Request {
	return request.Request{Src: network.NodeID(m.Src), Dst: network.NodeID(m.Dst)}
}

// PhaseLoad describes the register writes needed to move the network into a
// phase: per-switch entry counts plus their total and maximum.
type PhaseLoad struct {
	// PerSwitch holds, indexed by switch (node) id, the number of register
	// entries that switch must write. Nil when no writes are needed.
	PerSwitch []int
	// Total is the sum over all switches.
	Total int
	// Max is the largest per-switch count; serialized loading stalls for
	// Max*PerSlot + Barrier because switches write in parallel.
	Max int
}

// pathSwitches calls visit for every switch traversed by the circuit of r:
// the source switch plus the destination switch of every link on the
// deterministic route.
func pathSwitches(topo network.Topology, r request.Request, visit func(network.NodeID)) error {
	p, err := network.CachedRoute(topo, r.Src, r.Dst)
	if err != nil {
		return err
	}
	visit(p.Src)
	for _, l := range p.Links {
		visit(topo.Link(l).To)
	}
	return nil
}

// RegisterLoad is the cold-start load of a schedule: every switch traversed
// by any of its circuits writes its full K-entry register. With no previous
// phase to hide behind this costs Max*PerSlot + Barrier, matching
// core.ReconfigCost.Cost(K).
func RegisterLoad(res *schedule.Result) (PhaseLoad, error) {
	k := res.Degree()
	if k == 0 {
		return PhaseLoad{}, nil
	}
	per := make([]int, res.Topology.NumNodes())
	for _, cfg := range res.Configs {
		for _, r := range cfg {
			if err := pathSwitches(res.Topology, r, func(s network.NodeID) {
				per[s] = k
			}); err != nil {
				return PhaseLoad{}, err
			}
		}
	}
	return tallyLoad(per), nil
}

func tallyLoad(per []int) PhaseLoad {
	l := PhaseLoad{PerSwitch: per}
	for _, n := range per {
		l.Total += n
		if n > l.Max {
			l.Max = n
		}
	}
	if l.Total == 0 {
		l.PerSwitch = nil
	}
	return l
}

// Marks of one register entry (switch s, TDM slot u) in RegisterDelta's
// flat table.
const (
	// entryNext: a circuit of next crosses s in slot u.
	entryNext uint8 = 1 << iota
	// entryDiffer: some circuit crosses s in slot u in one schedule only,
	// so the entry's circuit set — and its register contents — change.
	entryDiffer
	// entryMark: transient, on prev's route of the circuit being compared.
	entryMark
)

// markPath updates slot u's entry of every switch on p that the table
// holds (k entries per switch): an entry carrying entryMark trades it for
// the bits in marked; any other entry gains the bits in unmarked.
func markPath(tab []uint8, k, u int, topo network.Topology, p network.Path, marked, unmarked uint8) {
	set := func(s network.NodeID) {
		i := int(s)*k + u
		if i >= len(tab) {
			return
		}
		if tab[i]&entryMark != 0 {
			tab[i] = tab[i]&^entryMark | marked
		} else {
			tab[i] |= unmarked
		}
	}
	set(p.Src)
	for _, l := range p.Links {
		set(topo.Link(l).To)
	}
}

// RegisterDelta is the load needed to move from schedule prev to schedule
// next: for every switch, the number of TDM slots whose crossing-circuit set
// changed. A degree change rewrites the whole register of every switch next
// uses (the frame length is a global property), so the delta degrades to
// RegisterLoad(next). Entries that next leaves dark need no clearing: light
// only enters the network through PE injection ports, and the PEs transmit
// only on next's circuits, so stale entries on otherwise-dark paths never
// see a photon.
//
// The sets are compared through one flat byte per (switch, slot) entry with
// two marks: next uses the entry, and some circuit's membership in it
// differs between the schedules. A circuit both schedules hold in the same
// slot marks membership changes only off the intersection of its two
// routes — nowhere when both schedules share one topology, whose routing
// is deterministic, and on one route only when next runs on another view
// (e.g. a fault-masked one); every other circuit marks its whole route. An
// entry is rewritten exactly when it carries both marks, so the count is
// exact — two equal sets imply byte-identical crossbar register entries —
// and needs no per-entry sets, sorting or hashing.
//
// prev == nil means cold start and yields RegisterLoad(next).
func RegisterDelta(prev, next *schedule.Result) (PhaseLoad, error) {
	if prev == nil || prev.Degree() != next.Degree() {
		return RegisterLoad(next)
	}
	if prev == next {
		return PhaseLoad{}, nil
	}
	k := next.Degree()
	n := next.Topology.NumNodes()
	tab := make([]uint8, n*k)
	for u, cfg := range next.Configs {
		for _, r := range cfg {
			p, err := network.CachedRoute(next.Topology, r.Src, r.Dst)
			if err != nil {
				return PhaseLoad{}, err
			}
			if pu, ok := prev.Slot[r]; !ok || pu != u {
				markPath(tab, k, u, next.Topology, p, entryNext|entryDiffer, entryNext|entryDiffer)
				continue
			}
			// Held in slot u by both schedules: the membership differs
			// exactly off the intersection of the two routes, which is
			// all of them when both schedules share one topology.
			q, err := network.CachedRoute(prev.Topology, r.Src, r.Dst)
			if err != nil {
				return PhaseLoad{}, err
			}
			markPath(tab, k, u, prev.Topology, q, entryMark, entryMark)
			markPath(tab, k, u, next.Topology, p, entryNext, entryNext|entryDiffer)
			markPath(tab, k, u, prev.Topology, q, entryDiffer, 0)
		}
	}
	for u, cfg := range prev.Configs {
		for _, r := range cfg {
			if nu, ok := next.Slot[r]; ok && nu == u {
				continue // compared above
			}
			q, err := network.CachedRoute(prev.Topology, r.Src, r.Dst)
			if err != nil {
				return PhaseLoad{}, err
			}
			markPath(tab, k, u, prev.Topology, q, entryDiffer, entryDiffer)
		}
	}
	per := make([]int, n)
	for s := range per {
		for _, e := range tab[s*k : (s+1)*k] {
			if e&(entryNext|entryDiffer) == entryNext|entryDiffer {
				per[s]++
			}
		}
	}
	return tallyLoad(per), nil
}

// idlePerSwitch counts, for every switch, the TDM slots of res's frame in
// which the switch carries no circuit — the slots whose dark register
// entries can be rewritten while the phase is still communicating.
func idlePerSwitch(res *schedule.Result) ([]int, error) {
	k := res.Degree()
	busy := make([]int, res.Topology.NumNodes())
	seen := make([]int, res.Topology.NumNodes())
	for i := range seen {
		seen[i] = -1
	}
	for u, cfg := range res.Configs {
		for _, r := range cfg {
			if err := pathSwitches(res.Topology, r, func(s network.NodeID) {
				if seen[s] != u {
					seen[s] = u
					busy[s]++
				}
			}); err != nil {
				return nil, err
			}
		}
	}
	idle := busy
	for s := range idle {
		idle[s] = k - idle[s]
	}
	return idle, nil
}

// SerializedStall is the stall of loading a phase with nothing to hide
// behind: Max entries back to back plus the barrier. Zero when no switch
// writes anything.
func SerializedStall(load PhaseLoad, perSlot, barrier int) int {
	if load.Max == 0 {
		return 0
	}
	return perSlot*load.Max + barrier
}

// OverlapStall charges a phase boundary overlap-aware: while the previous
// phase communicates for prevComm slots, switch s is idle in idle_s of every
// K-slot frame and can absorb prevComm*idle_s/K register-write slots. The
// phase then stalls only for the largest per-switch remainder plus the
// barrier (switches write in parallel). With prev == nil (cold start) or
// nothing to write the stall degrades to SerializedStall. The second result
// is the number of stall slots hidden relative to serialized loading.
func OverlapStall(prev *schedule.Result, prevComm int, load PhaseLoad, perSlot, barrier int) (stall, hidden int, err error) {
	serialized := SerializedStall(load, perSlot, barrier)
	if load.Max == 0 {
		return 0, 0, nil
	}
	if prev == nil || prevComm <= 0 {
		return serialized, 0, nil
	}
	k := prev.Degree()
	if k == 0 {
		return serialized, 0, nil
	}
	idle, err := idlePerSwitch(prev)
	if err != nil {
		return 0, 0, err
	}
	worst := 0
	for s, entries := range load.PerSwitch {
		if entries == 0 {
			continue
		}
		capacity := 0
		if s < len(idle) {
			capacity = prevComm * idle[s] / k
		}
		rem := perSlot*entries - capacity
		if rem > worst {
			worst = rem
		}
	}
	stall = worst + barrier
	return stall, serialized - stall, nil
}

// PhaseSpec is one phase of a compiled multi-phase program handed to
// RunProgram: the schedule chosen for the phase (by keep, patch, or
// recompile — RunProgram does not decide) and the phase's messages.
type PhaseSpec struct {
	Schedule *schedule.Result
	Messages []Message
}

// PhaseCost is the accounting of one phase inside a program run.
type PhaseCost struct {
	// Stall is the reconfiguration stall charged before the phase.
	Stall int
	// Hidden is the number of stall slots hidden under the previous
	// phase's communication (zero in serialized runs).
	Hidden int
	// SerializedStall is what the same register load would have cost with
	// no overlap.
	SerializedStall int
	// Comm is the phase's communication time on its schedule.
	Comm int
}

// ProgramResult reports a multi-phase program run.
type ProgramResult struct {
	// Total is the iteration time: sum of every phase's stall plus
	// communication.
	Total int
	// Serialized is the same plan charged with serialized register
	// loading — identical schedules, identical message delivery, no
	// hiding.
	Serialized int
	// Costs holds the per-phase accounting.
	Costs []PhaseCost
	// Finish holds each phase's per-message delivery slots (phase-local
	// clock), exactly as RunCompiled would report them.
	Finish [][]int
}

// RunProgram executes a compiled phase sequence and charges the
// reconfiguration between consecutive phases either serialized
// (overlap=false: every boundary pays SerializedStall) or overlap-aware
// (overlap=true: register loads hide under the previous phase's
// communication). The message delivery and the schedules are identical in
// both modes — only the stall accounting differs; the differential tests
// pin that down. The first phase always pays its cold-start load
// serialized.
func RunProgram(specs []PhaseSpec, perSlot, barrier int, overlap bool) (*ProgramResult, error) {
	if len(specs) == 0 {
		return nil, fmt.Errorf("sim: empty program")
	}
	out := &ProgramResult{
		Costs:  make([]PhaseCost, len(specs)),
		Finish: make([][]int, len(specs)),
	}
	engine := NewCompiledSim()
	var prev *schedule.Result
	prevComm := 0
	for i, spec := range specs {
		if spec.Schedule == nil {
			return nil, fmt.Errorf("sim: program phase %d has no schedule", i)
		}
		load, err := RegisterDelta(prev, spec.Schedule)
		if err != nil {
			return nil, fmt.Errorf("sim: program phase %d: %w", i, err)
		}
		cost := PhaseCost{SerializedStall: SerializedStall(load, perSlot, barrier)}
		if overlap {
			cost.Stall, cost.Hidden, err = OverlapStall(prev, prevComm, load, perSlot, barrier)
			if err != nil {
				return nil, fmt.Errorf("sim: program phase %d: %w", i, err)
			}
		} else {
			cost.Stall = cost.SerializedStall
		}
		var res CompiledResult
		if err := engine.RunInto(spec.Schedule, spec.Messages, TDM, &res); err != nil {
			return nil, fmt.Errorf("sim: program phase %d: %w", i, err)
		}
		cost.Comm = res.Time
		out.Costs[i] = cost
		finish := make([]int, len(res.Finish))
		copy(finish, res.Finish)
		out.Finish[i] = finish
		out.Total += cost.Stall + cost.Comm
		out.Serialized += cost.SerializedStall + cost.Comm
		prev = spec.Schedule
		prevComm = cost.Comm
	}
	return out, nil
}
