package fault

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/optics"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/switchprog"
)

// Options configures compiled-mode fault recovery.
type Options struct {
	// Scheduler recompiles the surviving traffic on the masked topology.
	// nil defaults to schedule.Coloring{}: unlike the AAPC-based
	// schedulers it needs no all-to-all decomposition of the degraded
	// network — which may not exist (a dead switch disconnects some
	// pairs) and is expensive to rebuild per failure pattern.
	Scheduler schedule.Scheduler
	// Reconfig prices reloading the recompiled schedule into the switch
	// shift registers; the zero value means core.DefaultReconfigCost.
	Reconfig core.ReconfigCost
	// DetectSlots is the latency between a resource failing and the host
	// learning about it (the network runs blind meanwhile; flits sent into
	// the dead resource during detection are simply lost time).
	DetectSlots int
	// CompileSlots is the host-side recompilation time, in slots.
	CompileSlots int
	// Fallback enables the SWOT-style overlap: while the host recompiles,
	// traffic whose healthy route survives is served by the predetermined
	// all-to-all (AAPC) fallback schedule, one flit per fallback frame, so
	// the stall is not dead time for connected pairs.
	Fallback bool
}

func (o Options) scheduler() schedule.Scheduler {
	if o.Scheduler == nil {
		return schedule.Coloring{}
	}
	return o.Scheduler
}

func (o Options) reconfig() core.ReconfigCost {
	if o.Reconfig == (core.ReconfigCost{}) {
		return core.DefaultReconfigCost
	}
	return o.Reconfig
}

// Burst is one recovery episode: the failure events that fired at one slot
// and what recovering from them cost.
type Burst struct {
	// Slot is the absolute slot at which the burst fired.
	Slot int
	// Faults summarizes the accumulated failure state after the burst.
	Faults string
	// Lost counts messages this burst disconnected for good.
	Lost int
	// Degree is the multiplexing degree of the recompiled schedule
	// (0 when nothing remained to recompile).
	Degree int
	// Stall is the recovery latency: detection + recompilation + register
	// reload, in slots.
	Stall int
	// Verified is the number of circuits the optics light trace confirmed
	// in the recompiled schedule.
	Verified int
	// FallbackFlits is the number of flits the predetermined fallback
	// moved during this burst's stall (0 unless Options.Fallback).
	FallbackFlits int
}

// Recovery reports a compiled-communication phase run through a failure
// plan: the healthy baseline, each recovery episode, and the end-to-end
// degraded outcome.
type Recovery struct {
	// HealthyTime and HealthyDegree describe the fault-free phase.
	HealthyTime   int
	HealthyDegree int
	// Bursts holds one entry per distinct fault slot that fired while
	// traffic was still pending.
	Bursts []Burst
	// Finish is each message's absolute delivery slot (0 = never
	// delivered), indexed like the input messages.
	Finish []int
	// Delivered and Lost partition the messages. Lost counts only
	// messages with no surviving route — the differential guarantee is
	// that everything deliverable is delivered.
	Delivered int
	Lost      int
	// DegradedDegree is the degree of the last recompiled schedule (the
	// healthy degree if no recompilation happened).
	DegradedDegree int
	// StallSlots sums the recovery stalls across bursts.
	StallSlots int
	// FallbackFlits sums the fallback-served flits across bursts.
	FallbackFlits int
	// TotalTime is the slot of the last delivery.
	TotalTime int
}

// Recompile compiles the surviving requests on a masked topology, lowers
// the schedule to switch programs, and verifies every circuit by tracing
// light through the programmed switches. This is the full recovery path a
// real host would run: the light trace is the proof that the degraded
// schedule drives the surviving hardware correctly.
func Recompile(m *Masked, reqs request.Set, sch schedule.Scheduler) (*schedule.Result, *switchprog.Program, error) {
	if sch == nil {
		sch = schedule.Coloring{}
	}
	res, err := sch.Schedule(m, reqs)
	if err != nil {
		return nil, nil, fmt.Errorf("fault: recompile on %s: %w", m.Name(), err)
	}
	prog, err := switchprog.Compile(res)
	if err != nil {
		return nil, nil, fmt.Errorf("fault: lowering recompiled schedule: %w", err)
	}
	if _, err := optics.NewTracer(prog).VerifySchedule(res.Configs); err != nil {
		return nil, nil, fmt.Errorf("fault: light trace of recompiled schedule: %w", err)
	}
	return res, prog, nil
}

// RecoverCompiled runs one compiled communication phase through a failure
// plan. The phase starts on the healthy compiled schedule; at each fault
// slot the run is interrupted, newly disconnected messages are written off,
// the surviving traffic is recompiled on the masked topology (and verified
// by light trace), the clock pays the detect+compile+reload stall —
// optionally overlapped with predetermined-fallback delivery — and the
// remaining flits resume on the degraded schedule.
//
// This is the compiled counterpart of (*sim.Simulator).RunFaulted: the
// dynamic protocol absorbs a failure with retries and reroutes, compiled
// communication pays an explicit recompilation. FaultTable in
// internal/experiments puts the two side by side.
func RecoverCompiled(top network.Topology, msgs []sim.Message, plan []Event, opt Options) (*Recovery, error) {
	pattern := patternOf(msgs)
	sched, err := opt.scheduler().Schedule(top, pattern)
	if err != nil {
		return nil, fmt.Errorf("fault: healthy compile: %w", err)
	}
	cs := sim.NewCompiledSim()
	healthy, err := cs.Run(sched, msgs, sim.TDM)
	if err != nil {
		return nil, err
	}
	rec := &Recovery{
		HealthyTime:    healthy.Time,
		HealthyDegree:  sched.Degree(),
		DegradedDegree: sched.Degree(),
		Finish:         make([]int, len(msgs)),
	}

	// Work in (message, original index) pairs so finishes land in the
	// caller's index space however many times the pending set shrinks.
	cur := append([]sim.Message(nil), msgs...)
	idx := make([]int, len(msgs))
	for i := range idx {
		idx[i] = i
	}
	curSched := sched
	clock := 0
	faults := NewSet()

	for _, burst := range burstsOf(plan) {
		if len(cur) == 0 {
			break
		}
		local := burst.slot - clock
		if local < 0 {
			local = 0 // a fault landed inside the previous stall; it applies at resume
		}
		var out sim.CompiledResult
		rem, err := cs.RunUntil(curSched, cur, sim.TDM, local, &out)
		if err != nil {
			return nil, err
		}
		if rem == nil {
			// Everything pending was delivered before the burst fired.
			for i := range cur {
				rec.Finish[idx[i]] = clock + out.Finish[i]
			}
			cur, idx = nil, nil
			break
		}
		for _, e := range burst.events {
			faults.Apply(e)
		}
		// The Set keeps accumulating across bursts; the masked view must be
		// immutable once routed (its route table memoizes what it routed),
		// so each burst masks its own snapshot.
		masked := NewMasked(top, faults.Clone())

		b := Burst{Slot: clock + local, Faults: masked.Faults.String()}
		var pend []sim.Message
		var pendIdx []int
		for i := range cur {
			if rem[i] == 0 {
				rec.Finish[idx[i]] = clock + out.Finish[i]
				continue
			}
			m := cur[i]
			m.Flits = rem[i]
			m.Start = m.Start - local
			if m.Start < 0 {
				m.Start = 0
			}
			if _, rerr := network.CachedRoute(masked, nodeID(m.Src), nodeID(m.Dst)); rerr != nil {
				if errors.Is(rerr, network.ErrNoRoute) {
					b.Lost++
					rec.Lost++
					continue
				}
				return nil, rerr
			}
			pend = append(pend, m)
			pendIdx = append(pendIdx, idx[i])
		}
		clock += local
		if len(pend) == 0 {
			cur, idx = nil, nil
			rec.Bursts = append(rec.Bursts, b)
			break
		}

		newSched, _, err := Recompile(masked, patternOf(pend), opt.Scheduler)
		if err != nil {
			return nil, fmt.Errorf("fault: burst at slot %d: %w", b.Slot, err)
		}
		b.Degree = newSched.Degree()
		b.Stall = opt.DetectSlots + opt.CompileSlots + opt.reconfig().Cost(newSched.Degree())

		if opt.Fallback && b.Stall > 0 {
			pend, pendIdx, err = rec.serveFallback(&b, top, faults, pend, pendIdx, clock)
			if err != nil {
				return nil, err
			}
		}
		b.Verified = newSched.NumRequests()
		clock += b.Stall
		rec.StallSlots += b.Stall
		rec.FallbackFlits += b.FallbackFlits
		rec.DegradedDegree = newSched.Degree()
		rec.Bursts = append(rec.Bursts, b)
		cur, idx, curSched = pend, pendIdx, newSched
	}

	if len(cur) > 0 {
		var out sim.CompiledResult
		if err := cs.RunInto(curSched, cur, sim.TDM, &out); err != nil {
			return nil, err
		}
		for i := range cur {
			rec.Finish[idx[i]] = clock + out.Finish[i]
		}
	}
	for _, f := range rec.Finish {
		if f > 0 {
			rec.Delivered++
			if f > rec.TotalTime {
				rec.TotalTime = f
			}
		}
	}
	return rec, nil
}

// serveFallback models the SWOT overlap: during the stall the predetermined
// all-to-all fallback of the healthy topology carries one flit per frame
// for every pending message whose healthy route survives the failure set.
// Messages fully drained by the fallback are delivered at the end of the
// stall. Returns the still-pending messages.
func (rec *Recovery) serveFallback(b *Burst, top network.Topology, faults *Set, pend []sim.Message, pendIdx []int, clock int) ([]sim.Message, []int, error) {
	dec, err := schedule.DecompositionFor(top)
	if err != nil {
		// No predetermined fallback exists for this topology; the stall is
		// simply dead time.
		return pend, pendIdx, nil
	}
	quota := b.Stall / dec.NumPhases()
	if quota == 0 {
		return pend, pendIdx, nil
	}
	outMsgs := pend[:0]
	outIdx := pendIdx[:0]
	for i, m := range pend {
		p, rerr := network.CachedRoute(top, nodeID(m.Src), nodeID(m.Dst))
		if rerr == nil && !faults.BlocksPath(top, p) && m.Start == 0 {
			moved := quota
			if moved > m.Flits {
				moved = m.Flits
			}
			m.Flits -= moved
			b.FallbackFlits += moved
			if m.Flits == 0 {
				rec.Finish[pendIdx[i]] = clock + b.Stall
				continue
			}
		}
		outMsgs = append(outMsgs, m)
		outIdx = append(outIdx, pendIdx[i])
	}
	return outMsgs, outIdx, nil
}

// patternOf extracts the deduplicated request set of a message list.
func patternOf(msgs []sim.Message) request.Set {
	var set request.Set
	for _, m := range msgs {
		set = append(set, request.Request{Src: nodeID(m.Src), Dst: nodeID(m.Dst)})
	}
	return set.Dedup()
}

// burst groups the plan events that fire at one slot.
type burstGroup struct {
	slot   int
	events []Event
}

// burstsOf splits a plan into per-slot bursts, in slot order (stable for
// equal slots, so plans replay deterministically whatever their order).
func burstsOf(plan []Event) []burstGroup {
	if len(plan) == 0 {
		return nil
	}
	sorted := append([]Event(nil), plan...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Slot < sorted[j].Slot })
	var out []burstGroup
	for _, e := range sorted {
		if n := len(out); n > 0 && out[n-1].slot == e.Slot {
			out[n-1].events = append(out[n-1].events, e)
		} else {
			out = append(out, burstGroup{slot: e.Slot, events: []Event{e}})
		}
	}
	return out
}

// SimPlan expands an injection plan into the dynamic simulator's
// link-centric fault events: node faults become whole-link faults over
// every link touching the dead switch, channel faults carry their mask.
func SimPlan(t network.Topology, plan []Event) []sim.FaultEvent {
	var out []sim.FaultEvent
	for _, e := range plan {
		switch e.Kind {
		case LinkFault:
			out = append(out, sim.FaultEvent{Slot: e.Slot, Link: e.Link})
		case ChannelFault:
			out = append(out, sim.FaultEvent{Slot: e.Slot, Link: e.Link, Mask: e.Channels})
		case NodeFault:
			for id := 0; id < t.NumLinks(); id++ {
				li := t.Link(network.LinkID(id))
				if li.From == e.Node || li.To == e.Node {
					out = append(out, sim.FaultEvent{Slot: e.Slot, Link: li.ID})
				}
			}
		}
	}
	return out
}

func nodeID(i int) network.NodeID { return network.NodeID(i) }
