package core

import (
	"fmt"

	"repro/internal/delta"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/switchprog"
)

// Decision is the per-phase-boundary reconfiguration choice: keep the
// running circuits, patch them incrementally, or load a freshly compiled
// schedule.
type Decision string

const (
	// DecisionKeep reuses the previous phase's schedule verbatim: its
	// circuits already cover the pattern, so no register is written and no
	// barrier is paid.
	DecisionKeep Decision = "keep"
	// DecisionPatch routes through internal/delta: only registers whose
	// (switch, slot) circuit set changed are rewritten.
	DecisionPatch Decision = "patch"
	// DecisionRecompile loads the phase's scratch-compiled schedule.
	DecisionRecompile Decision = "recompile"
)

// BoundaryEval is the outcome of evaluating one phase boundary: the chosen
// schedule and its predicted accounting under the overlap model.
type BoundaryEval struct {
	Decision Decision
	// Schedule is the chosen schedule for the incoming phase.
	Schedule *schedule.Result
	// Load is the register writes the choice requires.
	Load sim.PhaseLoad
	// Stall is the predicted overlap-aware reconfiguration stall.
	Stall int
	// Hidden is the stall hidden under the previous phase's communication.
	Hidden int
	// SerializedStall is the same load charged with no overlap.
	SerializedStall int
	// Comm is the phase's simulated communication time on Schedule.
	Comm int
	// Baseline is what the paper's model charges the phase when it is
	// compiled and loaded independently: ReconfigCost.Cost of the scratch
	// schedule's degree plus the scratch schedule's communication time.
	Baseline int
}

// Slots is the predicted cost the decision minimizes: stall plus
// communication.
func (b BoundaryEval) Slots() int { return b.Stall + b.Comm }

// evalCandidate prices one candidate schedule for a boundary; engine and
// out are scratch shared by a boundary's candidates.
func evalCandidate(engine *sim.CompiledSim, out *sim.CompiledResult, prev *schedule.Result, prevComm int, cand *schedule.Result, msgs []sim.Message, rc ReconfigCost) (BoundaryEval, error) {
	load, err := sim.RegisterDelta(prev, cand)
	if err != nil {
		return BoundaryEval{}, err
	}
	stall, hidden, err := sim.OverlapStall(prev, prevComm, load, rc.PerSlot, rc.Barrier)
	if err != nil {
		return BoundaryEval{}, err
	}
	if err := engine.RunInto(cand, msgs, sim.TDM, out); err != nil {
		return BoundaryEval{}, err
	}
	return BoundaryEval{
		Schedule:        cand,
		Load:            load,
		Stall:           stall,
		Hidden:          hidden,
		SerializedStall: sim.SerializedStall(load, rc.PerSlot, rc.Barrier),
		Comm:            out.Time,
	}, nil
}

// covers reports whether a schedule assigns a slot to every message's
// connection.
func covers(res *schedule.Result, msgs []sim.Message) bool {
	for _, m := range msgs {
		if _, ok := res.Slot[m.Request()]; !ok {
			return false
		}
	}
	return true
}

// PatchWorthwhile is the gate in front of the patch candidate: patching is
// only meaningful when the incoming pattern is mostly the running one — the
// same half-size cutoff the store's nearest-base lookup uses. Beyond it the
// "touched registers" advantage is gone by construction and first-fit
// insertion only degrades quality. A zero diff needs no patch (keep covers
// it).
func PatchWorthwhile(prev *schedule.Result, target request.Set) bool {
	if prev == nil {
		return false
	}
	d := delta.Compute(delta.Requests(prev), target)
	return d.Size() > 0 && d.Size()*2 <= len(target)
}

// ChooseSchedule decides keep/patch/recompile for the phase boundary from a
// running schedule prev (whose phase communicated for prevComm slots) into
// the phase carrying msgs. scratch is the phase's scratch-compiled schedule
// (the recompile candidate — callers that resolve schedules through a store
// pass whatever they resolved). Candidates are priced with the overlap
// model (register delta, idle-slot hiding, barrier) plus the simulated
// communication time on the candidate's schedule, and the cheapest wins;
// ties break toward keep, then patch, so the decision is deterministic.
//
// prev == nil (cold start) always recompiles.
func ChooseSchedule(prev *schedule.Result, prevComm int, msgs []sim.Message, scratch *schedule.Result, rc ReconfigCost) (BoundaryEval, error) {
	var patched *schedule.Result
	if prev != nil && PatchWorthwhile(prev, requestsOf(msgs)) {
		// Patch failures (unroutable insertions on a masked view,
		// degenerate bases) just drop the candidate — recompile always
		// remains available.
		if q, _, err := delta.Patch(prev, prev.Topology, requestsOf(msgs)); err == nil {
			patched = q
		}
	}
	return ChooseFrom(prev, prevComm, msgs, scratch, patched, rc)
}

// ChooseFrom is ChooseSchedule with a caller-supplied patch candidate —
// the /session serving path produces it through a live delta.Session
// (byte-identical to delta.Patch, cheaper across a stream of boundaries)
// and hands it in here. patched may be nil to drop the candidate.
func ChooseFrom(prev *schedule.Result, prevComm int, msgs []sim.Message, scratch, patched *schedule.Result, rc ReconfigCost) (BoundaryEval, error) {
	if scratch == nil {
		return BoundaryEval{}, fmt.Errorf("core: ChooseSchedule needs a scratch schedule")
	}
	if len(msgs) == 0 {
		return BoundaryEval{}, fmt.Errorf("core: ChooseSchedule: phase has no messages")
	}
	engine := sim.NewCompiledSim()
	var out sim.CompiledResult
	recomp, err := evalCandidate(engine, &out, prev, prevComm, scratch, msgs, rc)
	if err != nil {
		return BoundaryEval{}, fmt.Errorf("core: pricing recompile: %w", err)
	}
	recomp.Decision = DecisionRecompile
	baseline := rc.Cost(scratch.Degree()) + recomp.Comm
	recomp.Baseline = baseline
	if prev == nil {
		return recomp, nil
	}
	best := recomp
	if patched != nil {
		pe, err := evalCandidate(engine, &out, prev, prevComm, patched, msgs, rc)
		if err != nil {
			return BoundaryEval{}, fmt.Errorf("core: pricing patch: %w", err)
		}
		pe.Decision = DecisionPatch
		if pe.Slots() < best.Slots() || (pe.Slots() == best.Slots() && best.Decision == DecisionRecompile) {
			best = pe
		}
	}
	if covers(prev, msgs) {
		ke, err := evalCandidate(engine, &out, prev, prevComm, prev, msgs, rc)
		if err != nil {
			return BoundaryEval{}, fmt.Errorf("core: pricing keep: %w", err)
		}
		ke.Decision = DecisionKeep
		if ke.Slots() <= best.Slots() {
			best = ke
		}
	}
	best.Baseline = baseline
	return best, nil
}

// SameMessages reports whether two phases carry the identical message
// list — the unchanged-boundary test gating KeepUnchanged.
func SameMessages(a, b []sim.Message) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// KeepUnchanged is the fast path for a boundary whose message list is
// identical to the running phase's: the running schedule serves the exact
// pattern it was just serving, so it is kept with zero register writes and
// the phase repeats the previous communication time — no scratch compile
// or patch candidate is priced at all. This is where a multi-phase serving
// path recovers the paper's amortization: iterative programs (collectives,
// stencil loops) repeat a phase many times and pay compilation once.
// Baseline charges what serving the phase independently would: a full
// register load of the kept schedule plus its communication time.
func KeepUnchanged(prev *schedule.Result, prevComm int, rc ReconfigCost) BoundaryEval {
	return BoundaryEval{
		Decision: DecisionKeep,
		Schedule: prev,
		Comm:     prevComm,
		Baseline: rc.Cost(prev.Degree()) + prevComm,
	}
}

func requestsOf(msgs []sim.Message) request.Set {
	set := make(request.Set, len(msgs))
	for i, m := range msgs {
		set[i] = m.Request()
	}
	return set.Dedup()
}

// PlannedPhase is one phase of an overlap-aware execution plan.
type PlannedPhase struct {
	Name     string
	Decision Decision
	Schedule *schedule.Result
	Program  *switchprog.Program
	// Stall/Hidden/SerializedStall/Comm are the phase's accounting from
	// the authoritative sim.RunProgram pass over the chosen schedules.
	Stall           int
	Hidden          int
	SerializedStall int
	Comm            int
}

// OverlapPlan is a compiled program's overlap-aware execution plan: per
// boundary the keep/patch/recompile choice, and the iteration accounting
// under overlapped vs serialized register loading.
type OverlapPlan struct {
	Phases []PlannedPhase
	// Total is the overlap-aware iteration time (stall + comm summed).
	Total int
	// Serialized charges the same chosen schedules with serialized
	// register loading — the schedules and message delivery are identical,
	// only stall accounting differs.
	Serialized int
	// Baseline is the paper's model: every phase loads its scratch
	// schedule fully (ReconfigCost.Cost(degree)), i.e. IterationTime.
	Baseline int
}

// PlanOverlap runs the keep/patch/recompile decision over every phase
// boundary of the compiled program and prices the resulting plan with the
// sim-level accounting path. The first phase always pays its cold-start
// load serialized.
func (cp *CompiledProgram) PlanOverlap(rc ReconfigCost) (*OverlapPlan, error) {
	if len(cp.Phases) == 0 {
		return nil, fmt.Errorf("core: empty compiled program")
	}
	plan := &OverlapPlan{Phases: make([]PlannedPhase, len(cp.Phases))}
	specs := make([]sim.PhaseSpec, len(cp.Phases))
	var prev *schedule.Result
	var prevProg *switchprog.Program
	prevComm := 0
	for i := range cp.Phases {
		ph := &cp.Phases[i]
		var ev BoundaryEval
		var err error
		switch {
		case i == 0:
			ev, err = ChooseSchedule(nil, 0, ph.Phase.Messages, ph.Schedule, rc)
		case SameMessages(ph.Phase.Messages, cp.Phases[i-1].Phase.Messages):
			ev = KeepUnchanged(prev, prevComm, rc)
		default:
			ev, err = ChooseSchedule(prev, prevComm, ph.Phase.Messages, ph.Schedule, rc)
		}
		if err != nil {
			return nil, fmt.Errorf("core: phase %q: %w", ph.Phase.Name, err)
		}
		pp := PlannedPhase{Name: ph.Phase.Name, Decision: ev.Decision, Schedule: ev.Schedule}
		switch ev.Decision {
		case DecisionKeep:
			pp.Program = prevProg
		case DecisionRecompile:
			pp.Program = ph.Program
		default:
			sp, err := switchprog.Compile(ev.Schedule)
			if err != nil {
				return nil, fmt.Errorf("core: phase %q: lowering patched schedule: %w", ph.Phase.Name, err)
			}
			pp.Program = sp
		}
		plan.Phases[i] = pp
		specs[i] = sim.PhaseSpec{Schedule: ev.Schedule, Messages: ph.Phase.Messages}
		prev, prevProg, prevComm = ev.Schedule, pp.Program, ev.Comm
	}
	run, err := sim.RunProgram(specs, rc.PerSlot, rc.Barrier, true)
	if err != nil {
		return nil, fmt.Errorf("core: pricing plan: %w", err)
	}
	for i, c := range run.Costs {
		plan.Phases[i].Stall = c.Stall
		plan.Phases[i].Hidden = c.Hidden
		plan.Phases[i].SerializedStall = c.SerializedStall
		plan.Phases[i].Comm = c.Comm
	}
	plan.Total = run.Total
	plan.Serialized = run.Serialized
	baseline, _, err := cp.IterationTime(rc)
	if err != nil {
		return nil, err
	}
	plan.Baseline = baseline
	return plan, nil
}

// Specs returns the plan's phases as sim.PhaseSpecs, the input of the
// sim-level accounting path (and of the overlapped-vs-serialized
// differential tests).
func (p *OverlapPlan) Specs(prog Program) []sim.PhaseSpec {
	specs := make([]sim.PhaseSpec, len(p.Phases))
	for i := range p.Phases {
		specs[i] = sim.PhaseSpec{Schedule: p.Phases[i].Schedule, Messages: prog.Phases[i].Messages}
	}
	return specs
}

// IterationTimeOverlapped is IterationTime under the overlap model: the
// same per-phase schedules (no keep/patch decisions), but register loads
// for phase i+1 that target switches idle in phase i's TDM slots are
// charged overlapped, with the barrier only on the non-hidden remainder.
// The breakdown pairs are (stall, comm) per phase.
func (cp *CompiledProgram) IterationTimeOverlapped(rc ReconfigCost) (total int, breakdown [][2]int, err error) {
	specs := make([]sim.PhaseSpec, len(cp.Phases))
	for i := range cp.Phases {
		specs[i] = sim.PhaseSpec{Schedule: cp.Phases[i].Schedule, Messages: cp.Phases[i].Phase.Messages}
	}
	run, err := sim.RunProgram(specs, rc.PerSlot, rc.Barrier, true)
	if err != nil {
		return 0, nil, fmt.Errorf("core: %w", err)
	}
	breakdown = make([][2]int, len(run.Costs))
	for i, c := range run.Costs {
		breakdown[i] = [2]int{c.Stall, c.Comm}
	}
	return run.Total, breakdown, nil
}
