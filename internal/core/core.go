// Package core is the compiled-communication compiler: it takes the static
// communication structure of a parallel program — a sequence of
// communication phases, each a set of connection requests with message
// volumes — and produces everything the network needs at runtime: one
// connection schedule and one set of switch programs per phase, each with
// its own (minimal) multiplexing degree.
//
// This is the paper's central mechanism. Because the compiler controls the
// multiplexing degree, different phases of one program run at different
// degrees; reconfiguration happens only at phase boundaries (where compiled
// code rewrites the switch shift registers and synchronizes), not per
// message. Patterns the compiler cannot analyze fall back to a
// predetermined all-to-all configuration set, the paper's proposed strategy
// for dynamic patterns.
package core

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/switchprog"
)

// Phase is one communication phase of a program: a static pattern plus the
// per-connection message volumes (in flits).
type Phase struct {
	// Name identifies the phase for reports.
	Name string
	// Messages carries one entry per connection.
	Messages []sim.Message
	// Dynamic marks a phase whose pattern the compiler could not analyze;
	// it is served by the predetermined AAPC configuration set instead of a
	// pattern-specific schedule.
	Dynamic bool
}

// Requests returns the deduplicated request set of the phase.
func (p Phase) Requests() request.Set {
	set := make(request.Set, len(p.Messages))
	for i, m := range p.Messages {
		set[i] = request.Request{Src: network.NodeID(m.Src), Dst: network.NodeID(m.Dst)}
	}
	return set.Dedup()
}

// Program is a parallel program's communication structure, the input to the
// compiler. Phases execute in order, once per iteration of the program's
// main loop.
type Program struct {
	Name   string
	Phases []Phase
}

// CompiledPhase is the compiler's output for one phase.
type CompiledPhase struct {
	Phase    Phase
	Schedule *schedule.Result
	Program  *switchprog.Program
	// UsedFallback reports that the phase was served by the predetermined
	// AAPC configuration set (dynamic pattern handling).
	UsedFallback bool
}

// Degree returns the phase's multiplexing degree.
func (cp *CompiledPhase) Degree() int { return cp.Schedule.Degree() }

// CompiledProgram is the complete compiled communication plan of a program.
type CompiledProgram struct {
	Program Program
	Phases  []CompiledPhase
}

// Reconfigurations returns the number of network reconfigurations one
// iteration of the program performs: one per phase boundary (the registers
// are rewritten between phases; within a phase TDM cycles without control
// traffic).
func (cp *CompiledProgram) Reconfigurations() int { return len(cp.Phases) }

// MaxDegree returns the largest multiplexing degree any phase uses.
func (cp *CompiledProgram) MaxDegree() int {
	max := 0
	for i := range cp.Phases {
		if d := cp.Phases[i].Degree(); d > max {
			max = d
		}
	}
	return max
}

// Compiler compiles program communication structures for a topology.
type Compiler struct {
	// Topology the program will run on.
	Topology network.Topology
	// Scheduler computes per-phase schedules; nil means the paper's
	// combined algorithm.
	Scheduler schedule.Scheduler
}

// Compile produces the communication plan for a whole program: a schedule
// and switch program per static phase, and the shared AAPC fallback for
// dynamic phases.
func (c Compiler) Compile(prog Program) (*CompiledProgram, error) {
	if c.Topology == nil {
		return nil, fmt.Errorf("core: Compiler.Topology is nil")
	}
	sched := c.Scheduler
	if sched == nil {
		sched = schedule.Combined{}
	}
	out := &CompiledProgram{Program: prog}
	var fallback *schedule.Result
	for _, ph := range prog.Phases {
		if len(ph.Messages) == 0 {
			return nil, fmt.Errorf("core: phase %q has no messages", ph.Name)
		}
		var res *schedule.Result
		var err error
		used := false
		if ph.Dynamic {
			if fallback == nil {
				fallback, err = Fallback(c.Topology)
				if err != nil {
					return nil, fmt.Errorf("core: phase %q: %w", ph.Name, err)
				}
			}
			res = fallback
			used = true
		} else {
			res, err = sched.Schedule(c.Topology, ph.Requests())
			if err != nil {
				return nil, fmt.Errorf("core: phase %q: %w", ph.Name, err)
			}
		}
		sp, err := switchprog.Compile(res)
		if err != nil {
			return nil, fmt.Errorf("core: phase %q: %w", ph.Name, err)
		}
		out.Phases = append(out.Phases, CompiledPhase{
			Phase:        ph,
			Schedule:     res,
			Program:      sp,
			UsedFallback: used,
		})
	}
	return out, nil
}

// Fallback turns a topology's AAPC decomposition into a schedule covering
// every possible connection: the predetermined configuration set the paper
// proposes for patterns unknown at compile time. Every PE gets a slot to
// reach every other PE.
func Fallback(t network.Topology) (*schedule.Result, error) {
	set, err := schedule.DecompositionFor(t)
	if err != nil {
		return nil, err
	}
	configs := make([]request.Set, len(set.Phases))
	slot := make(map[request.Request]int)
	for k, phase := range set.Phases {
		configs[k] = phase.Clone()
		for _, r := range phase {
			slot[r] = k
		}
	}
	return &schedule.Result{
		Algorithm: "aapc-fallback",
		Topology:  t,
		Configs:   configs,
		Slot:      slot,
	}, nil
}

// PhaseSimulation summarizes one phase's simulated communication time under
// both control regimes.
type PhaseSimulation struct {
	Name         string
	Degree       int
	CompiledTime int
	DynamicTime  map[int]int // fixed degree -> time
}

// Simulate runs every phase of a compiled program under compiled
// communication and under dynamic control at the given fixed degrees.
func (cp *CompiledProgram) Simulate(t network.Topology, fixedDegrees []int, params func(degree int) sim.Params) ([]PhaseSimulation, error) {
	if params == nil {
		params = sim.DefaultParams
	}
	var out []PhaseSimulation
	for i := range cp.Phases {
		ph := &cp.Phases[i]
		comp, err := sim.RunCompiled(ph.Schedule, ph.Phase.Messages)
		if err != nil {
			return nil, fmt.Errorf("core: simulating %q compiled: %w", ph.Phase.Name, err)
		}
		ps := PhaseSimulation{
			Name:         ph.Phase.Name,
			Degree:       ph.Degree(),
			CompiledTime: comp.Time,
			DynamicTime:  make(map[int]int),
		}
		for _, k := range fixedDegrees {
			dyn, err := sim.Dynamic{Topology: t, Params: params(k)}.Run(ph.Phase.Messages)
			if err != nil {
				return nil, fmt.Errorf("core: simulating %q dynamic K=%d: %w", ph.Phase.Name, k, err)
			}
			ps.DynamicTime[k] = dyn.Time
		}
		out = append(out, ps)
	}
	return out, nil
}
