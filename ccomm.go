// Package ccomm is the public entry point of the compiled-communication
// library, a reproduction of "Compiled Communication for All-Optical TDM
// Networks" (Yuan, Melhem, Gupta — SC'96).
//
// The library answers two questions the paper studies:
//
//  1. Off-line connection scheduling: given a static communication pattern
//     and a switched all-optical topology, how few TDM configurations
//     (equivalently, how small a multiplexing degree) suffice to establish
//     every connection? See Compiler and the Algorithm constants.
//
//  2. Compiled vs. dynamic control: how long does a communication phase
//     take when circuits are compiled in ahead of time, compared to a
//     runtime path-reservation protocol on a fixed-degree network? See
//     CompiledPhase.Simulate and SimulateDynamic.
//
// A minimal session:
//
//	torus := ccomm.NewTorus8x8()
//	comp := ccomm.Compiler{Topology: torus, Algorithm: ccomm.Combined}
//	phase, err := comp.Compile(ccomm.RingPattern(64))
//	// phase.Degree() is the multiplexing degree;
//	// phase.Program holds the per-switch shift-register contents.
package ccomm

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/switchprog"
	"repro/internal/topology"
)

// Re-exported core types. The library's packages under internal/ hold the
// implementations; these aliases make the public surface self-contained.
type (
	// Request is a connection request (s, d).
	Request = request.Request
	// RequestSet is an ordered set of connection requests.
	RequestSet = request.Set
	// NodeID identifies a PE/switch pair.
	NodeID = network.NodeID
	// Topology is a switched network with deterministic routing.
	Topology = network.Topology
	// Schedule is a partition of a request set into conflict-free
	// configurations, one per TDM slot.
	Schedule = schedule.Result
	// SwitchProgram is the compiled control-register content of the
	// network for one communication phase.
	SwitchProgram = switchprog.Program
	// Message is a point-to-point transfer measured in flits.
	Message = sim.Message
	// SimParams are the simulator's system parameters.
	SimParams = sim.Params
)

// Algorithm selects a connection-scheduling heuristic.
type Algorithm string

// The paper's schedulers.
const (
	// Greedy is the first-fit algorithm of Fig. 2.
	Greedy Algorithm = "greedy"
	// Coloring is the conflict-graph coloring heuristic of Fig. 4.
	Coloring Algorithm = "coloring"
	// AAPC is the ordered all-to-all-based algorithm of Fig. 5.
	AAPC Algorithm = "aapc"
	// Combined runs Coloring and AAPC and keeps the better schedule; the
	// paper's compiler uses this.
	Combined Algorithm = "combined"
	// Exact is a branch-and-bound optimal scheduler for small request sets
	// (testing and gap measurement only).
	Exact Algorithm = "exact"
)

// scheduler returns the implementation of an Algorithm.
func (a Algorithm) scheduler() (schedule.Scheduler, error) {
	switch a {
	case Greedy:
		return schedule.Greedy{}, nil
	case Coloring:
		return schedule.Coloring{}, nil
	case AAPC:
		return schedule.OrderedAAPC{}, nil
	case Combined, "":
		return schedule.Combined{}, nil
	case Exact:
		return schedule.Exact{}, nil
	default:
		return nil, fmt.Errorf("ccomm: unknown algorithm %q", string(a))
	}
}

// NewTorus returns a w x h torus of 5x5 electro-optical crossbar switches.
func NewTorus(w, h int) *topology.Torus { return topology.NewTorus(w, h) }

// NewTorus8x8 returns the 8x8 torus used throughout the paper's evaluation.
func NewTorus8x8() *topology.Torus { return topology.NewTorus(8, 8) }

// NewLinear returns the linear array topology of the Fig. 3 example.
func NewLinear(n int) *topology.Linear { return topology.NewLinear(n) }

// Compiler compiles static communication patterns into TDM schedules and
// switch programs for a topology.
type Compiler struct {
	// Topology the code is compiled for.
	Topology Topology
	// Algorithm selects the scheduler; the zero value means Combined,
	// which is what the paper's compiler uses.
	Algorithm Algorithm
}

// CompiledPhase is the result of compiling one static communication phase:
// the connection schedule plus the lowered switch programs.
type CompiledPhase struct {
	Schedule *Schedule
	Program  *SwitchProgram
}

// Degree returns the phase's TDM multiplexing degree.
func (p *CompiledPhase) Degree() int { return p.Schedule.Degree() }

// Compile schedules the pattern and lowers it to switch programs.
func (c Compiler) Compile(reqs RequestSet) (*CompiledPhase, error) {
	if c.Topology == nil {
		return nil, fmt.Errorf("ccomm: Compiler.Topology is nil")
	}
	s, err := c.Algorithm.scheduler()
	if err != nil {
		return nil, err
	}
	res, err := s.Schedule(c.Topology, reqs.Dedup())
	if err != nil {
		return nil, err
	}
	prog, err := switchprog.Compile(res)
	if err != nil {
		return nil, err
	}
	return &CompiledPhase{Schedule: res, Program: prog}, nil
}

// Simulate runs the phase's messages under compiled communication: all
// circuits pre-established, every message streaming in its compiled slot
// from time 0. It returns the communication time in slots.
func (p *CompiledPhase) Simulate(msgs []Message) (*sim.CompiledResult, error) {
	return sim.RunCompiled(p.Schedule, msgs)
}

// SimulateDynamic runs the messages under runtime control: a distributed
// path-reservation protocol on a network with the fixed multiplexing degree
// of params.
func SimulateDynamic(t Topology, msgs []Message, params SimParams) (*sim.DynamicResult, error) {
	return sim.Dynamic{Topology: t, Params: params}.Run(msgs)
}

// DefaultSimParams returns the documented simulator defaults for a given
// fixed multiplexing degree.
func DefaultSimParams(degree int) SimParams { return sim.DefaultParams(degree) }

// MultiplexingDegree is a convenience that compiles the pattern with the
// given algorithm and reports only the resulting degree — the metric of
// Tables 1-3.
func MultiplexingDegree(t Topology, reqs RequestSet, a Algorithm) (int, error) {
	s, err := a.scheduler()
	if err != nil {
		return 0, err
	}
	res, err := s.Schedule(t, reqs.Dedup())
	if err != nil {
		return 0, err
	}
	return res.Degree(), nil
}
