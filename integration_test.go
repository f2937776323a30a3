package ccomm_test

// End-to-end integration tests that cross every module boundary: frontend
// IR -> pattern extraction -> scheduling -> switch-program lowering ->
// optical verification -> simulation, plus compiled-vs-dynamic consistency
// on the public API.

import (
	"math/rand"
	"testing"

	ccomm "repro"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/network"
	"repro/internal/optics"
	"repro/internal/redist"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/switchprog"
	"repro/internal/topology"
)

// TestPipelineWholeProgram drives the complete compiled-communication
// pipeline for a multi-phase program and checks cross-module invariants at
// every stage.
func TestPipelineWholeProgram(t *testing.T) {
	byRows, err := redist.NewDist([3]redist.DimDist{{P: 64, B: 2}, {P: 1, B: 128}, {P: 1, B: 1}})
	if err != nil {
		t.Fatal(err)
	}
	byCols, err := redist.NewDist([3]redist.DimDist{{P: 1, B: 128}, {P: 64, B: 2}, {P: 1, B: 1}})
	if err != nil {
		t.Fatal(err)
	}
	prog := frontend.Program{
		Name:   "integration",
		PEs:    64,
		Arrays: []frontend.Array{{Name: "u", Shape: [3]int{128, 128, 1}, Dist: byRows}},
		Stmts: []frontend.Stmt{
			frontend.ShiftRef{Name: "sweep", Array: "u", Offsets: [][3]int{{-1, 0, 0}, {1, 0, 0}}},
			frontend.Redistribute{Name: "transpose", Array: "u", To: byCols},
			frontend.IrregularRef{Name: "gather", Array: "u"},
		},
	}
	extracted, err := frontend.Extract(prog, frontend.Options{})
	if err != nil {
		t.Fatal(err)
	}

	torus := topology.NewTorus(8, 8)
	cp, err := core.Compiler{Topology: torus}.Compile(extracted)
	if err != nil {
		t.Fatal(err)
	}
	for i := range cp.Phases {
		ph := &cp.Phases[i]
		// Schedule validity against the phase's own request set; the AAPC
		// fallback covers a superset of the phase's requests, so it is
		// validated against the union of its own configurations instead
		// (checking conflict-freeness and the partition structure).
		if ph.UsedFallback {
			var covered ccomm.RequestSet
			for _, cfg := range ph.Schedule.Configs {
				covered = append(covered, cfg...)
			}
			if err := ph.Schedule.Validate(covered); err != nil {
				t.Fatalf("phase %s: fallback: %v", ph.Phase.Name, err)
			}
		} else {
			if err := ph.Schedule.Validate(ph.Phase.Requests()); err != nil {
				t.Fatalf("phase %s: %v", ph.Phase.Name, err)
			}
		}
		// Lowered registers must deliver every scheduled circuit,
		// physically.
		tracer := optics.NewTracer(ph.Program)
		if _, err := tracer.VerifySchedule(ph.Schedule.Configs); err != nil {
			t.Fatalf("phase %s: %v", ph.Phase.Name, err)
		}
		// Every slot's physically realized configuration must be exactly
		// the scheduled one.
		for slot, cfg := range ph.Schedule.Configs {
			census, err := tracer.SlotCensus(slot)
			if err != nil {
				t.Fatalf("phase %s slot %d: %v", ph.Phase.Name, slot, err)
			}
			if len(census) != len(cfg) {
				t.Fatalf("phase %s slot %d: %d circuits live, %d scheduled",
					ph.Phase.Name, slot, len(census), len(cfg))
			}
		}
		// Simulation must complete and respect the degree-time relation.
		out, err := sim.RunCompiled(ph.Schedule, ph.Phase.Messages)
		if err != nil {
			t.Fatalf("phase %s: %v", ph.Phase.Name, err)
		}
		maxFlits := 0
		for _, m := range ph.Phase.Messages {
			if m.Flits > maxFlits {
				maxFlits = m.Flits
			}
		}
		if out.Time > ph.Degree()*maxFlits {
			t.Fatalf("phase %s: time %d exceeds degree*maxFlits %d",
				ph.Phase.Name, out.Time, ph.Degree()*maxFlits)
		}
	}
}

// TestCompiledBeatsDynamicAcrossWorkloads is the paper's headline claim,
// asserted end to end over every application workload at every fixed
// degree.
func TestCompiledBeatsDynamicAcrossWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	torus := topology.NewTorus(8, 8)
	var phases []apps.Phase
	gs, err := apps.GS(64, 64)
	if err != nil {
		t.Fatal(err)
	}
	tscf, err := apps.TSCF(64)
	if err != nil {
		t.Fatal(err)
	}
	p3m, err := apps.P3M(32)
	if err != nil {
		t.Fatal(err)
	}
	phases = append(phases, gs, tscf)
	phases = append(phases, p3m...)
	for _, ph := range phases {
		pattern := ph.Pattern().Dedup()
		res, err := schedule.Combined{}.Schedule(torus, pattern)
		if err != nil {
			t.Fatalf("%s: %v", ph.Name, err)
		}
		if err := res.Validate(pattern); err != nil {
			t.Fatalf("%s: schedule invalid: %v", ph.Name, err)
		}
		comp, err := sim.RunCompiled(res, ph.Messages)
		if err != nil {
			t.Fatalf("%s: %v", ph.Name, err)
		}
		for _, k := range []int{1, 2, 5, 10} {
			dyn, err := sim.Dynamic{Topology: torus, Params: sim.DefaultParams(k)}.Run(ph.Messages)
			if err != nil {
				t.Fatalf("%s K=%d: %v", ph.Name, k, err)
			}
			if dyn.TimedOut {
				t.Fatalf("%s K=%d timed out", ph.Name, k)
			}
			if dyn.Time <= comp.Time {
				t.Errorf("%s K=%d: dynamic %d not slower than compiled %d",
					ph.Name, k, dyn.Time, comp.Time)
			}
		}
	}
}

// TestPublicAPISwitchProgramsAreTraceable: the facade's compiled phases
// carry registers an optical trace can verify.
func TestPublicAPISwitchProgramsAreTraceable(t *testing.T) {
	comp := ccomm.Compiler{Topology: ccomm.NewTorus8x8()}
	rng := rand.New(rand.NewSource(99))
	set, err := ccomm.RandomPattern(rng, 64, 600)
	if err != nil {
		t.Fatal(err)
	}
	phase, err := comp.Compile(set)
	if err != nil {
		t.Fatal(err)
	}
	if err := phase.Schedule.Validate(set.Dedup()); err != nil {
		t.Fatalf("schedule invalid: %v", err)
	}
	tracer := optics.NewTracer(phase.Program)
	n, err := tracer.VerifySchedule(phase.Schedule.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if n != 600 {
		t.Errorf("verified %d circuits", n)
	}
}

// TestSwitchprogMatchesOpticsOnEveryTopology cross-checks the two
// independent verifiers (route-following vs light-following).
func TestSwitchprogMatchesOpticsOnEveryTopology(t *testing.T) {
	topos := []ccomm.Topology{
		topology.NewTorus(4, 6),
		topology.NewTorus3D(3, 3, 3),
		topology.NewMesh(5, 3),
		topology.NewRing(9),
		topology.NewHypercube(5),
		topology.NewOmega(16),
	}
	rng := rand.New(rand.NewSource(7))
	for _, topo := range topos {
		n := network.TerminalCount(topo)
		set, err := ccomm.RandomPattern(rng, n, n*2)
		if err != nil {
			t.Fatal(err)
		}
		res, err := schedule.Combined{}.Schedule(topo, set)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if err := res.Validate(set); err != nil {
			t.Fatalf("%s: schedule invalid: %v", topo.Name(), err)
		}
		prog, err := switchprog.Compile(res)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		tracer := optics.NewTracer(prog)
		for r, slot := range res.Slot {
			if _, err := prog.CircuitPorts(r.Src, r.Dst, slot); err != nil {
				t.Fatalf("%s: switchprog: %v", topo.Name(), err)
			}
			dst, _, err := tracer.Trace(r.Src, slot)
			if err != nil {
				t.Fatalf("%s: optics: %v", topo.Name(), err)
			}
			if dst != r.Dst {
				t.Fatalf("%s: circuit %v lands at %d", topo.Name(), r, dst)
			}
		}
	}
}
