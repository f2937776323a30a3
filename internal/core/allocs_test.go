package core

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// TestPlanOverlapAllocs bounds the allocations of pricing the overlap plan
// of ccbench's overlap/plan/p3m64 program: P3M's five phases on the 8x8
// torus, every boundary a keep/patch/recompile decision. While the
// compiled engine stepped slots and the register delta built a map of
// sorted circuit sets per schedule, one plan took 70,206 allocations
// (go1.24, linux/amd64); the closed form and the flat delta table bring it
// near 600. The bound is 1% of the old count.
func TestPlanOverlapAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	phases, err := apps.P3M(32)
	if err != nil {
		t.Fatal(err)
	}
	prog := Program{Name: "p3m-32"}
	for _, ph := range phases {
		prog.Phases = append(prog.Phases, Phase{Name: ph.Name, Messages: ph.Messages})
	}
	cp, err := Compiler{Topology: topology.NewTorus(8, 8), Scheduler: schedule.Combined{}}.Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := cp.PlanOverlap(DefaultReconfigCost); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("PlanOverlap(p3m64): %.0f allocs/run", allocs)
	if allocs > 702 {
		t.Fatalf("PlanOverlap(p3m64) took %.0f allocations, bound 702", allocs)
	}
}
