// Compiler: the full compiled-communication pipeline on a whole program.
// A miniature data-parallel program is written in the frontend IR; the
// frontend recognizes each statement's communication pattern (the paper's
// "pattern recognition" stage), the core compiler schedules every phase at
// its own minimal multiplexing degree and lowers it to switch programs, an
// optical tracer verifies the registers physically deliver each circuit,
// and the simulator prices one program iteration including reconfiguration.
//
// Run with: go run ./examples/compiler
package main

import (
	"fmt"
	"log"
	"os"
	"text/tabwriter"

	"repro/internal/core"
	"repro/internal/frontend"
	"repro/internal/optics"
	"repro/internal/redist"
	"repro/internal/topology"
)

func main() {
	// An ADI-style solver: a 256x256x1 grid swept in x (rows distributed),
	// transposed by redistribution, swept in y, transposed back — plus an
	// input-dependent gather the compiler cannot analyze.
	byRows, err := redist.NewDist([3]redist.DimDist{{P: 64, B: 4}, {P: 1, B: 256}, {P: 1, B: 1}})
	must(err)
	byCols, err := redist.NewDist([3]redist.DimDist{{P: 1, B: 256}, {P: 64, B: 4}, {P: 1, B: 1}})
	must(err)

	prog := frontend.Program{
		Name: "adi",
		PEs:  64,
		Arrays: []frontend.Array{
			{Name: "u", Shape: [3]int{256, 256, 1}, Dist: byRows},
		},
		Stmts: []frontend.Stmt{
			frontend.ShiftRef{Name: "x-sweep", Array: "u", Offsets: [][3]int{{-1, 0, 0}, {1, 0, 0}}},
			frontend.Redistribute{Name: "transpose", Array: "u", To: byCols},
			frontend.ShiftRef{Name: "y-sweep", Array: "u", Offsets: [][3]int{{0, -1, 0}, {0, 1, 0}}},
			frontend.Redistribute{Name: "transpose-back", Array: "u", To: byRows},
			frontend.IrregularRef{Name: "refine", Array: "u"},
		},
	}

	extracted, err := frontend.Extract(prog, frontend.Options{})
	must(err)
	pf, mf := frontend.StaticFraction(extracted)
	fmt.Printf("program %q: %d communication phases recognized\n", extracted.Name, len(extracted.Phases))
	fmt.Printf("static fraction: %.0f%% of phases, %.1f%% of messages (paper cites >95%% static)\n\n",
		100*pf, 100*mf)

	torus := topology.NewTorus(8, 8)
	cp, err := core.Compiler{Topology: torus}.Compile(extracted)
	must(err)

	w := tabwriter.NewWriter(os.Stdout, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "phase\tkind\tconns\tdegree\tregister entries\t")
	for i := range cp.Phases {
		ph := &cp.Phases[i]
		kind := "static"
		if ph.UsedFallback {
			kind = "dynamic->AAPC"
		}
		// Physically verify the compiled registers with the light tracer.
		tracer := optics.NewTracer(ph.Program)
		if _, err := tracer.VerifySchedule(ph.Schedule.Configs); err != nil {
			log.Fatalf("phase %s: optical verification failed: %v", ph.Phase.Name, err)
		}
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t%d\t\n",
			ph.Phase.Name, kind, len(ph.Phase.Messages), ph.Degree(), ph.Program.ActiveEntries())
	}
	must(w.Flush())
	fmt.Println("\nall circuits verified by tracing light through the compiled registers")

	total, breakdown, err := cp.IterationTime(core.DefaultReconfigCost)
	must(err)
	fmt.Printf("\none iteration: %d slots total\n", total)
	for i, ph := range cp.Phases {
		fmt.Printf("  %-15s reconfigure %3d + communicate %5d\n",
			ph.Phase.Name, breakdown[i][0], breakdown[i][1])
	}
	ten, err := cp.ProgramTime(10, core.DefaultReconfigCost)
	must(err)
	fmt.Printf("ten iterations: %d slots (reconfiguration at every phase boundary)\n", ten)
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
