// Command ccfault prints the fault-degradation table: how compiled
// communication and dynamic control degrade on a time-multiplexed fabric
// (the paper's 8x8 torus by default; any -topology spec, including the
// dragonfly and fat-tree families, works) as link failures accumulate
// mid-phase. The compiled side pays an
// explicit recompile-and-reload stall per failure burst (optionally
// overlapped with the predetermined AAPC fallback); the dynamic side pays
// reservation aborts, reroutes over the surviving links, and outright
// message loss when a pair is disconnected. The data comes from
// internal/experiments.FaultTable; this command only renders it.
//
// Usage:
//
//	ccfault                          # default table: 1,2,4,8 link faults
//	ccfault -faults 4,16,64 -trials 20
//	ccfault -fallback -detect 64 -compile 256
//	ccfault -alg combined -stride 5 -flits 64
//	ccfault -topology dragonfly:8,16,4 -faults 1,4,16
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/fault"
	"repro/internal/schedule"
	"repro/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// usageError is bad command-line input: exit status 2 instead of 1.
type usageError struct{ error }

// run parses args, prints the fault-degradation table to stdout and
// returns the exit status: 0, 1 for a failed run, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ccfault", flag.ContinueOnError)
	fs.SetOutput(stderr)
	faults := fs.String("faults", "1,2,4,8", "injected link-failure counts, one table row each")
	trials := fs.Int("trials", 50, "random fault plans averaged per row")
	seed := fs.Int64("seed", 1996, "fault plan seed")
	stride := fs.Int("stride", 9, "workload: shift-by-stride permutation")
	flits := fs.Int("flits", 32, "workload: flits per message")
	degree := fs.Int("degree", 0, "dynamic-control multiplexing degree (0 = match the healthy compiled degree)")
	maxSlot := fs.Int("maxslot", 0, "latest fault-injection slot (0 = half the healthy compiled time)")
	algName := fs.String("alg", "coloring", "recompilation scheduler: greedy, coloring, aapc, combined")
	detect := fs.Int("detect", 0, "failure-detection latency (slots)")
	compile := fs.Int("compile", 0, "host recompilation time (slots)")
	perSlot := fs.Int("reload-perslot", core.DefaultReconfigCost.PerSlot, "register reload cost per TDM slot of the recompiled schedule")
	barrier := fs.Int("reload-barrier", core.DefaultReconfigCost.Barrier, "register reload synchronization barrier (slots)")
	fallback := fs.Bool("fallback", false, "overlap recompilation stalls with the predetermined AAPC fallback")
	workers := fs.Int("workers", 0, "trial worker pool size (0 = GOMAXPROCS); the table is identical for any value")
	topoSpec := fs.String("topology", "torus-8x8", "fabric to degrade, e.g. torus-8x8, dragonfly:8,16,4, fattree:8")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := func() error {
		// The library reads a zero count as its default of 50, which the
		// header would then misstate.
		if *trials == 0 {
			return usageError{errors.New("-trials 0: want at least 1 fault plan per row")}
		}
		counts, err := cliutil.ParseIntList(*faults)
		if err != nil {
			return usageError{err}
		}
		for _, n := range counts {
			if n < 1 {
				return usageError{fmt.Errorf("fault count %d < 1", n)}
			}
		}
		alg, err := schedule.ParseScheduler(*algName)
		if err != nil {
			return usageError{err}
		}
		topo, err := topology.Parse(*topoSpec)
		if err != nil {
			return usageError{err}
		}
		res, err := experiments.FaultTable(topo, experiments.FaultConfig{
			FaultCounts: counts,
			Trials:      *trials,
			Seed:        *seed,
			Stride:      *stride,
			Flits:       *flits,
			Degree:      *degree,
			MaxSlot:     *maxSlot,
			Recovery: fault.Options{
				Scheduler:    alg,
				Reconfig:     core.ReconfigCost{PerSlot: *perSlot, Barrier: *barrier},
				DetectSlots:  *detect,
				CompileSlots: *compile,
				Fallback:     *fallback,
			},
			Workers: *workers,
		})
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "fault degradation on %s: shift-by-%d, %d flits, %d trials/row, scheduler %s\n",
			topo.Name(), *stride, *flits, *trials, *algName)
		fmt.Fprint(stdout, experiments.FormatFaultTable(res))
		return nil
	}()
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "ccfault:", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}
