// Command cctables regenerates the paper's evaluation tables: the
// multiplexing degrees of the greedy, coloring, ordered-AAPC and combined
// algorithms on random patterns, random data-redistribution patterns and
// the frequently used patterns (Tables 1-3), the application pattern
// inventory (Table 4), and the communication time of those applications
// under compiled versus dynamically controlled communication (Table 5). It
// also hosts the post-paper experiment sweeps that extend those tables to
// modern fabrics, currently the compiled-vs-dynamic crossover atlas. The
// data comes from internal/experiments; this command only renders it.
//
// Usage:
//
//	cctables                                   # Tables 1-5
//	cctables -table 1 [-trials 100] [-seed 1996]
//	cctables -table 2 [-redists 500] [-seed 1996]
//	cctables -table 3
//	cctables -table 4
//	cctables -table 5 [-degrees 1,2,5,10] [-hopdelay 8] [-backoff 16] [-queued] [-backward]
//	cctables -experiment crossover
//	cctables -experiment crossover -topologies torus-8x8,dragonfly:4,8,2 -topk 2,4
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/cliutil"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/sim"
	"repro/internal/topology"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options holds the parsed command line.
type options struct {
	out               io.Writer
	table, experiment string
	trials, redists   int
	seed              int64
	spread            bool
	workers           int
	degrees, topks    []int
	hopDelay, backoff int
	queued, backward  bool
	topologies        string
	flits             int
	perSlot, barrier  int
}

// usageError is bad command-line input: exit status 2 instead of 1.
type usageError struct{ error }

// run parses args, prints the selected tables or experiment to stdout and
// returns the exit status: 0, 1 for a failed run, 2 for a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("cctables", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{out: stdout}
	fs.StringVar(&o.table, "table", "all", "table to regenerate: 1, 2, 3, 4, 5 or all")
	fs.IntVar(&o.trials, "trials", 100, "random patterns per row in Table 1")
	fs.IntVar(&o.redists, "redists", 500, "random redistributions in Table 2")
	fs.Int64Var(&o.seed, "seed", 1996, "random seed")
	fs.BoolVar(&o.spread, "spread", false, "show mean±stddev in Table 1")
	fs.IntVar(&o.workers, "workers", 0, "worker pool size (0 = GOMAXPROCS); the numbers are identical for any value")
	fs.StringVar(&o.experiment, "experiment", "", "post-paper experiment to run instead of the tables: crossover")

	// Table 5's dynamic-control knobs.
	degrees := fs.String("degrees", "1,2,5,10", "Table 5: fixed multiplexing degrees for dynamic control")
	fs.IntVar(&o.hopDelay, "hopdelay", 8, "Table 5: control packet per-hop delay (slots)")
	fs.IntVar(&o.backoff, "backoff", 16, "Table 5: reservation retry backoff base (slots)")
	fs.BoolVar(&o.queued, "queued", false, "Table 5: model contention on the electronic shadow network")
	fs.BoolVar(&o.backward, "backward", false, "Table 5: use the observe-then-lock (backward) reservation variant")

	// Crossover-atlas knobs, used only with -experiment crossover.
	fs.StringVar(&o.topologies, "topologies", "", "comma-separated topology specs for the atlas (default: the built-in 3-family grid)")
	topk := fs.String("topk", "", "comma-separated MoE top-k sparsity levels (default: 2,8)")
	fs.IntVar(&o.flits, "flits", 0, "flits per selected expert in the MoE exchange (0 = default 4)")
	fs.IntVar(&o.perSlot, "reconfig-perslot", experiments.CrossoverReconfig.PerSlot, "compiled side's reconfiguration cost per TDM slot")
	fs.IntVar(&o.barrier, "reconfig-barrier", experiments.CrossoverReconfig.Barrier, "compiled side's reconfiguration barrier (slots)")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	err := o.run(*degrees, *topk)
	if err == nil {
		return 0
	}
	fmt.Fprintln(stderr, "cctables:", err)
	if errors.As(err, new(usageError)) {
		return 2
	}
	return 1
}

// run parses the list-valued flags, then runs the selected experiment or
// prints the selected tables, separated by blank lines.
func (o *options) run(degrees, topk string) (err error) {
	// The library reads a zero count as the paper default, which the table
	// header would then misstate; a negative count is a failed run.
	if o.trials == 0 {
		return usageError{errors.New("-trials 0: want at least 1 pattern per row")}
	}
	if o.redists == 0 {
		return usageError{errors.New("-redists 0: want at least 1 redistribution")}
	}
	if o.degrees, err = cliutil.ParseIntList(degrees); err != nil {
		return usageError{err}
	}
	if o.topks, err = cliutil.ParseIntList(topk); err != nil {
		return usageError{err}
	}
	if o.experiment != "" {
		if o.experiment != "crossover" {
			return usageError{fmt.Errorf("unknown experiment %q (supported: crossover)", o.experiment)}
		}
		return o.crossover()
	}
	torus := topology.NewTorus(8, 8)
	tables := map[string][]func(*topology.Torus) error{
		"1":   {o.table1},
		"2":   {o.table2},
		"3":   {o.table3},
		"4":   {o.table4},
		"5":   {o.table5},
		"all": {o.table1, o.table2, o.table3, o.table4, o.table5},
	}[o.table]
	if tables == nil {
		return usageError{fmt.Errorf("unknown table %q", o.table)}
	}
	for i, table := range tables {
		if i > 0 {
			fmt.Fprintln(o.out)
		}
		if err := table(torus); err != nil {
			return err
		}
	}
	return nil
}

func header(w *tabwriter.Writer, first ...string) {
	for _, f := range first {
		fmt.Fprintf(w, "%s\t", f)
	}
	for _, name := range experiments.AlgorithmNames() {
		fmt.Fprintf(w, "%s\t", name)
	}
	fmt.Fprintln(w, "improvement\t")
}

func (o *options) table1(torus *topology.Torus) error {
	fmt.Fprintf(o.out, "Table 1: multiplexing degree for random patterns (8x8 torus, %d patterns per row)\n", o.trials)
	rows, err := experiments.Table1(torus, experiments.Table1Config{Trials: o.trials, Seed: o.seed, Workers: o.workers})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(o.out, 4, 0, 2, ' ', tabwriter.AlignRight)
	header(w, "conns")
	for _, r := range rows {
		if o.spread {
			fmt.Fprintf(w, "%d\t%.1f±%.1f\t%.1f±%.1f\t%.1f±%.1f\t%.1f±%.1f\t%.1f%%\t\n",
				r.Conns,
				r.Spread[0].Mean, r.Spread[0].StdDev,
				r.Spread[1].Mean, r.Spread[1].StdDev,
				r.Spread[2].Mean, r.Spread[2].StdDev,
				r.Spread[3].Mean, r.Spread[3].StdDev,
				r.Improvement)
			continue
		}
		fmt.Fprintf(w, "%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f%%\t\n",
			r.Conns, r.Degrees[0], r.Degrees[1], r.Degrees[2], r.Degrees[3], r.Improvement)
	}
	return w.Flush()
}

func (o *options) table2(torus *topology.Torus) error {
	fmt.Fprintln(o.out, "Table 2: multiplexing degree for random data redistribution patterns")
	fmt.Fprintf(o.out, "(64^3 array over 64 PEs, %d random redistributions)\n", o.redists)
	rows, err := experiments.Table2(torus, experiments.Table2Config{Redistributions: o.redists, Seed: o.seed, Workers: o.workers})
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(o.out, 4, 0, 2, ' ', tabwriter.AlignRight)
	header(w, "conns", "patterns")
	for _, r := range rows {
		label := fmt.Sprintf("%d-%d", r.Lo, r.Hi)
		if r.Lo == r.Hi {
			label = fmt.Sprintf("%d", r.Lo)
		}
		if r.Patterns == 0 {
			fmt.Fprintf(w, "%s\t0\t-\t-\t-\t-\t-\t\n", label)
			continue
		}
		fmt.Fprintf(w, "%s\t%d\t%.1f\t%.1f\t%.1f\t%.1f\t%.1f%%\t\n",
			label, r.Patterns, r.Degrees[0], r.Degrees[1], r.Degrees[2], r.Degrees[3], r.Improvement)
	}
	return w.Flush()
}

func (o *options) table3(torus *topology.Torus) error {
	fmt.Fprintln(o.out, "Table 3: multiplexing degree for frequently used patterns (8x8 torus)")
	rows, err := experiments.Table3(torus, o.workers)
	if err != nil {
		return err
	}
	w := tabwriter.NewWriter(o.out, 4, 0, 2, ' ', tabwriter.AlignRight)
	header(w, "pattern", "conns")
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%d\t%d\t%d\t%d\t%d\t%.1f%%\t\n",
			r.Name, r.Conns, r.Degrees[0], r.Degrees[1], r.Degrees[2], r.Degrees[3], r.Improvement)
	}
	return w.Flush()
}

func (o *options) table4(*topology.Torus) error {
	fmt.Fprintln(o.out, "Table 4: application communication patterns")
	w := tabwriter.NewWriter(o.out, 4, 0, 2, ' ', 0)
	fmt.Fprintln(w, "pattern\ttype\tconns\tdescription\t")
	gs, err := apps.GS(64, 64)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "GS\tshared array ref.\t%d\t%s\t\n", len(gs.Messages), gs.Description)
	tscf, err := apps.TSCF(64)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "TSCF\texplicit send/recv\t%d\t%s\t\n", len(tscf.Messages), tscf.Description)
	p3m, err := apps.P3M(32)
	if err != nil {
		return err
	}
	kinds := []string{"data distrib.", "data distrib.", "data distrib.", "data distrib.", "shared array ref."}
	for i, ph := range p3m {
		fmt.Fprintf(w, "%s\t%s\t%d\t%s\t\n", ph.Name, kinds[i], len(ph.Messages), ph.Description)
	}
	return w.Flush()
}

// table5 runs the static application patterns under compiled communication
// and under dynamic control at each fixed degree of -degrees.
func (o *options) table5(torus *topology.Torus) error {
	params := func(k int) sim.Params {
		p := sim.DefaultParams(k)
		p.CtlHopDelay = o.hopDelay
		p.RetryBackoff = o.backoff
		p.ShadowQueuing = o.queued
		if o.backward {
			p.Reservation = sim.LockBackward
		}
		return p
	}
	rows, err := experiments.Table5(torus, experiments.Table5Config{
		FixedDegrees: o.degrees,
		Params:       params,
		Workers:      o.workers,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(o.out, "Table 5: communication time for static patterns (slots, 8x8 torus)")
	fmt.Fprintf(o.out, "control hop delay %d slots, retry backoff %d slots, shadow queuing %v, scheme %s\n",
		o.hopDelay, o.backoff, o.queued, params(1).Reservation)
	w := tabwriter.NewWriter(o.out, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintf(w, "pattern\tsize\tdegree\tcompiled\t")
	for _, k := range o.degrees {
		fmt.Fprintf(w, "dyn K=%d\t", k)
	}
	fmt.Fprintln(w)
	for _, r := range rows {
		fmt.Fprintf(w, "%s\t%s\t%d\t%d\t", r.Pattern, r.Size, r.Degree, r.Compiled)
		for _, k := range o.degrees {
			if t, ok := r.Dynamic[k]; ok {
				fmt.Fprintf(w, "%d\t", t)
			} else {
				fmt.Fprintf(w, "timeout\t")
			}
		}
		fmt.Fprintln(w)
	}
	return w.Flush()
}

// crossover renders the compiled-vs-dynamic crossover atlas over modern
// fabrics (see internal/experiments/crossover.go for the economics).
func (o *options) crossover() error {
	cfg := experiments.CrossoverConfig{
		TopKs:   o.topks,
		Flits:   o.flits,
		Seed:    uint64(o.seed),
		Workers: o.workers,
	}
	if o.topologies != "" {
		cfg.Topologies = strings.Split(o.topologies, ",")
	}
	rc := core.ReconfigCost{PerSlot: o.perSlot, Barrier: o.barrier}
	cfg.Reconfig = &rc

	rows, err := experiments.Crossover(cfg)
	if err != nil {
		return err
	}
	fmt.Fprintf(o.out, "Crossover atlas: compiled vs dynamic slot totals for the MoE exchange (seed %d)\n", o.seed)
	fmt.Fprintf(o.out, "reconfiguration cost: %d/slot + %d barrier; dynamic cut off at 2x the compiled total\n",
		rc.PerSlot, rc.Barrier)
	_, err = fmt.Fprint(o.out, experiments.FormatCrossoverTable(rows))
	return err
}
