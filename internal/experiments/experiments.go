// Package experiments generates the paper's evaluation tables as data —
// the single implementation behind cmd/cctables, which prints Tables 1-5,
// so every table comes from one tested code path.
package experiments

import (
	"fmt"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/network"
	"repro/internal/patterns"
	"repro/internal/redist"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/stats"
)

// Algorithms are the four scheduler columns of Tables 1-3, in the paper's
// order.
func Algorithms() []schedule.Scheduler {
	return []schedule.Scheduler{
		schedule.Greedy{},
		schedule.Coloring{},
		schedule.OrderedAAPC{},
		schedule.Combined{},
	}
}

// AlgorithmNames returns the column headers matching Algorithms().
func AlgorithmNames() []string {
	return []string{"greedy", "coloring", "aapc", "combined"}
}

// degreesFor schedules one request set with every algorithm.
func degreesFor(t network.Topology, set request.Set) ([]int, error) {
	out := make([]int, 0, 4)
	for _, s := range Algorithms() {
		res, err := s.Schedule(t, set)
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", s.Name(), err)
		}
		out = append(out, res.Degree())
	}
	return out, nil
}

// RunSweep runs gen once per trial on sim.Sweep's worker pool and collects
// the results in trial order. Each trial draws randomness only from its own
// rng (seeded by sim.TrialSeed), so the returned slice is byte-identical for
// any worker count; workers <= 0 means GOMAXPROCS. This is the engine behind
// every table: the trial loops of Tables 1 and 2, and the per-pattern and
// per-cell work of Tables 3 and 5.
func RunSweep[T any](trials, workers int, seed int64, gen func(trial int, rng *rand.Rand) (T, error)) ([]T, error) {
	out := make([]T, max(trials, 0)) // a negative count is Sweep's error
	err := sim.Sweep(trials, workers, seed, func(trial int, rng *rand.Rand) error {
		v, err := gen(trial, rng)
		if err != nil {
			return err
		}
		out[trial] = v
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// Improvement is the paper's last column: the percentage reduction of the
// combined algorithm's degree relative to greedy's.
func Improvement(greedy, combined float64) float64 {
	if greedy == 0 {
		return 0
	}
	return 100 * (greedy - combined) / greedy
}

// --- Table 1 -----------------------------------------------------------------

// Table1Config parameterizes the random-pattern sweep.
type Table1Config struct {
	// Sizes lists the connection counts; nil means the paper's 100..4000.
	Sizes []int
	// Trials is the number of random patterns averaged per row; zero means
	// the paper's 100.
	Trials int
	// Seed drives the generator.
	Seed int64
	// Nodes is the PE count; zero means 64.
	Nodes int
	// Workers bounds the trial worker pool; zero means GOMAXPROCS. The
	// results are identical for any value.
	Workers int
}

// Table1Row is one row of Table 1.
type Table1Row struct {
	Conns       int
	Degrees     []float64 // one per Algorithms() column
	Spread      []stats.Summary
	Improvement float64
}

// Table1 runs the random-pattern sweep.
func Table1(t network.Topology, cfg Table1Config) ([]Table1Row, error) {
	sizes := cfg.Sizes
	if sizes == nil {
		sizes = []int{100, 400, 800, 1200, 1600, 2000, 2400, 2800, 3200, 3600, 4000}
	}
	trials := cfg.Trials
	if trials == 0 {
		trials = 100
	}
	nodes := cfg.Nodes
	if nodes == 0 {
		nodes = 64
	}
	var rows []Table1Row
	for si, n := range sizes {
		// Each row gets its own decorrelated seed, and each trial within it
		// generates and schedules one pattern on the worker pool.
		all, err := RunSweep(trials, cfg.Workers, sim.TrialSeed(cfg.Seed, si),
			func(_ int, rng *rand.Rand) ([]int, error) {
				set, err := patterns.Random(rng, nodes, n)
				if err != nil {
					return nil, err
				}
				return degreesFor(t, set)
			})
		if err != nil {
			return nil, err
		}
		samples := make([][]int, 4)
		for _, degs := range all {
			for i, d := range degs {
				samples[i] = append(samples[i], d)
			}
		}
		row := Table1Row{Conns: n, Degrees: make([]float64, 4), Spread: make([]stats.Summary, 4)}
		for i := range samples {
			row.Spread[i] = stats.Summarize(samples[i])
			row.Degrees[i] = row.Spread[i].Mean
		}
		row.Improvement = Improvement(row.Degrees[0], row.Degrees[3])
		rows = append(rows, row)
	}
	return rows, nil
}

// --- Table 2 -----------------------------------------------------------------

// Table2Config parameterizes the redistribution sweep.
type Table2Config struct {
	// Redistributions is the number of random redistributions; zero means
	// the paper's 500.
	Redistributions int
	// Seed drives the generator.
	Seed int64
	// Shape is the array shape; zero means 64x64x64.
	Shape [3]int
	// Procs is the PE count; zero means 64.
	Procs int
	// Workers bounds the trial worker pool; zero means GOMAXPROCS. The
	// results are identical for any value.
	Workers int
}

// Table2Row is one connection-count bucket of Table 2.
type Table2Row struct {
	Lo, Hi      int
	Patterns    int
	Degrees     []float64
	Improvement float64
}

// table2Buckets are the paper's connection-count buckets.
func table2Buckets() []Table2Row {
	bounds := [][2]int{
		{0, 100}, {101, 200}, {201, 400}, {401, 800}, {801, 1200},
		{1201, 1600}, {1601, 2000}, {2001, 2400}, {2401, 4031}, {4032, 4032},
	}
	rows := make([]Table2Row, len(bounds))
	for i, b := range bounds {
		rows[i] = Table2Row{Lo: b[0], Hi: b[1], Degrees: make([]float64, 4)}
	}
	return rows
}

// Table2 runs the random-redistribution sweep.
func Table2(t network.Topology, cfg Table2Config) ([]Table2Row, error) {
	n := cfg.Redistributions
	if n == 0 {
		n = 500
	}
	shape := cfg.Shape
	if shape == ([3]int{}) {
		shape = [3]int{64, 64, 64}
	}
	procs := cfg.Procs
	if procs == 0 {
		procs = 64
	}
	rows := table2Buckets()
	// One trial = draw one redistribution and schedule it with every
	// algorithm; bucketing happens afterwards, in trial order.
	type t2trial struct {
		conns   int
		degrees []int
	}
	all, err := RunSweep(n, cfg.Workers, cfg.Seed, func(_ int, rng *rand.Rand) (t2trial, error) {
		pat, _, _, err := redist.RandomRedistribution(rng, shape, procs)
		if err != nil {
			return t2trial{}, err
		}
		degs, err := degreesFor(t, pat.Reqs)
		if err != nil {
			return t2trial{}, err
		}
		return t2trial{conns: len(pat.Reqs), degrees: degs}, nil
	})
	if err != nil {
		return nil, err
	}
	for _, tr := range all {
		for r := range rows {
			if tr.conns >= rows[r].Lo && tr.conns <= rows[r].Hi {
				rows[r].Patterns++
				for c, d := range tr.degrees {
					rows[r].Degrees[c] += float64(d)
				}
				break
			}
		}
	}
	for r := range rows {
		if rows[r].Patterns == 0 {
			continue
		}
		for c := range rows[r].Degrees {
			rows[r].Degrees[c] /= float64(rows[r].Patterns)
		}
		rows[r].Improvement = Improvement(rows[r].Degrees[0], rows[r].Degrees[3])
	}
	return rows, nil
}

// --- Table 3 -----------------------------------------------------------------

// Table3Row is one frequently-used-pattern row.
type Table3Row struct {
	Name        string
	Conns       int
	Degrees     []int
	Improvement float64
}

// patternEntry names one of Table 3's frequently used patterns.
type patternEntry struct {
	name string
	set  request.Set
}

// table3Patterns returns the five classic patterns of Table 3 sized for the
// topology's terminal count.
func table3Patterns(t network.Topology) ([]patternEntry, error) {
	nodes := network.TerminalCount(t)
	hyper, err := patterns.Hypercube(nodes)
	if err != nil {
		return nil, err
	}
	shuffle, err := patterns.ShuffleExchange(nodes)
	if err != nil {
		return nil, err
	}
	side := 1
	for side*side < nodes {
		side++
	}
	return []patternEntry{
		{"ring", patterns.Ring(nodes)},
		{"nearest neighbor", patterns.NearestNeighbor2D(side, nodes/side)},
		{"hypercube", hyper},
		{"shuffle-exchange", shuffle},
		{"all-to-all", patterns.AllToAll(nodes)},
	}, nil
}

// Table3 schedules the five classic patterns, one pattern per trial of a
// pool of the given size (zero means GOMAXPROCS; the rows are identical for
// any value).
func Table3(t network.Topology, workers int) ([]Table3Row, error) {
	entries, err := table3Patterns(t)
	if err != nil {
		return nil, err
	}
	all, err := RunSweep(len(entries), workers, 0, func(i int, _ *rand.Rand) ([]int, error) {
		return degreesFor(t, entries[i].set)
	})
	if err != nil {
		return nil, err
	}
	rows := make([]Table3Row, len(entries))
	for i, e := range entries {
		rows[i] = Table3Row{
			Name:        e.name,
			Conns:       len(e.set),
			Degrees:     all[i],
			Improvement: Improvement(float64(all[i][0]), float64(all[i][3])),
		}
	}
	return rows, nil
}

// --- Table 5 -----------------------------------------------------------------

// Table5Config parameterizes the compiled-vs-dynamic comparison.
type Table5Config struct {
	// FixedDegrees are the dynamic-control degrees; nil means {1, 2, 5, 10}.
	FixedDegrees []int
	// Params builds the dynamic simulator parameters per degree; nil means
	// sim.DefaultParams.
	Params func(degree int) sim.Params
	// GSSizes, P3MSizes select problem sizes; nil means the paper's.
	GSSizes, P3MSizes []int
	// Workers bounds the worker pool for the per-row scheduling and the
	// per-(row, degree) dynamic simulations; zero means GOMAXPROCS. The
	// results are identical for any value.
	Workers int
}

// Table5Row is one workload row.
type Table5Row struct {
	Pattern  string
	Size     string
	Conns    int
	Degree   int
	Compiled int
	Dynamic  map[int]int // fixed degree -> slots; missing on timeout
	TimedOut []int       // degrees that exceeded MaxTime
}

// Table5 runs the full compiled-vs-dynamic comparison.
func Table5(t network.Topology, cfg Table5Config) ([]Table5Row, error) {
	fixed := cfg.FixedDegrees
	if fixed == nil {
		fixed = []int{1, 2, 5, 10}
	}
	params := cfg.Params
	if params == nil {
		params = sim.DefaultParams
	}
	gsSizes := cfg.GSSizes
	if gsSizes == nil {
		gsSizes = []int{64, 128, 256}
	}
	p3mSizes := cfg.P3MSizes
	if p3mSizes == nil {
		p3mSizes = []int{32, 64}
	}

	type workload struct {
		pattern, size string
		msgs          []sim.Message
	}
	var work []workload
	for _, n := range gsSizes {
		ph, err := apps.GS(n, 64)
		if err != nil {
			return nil, err
		}
		work = append(work, workload{"GS", fmt.Sprintf("%d x %d", n, n), ph.Messages})
	}
	tscf, err := apps.TSCF(64)
	if err != nil {
		return nil, err
	}
	work = append(work, workload{"TSCF", "5120", tscf.Messages})
	for _, n := range p3mSizes {
		phases, err := apps.P3M(n)
		if err != nil {
			return nil, err
		}
		for _, ph := range phases {
			work = append(work, workload{ph.Name, fmt.Sprintf("%d^3", n), ph.Messages})
		}
	}

	// Phase 1: schedule every workload and simulate its compiled execution,
	// one row per worker-pool trial (the work list is deterministic, so the
	// rng is unused).
	type prep struct {
		degree, compiled int
	}
	preps, err := RunSweep(len(work), cfg.Workers, 0, func(i int, _ *rand.Rand) (prep, error) {
		w := work[i]
		set := (apps.Phase{Messages: w.msgs}).Pattern().Dedup()
		res, err := schedule.Combined{}.Schedule(t, set)
		if err != nil {
			return prep{}, fmt.Errorf("%s %s: %w", w.pattern, w.size, err)
		}
		comp, err := sim.RunCompiled(res, w.msgs)
		if err != nil {
			return prep{}, fmt.Errorf("%s %s: %w", w.pattern, w.size, err)
		}
		return prep{degree: res.Degree(), compiled: comp.Time}, nil
	})
	if err != nil {
		return nil, err
	}

	// Phase 2: every (workload, fixed degree) dynamic simulation is an
	// independent cell; sweep them all on the pool. The simulator itself is
	// deterministic, so cells carry no randomness either.
	type cell struct {
		time     int
		timedOut bool
	}
	cells, err := RunSweep(len(work)*len(fixed), cfg.Workers, 0, func(ci int, _ *rand.Rand) (cell, error) {
		w, k := work[ci/len(fixed)], fixed[ci%len(fixed)]
		s, err := sim.NewSimulator(t, params(k))
		if err != nil {
			return cell{}, fmt.Errorf("%s %s K=%d: %w", w.pattern, w.size, k, err)
		}
		dyn, err := s.Run(w.msgs)
		if err != nil {
			return cell{}, fmt.Errorf("%s %s K=%d: %w", w.pattern, w.size, k, err)
		}
		return cell{time: dyn.Time, timedOut: dyn.TimedOut}, nil
	})
	if err != nil {
		return nil, err
	}

	rows := make([]Table5Row, len(work))
	for i, w := range work {
		row := Table5Row{
			Pattern:  w.pattern,
			Size:     w.size,
			Conns:    len(w.msgs),
			Degree:   preps[i].degree,
			Compiled: preps[i].compiled,
			Dynamic:  make(map[int]int),
		}
		for ki, k := range fixed {
			c := cells[i*len(fixed)+ki]
			if c.timedOut {
				row.TimedOut = append(row.TimedOut, k)
				continue
			}
			row.Dynamic[k] = c.time
		}
		rows[i] = row
	}
	return rows, nil
}
