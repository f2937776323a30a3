package ccomm_test

// The benchmark harness regenerates every quantitative table of the paper
// and the ablations called out in DESIGN.md. Each benchmark reports the
// paper's metric (multiplexing degree or communication time in slots) via
// b.ReportMetric, so `go test -bench=. -benchmem` reproduces the tables'
// numbers alongside the usual ns/op:
//
//	BenchmarkTable1…   degree of greedy/coloring/aapc/combined on random patterns
//	BenchmarkTable2…   degree on random block-cyclic redistributions
//	BenchmarkTable3…   degree on ring / nearest-neighbor / hypercube /
//	                   shuffle-exchange / all-to-all
//	BenchmarkTable5…   compiled vs dynamic communication time on GS/TSCF/P3M
//	BenchmarkFigure3…  the greedy-vs-optimal example instance
//	BenchmarkAblation… design-choice ablations (coloring priority, AAPC
//	                   ranking, tie policy)
//	BenchmarkExtension… the same metrics on other fabrics (3-D torus,
//	                   scaling, Omega, Beneš) and adaptive routing
//
// cmd/cctables prints the same data in the paper's row format.

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/apps"
	"repro/internal/benes"
	"repro/internal/network"
	"repro/internal/patterns"
	"repro/internal/redist"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/topology"
)

var benchTorus = topology.NewTorus(8, 8)

// benchSchedulers are the four algorithms of Tables 1-3, in column order.
func benchSchedulers() []schedule.Scheduler {
	return []schedule.Scheduler{
		schedule.Greedy{},
		schedule.Coloring{},
		schedule.OrderedAAPC{},
		schedule.Combined{},
	}
}

// reportDegree runs the scheduler over pre-generated request sets, cycling
// through them across iterations, and reports the mean multiplexing degree.
func reportDegree(b *testing.B, s schedule.Scheduler, sets []request.Set) {
	b.Helper()
	sum, count := 0, 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		set := sets[i%len(sets)]
		res, err := s.Schedule(benchTorus, set)
		if err != nil {
			b.Fatal(err)
		}
		sum += res.Degree()
		count++
	}
	b.StopTimer()
	b.ReportMetric(float64(sum)/float64(count), "degree")
}

// --- Table 1: random patterns ---------------------------------------------

func randomSets(b *testing.B, n, count int) []request.Set {
	b.Helper()
	rng := rand.New(rand.NewSource(1996))
	sets := make([]request.Set, count)
	for i := range sets {
		set, err := patterns.Random(rng, 64, n)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = set
	}
	return sets
}

func BenchmarkTable1(b *testing.B) {
	for _, n := range []int{100, 400, 800, 1200, 1600, 2000, 2400, 2800, 3200, 3600, 4000} {
		sets := randomSets(b, n, 20)
		for _, s := range benchSchedulers() {
			b.Run(fmt.Sprintf("conns=%d/%s", n, s.Name()), func(b *testing.B) {
				reportDegree(b, s, sets)
			})
		}
	}
}

// --- Table 2: random data redistribution patterns --------------------------

func BenchmarkTable2(b *testing.B) {
	rng := rand.New(rand.NewSource(1996))
	sets := make([]request.Set, 30)
	for i := range sets {
		pat, _, _, err := redist.RandomRedistribution(rng, [3]int{64, 64, 64}, 64)
		if err != nil {
			b.Fatal(err)
		}
		sets[i] = pat.Reqs
	}
	for _, s := range benchSchedulers() {
		b.Run(s.Name(), func(b *testing.B) {
			reportDegree(b, s, sets)
		})
	}
}

// --- Table 3: frequently used patterns -------------------------------------

func table3Patterns(b *testing.B) map[string]request.Set {
	b.Helper()
	hyper, err := patterns.Hypercube(64)
	if err != nil {
		b.Fatal(err)
	}
	shuffle, err := patterns.ShuffleExchange(64)
	if err != nil {
		b.Fatal(err)
	}
	return map[string]request.Set{
		"ring":             patterns.Ring(64),
		"nearest-neighbor": patterns.NearestNeighbor2D(8, 8),
		"hypercube":        hyper,
		"shuffle-exchange": shuffle,
		"all-to-all":       patterns.AllToAll(64),
	}
}

func BenchmarkTable3(b *testing.B) {
	for name, set := range table3Patterns(b) {
		for _, s := range benchSchedulers() {
			b.Run(name+"/"+s.Name(), func(b *testing.B) {
				reportDegree(b, s, []request.Set{set})
			})
		}
	}
}

// --- Table 5: compiled vs dynamic communication time ------------------------

// table5Workloads returns the application phases of Table 5 keyed by row
// label.
func table5Workloads(b *testing.B) []struct {
	name string
	msgs []sim.Message
} {
	b.Helper()
	var rows []struct {
		name string
		msgs []sim.Message
	}
	add := func(name string, msgs []sim.Message) {
		rows = append(rows, struct {
			name string
			msgs []sim.Message
		}{name, msgs})
	}
	for _, n := range []int{64, 128, 256} {
		ph, err := apps.GS(n, 64)
		if err != nil {
			b.Fatal(err)
		}
		add(fmt.Sprintf("GS-%d", n), ph.Messages)
	}
	tscf, err := apps.TSCF(64)
	if err != nil {
		b.Fatal(err)
	}
	add("TSCF", tscf.Messages)
	for _, n := range []int{32, 64} {
		phases, err := apps.P3M(n)
		if err != nil {
			b.Fatal(err)
		}
		for _, ph := range phases {
			add(fmt.Sprintf("%s-%d", ph.Name, n), ph.Messages)
		}
	}
	return rows
}

func BenchmarkTable5Compiled(b *testing.B) {
	for _, row := range table5Workloads(b) {
		b.Run(row.name, func(b *testing.B) {
			ph := apps.Phase{Messages: row.msgs}
			res, err := schedule.Combined{}.Schedule(benchTorus, ph.Pattern().Dedup())
			if err != nil {
				b.Fatal(err)
			}
			var last int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, err := sim.RunCompiled(res, row.msgs)
				if err != nil {
					b.Fatal(err)
				}
				last = out.Time
			}
			b.ReportMetric(float64(last), "slots")
			b.ReportMetric(float64(res.Degree()), "degree")
		})
	}
}

func BenchmarkTable5Dynamic(b *testing.B) {
	for _, row := range table5Workloads(b) {
		for _, k := range []int{1, 2, 5, 10} {
			b.Run(fmt.Sprintf("%s/K=%d", row.name, k), func(b *testing.B) {
				s, err := sim.NewSimulator(benchTorus, sim.DefaultParams(k))
				if err != nil {
					b.Fatal(err)
				}
				var out sim.DynamicResult
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := s.RunInto(row.msgs, &out); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(out.Time), "slots")
			})
		}
	}
}

// --- Figures ---------------------------------------------------------------

// BenchmarkFigure3 times the paper's 4-request example: greedy (3 slots)
// and exact (2 slots) on the 5-node linear array.
func BenchmarkFigure3(b *testing.B) {
	lin := topology.NewLinear(5)
	reqs := request.Set{{Src: 0, Dst: 2}, {Src: 1, Dst: 3}, {Src: 3, Dst: 4}, {Src: 2, Dst: 4}}
	b.Run("greedy", func(b *testing.B) {
		var deg int
		for i := 0; i < b.N; i++ {
			res, err := schedule.Greedy{}.Schedule(lin, reqs)
			if err != nil {
				b.Fatal(err)
			}
			deg = res.Degree()
		}
		b.ReportMetric(float64(deg), "degree")
	})
	b.Run("optimal", func(b *testing.B) {
		var deg int
		for i := 0; i < b.N; i++ {
			res, err := schedule.Exact{}.Schedule(lin, reqs)
			if err != nil {
				b.Fatal(err)
			}
			deg = res.Degree()
		}
		b.ReportMetric(float64(deg), "degree")
	})
}

// BenchmarkFigure1 validates and times the Fig. 1 configuration check on
// the 4x4 torus.
func BenchmarkFigure1(b *testing.B) {
	torus := topology.NewTorus(4, 4)
	reqs := request.Set{{Src: 4, Dst: 1}, {Src: 5, Dst: 3}, {Src: 6, Dst: 10}, {Src: 8, Dst: 9}, {Src: 11, Dst: 2}}
	var deg int
	for i := 0; i < b.N; i++ {
		res, err := schedule.Greedy{}.Schedule(torus, reqs)
		if err != nil {
			b.Fatal(err)
		}
		deg = res.Degree()
	}
	if deg != 1 {
		b.Fatalf("Fig. 1 configuration needs %d slots, want 1", deg)
	}
	b.ReportMetric(float64(deg), "degree")
}

// --- Ablations ---------------------------------------------------------------

// BenchmarkAblationColoringPriority compares the degree-based priority this
// implementation defaults to against the paper's literal links/degree
// ratio.
func BenchmarkAblationColoringPriority(b *testing.B) {
	sets := randomSets(b, 1200, 20)
	b.Run("degree-desc", func(b *testing.B) {
		reportDegree(b, schedule.Coloring{}, sets)
	})
	b.Run("paper-ratio", func(b *testing.B) {
		reportDegree(b, schedule.Coloring{Priority: schedule.PaperRatioPriority}, sets)
	})
}

// BenchmarkAblationAAPCRanking measures the effect of ranking AAPC phases
// by utilization (Fig. 5 line 6) versus keeping decomposition order.
func BenchmarkAblationAAPCRanking(b *testing.B) {
	sets := randomSets(b, 2000, 20)
	b.Run("ranked", func(b *testing.B) {
		reportDegree(b, schedule.OrderedAAPC{}, sets)
	})
	b.Run("unranked", func(b *testing.B) {
		reportDegree(b, schedule.OrderedAAPC{DisableRanking: true}, sets)
	})
}

// BenchmarkAblationTiePolicy shows why balanced tie-breaking matters: with
// all N/2-offset traffic forced one way, the all-to-all needs more slots.
func BenchmarkAblationTiePolicy(b *testing.B) {
	set := patterns.AllToAll(64)
	policies := map[string]topology.TiePolicy{
		"balanced": topology.TieBalanced,
		"positive": topology.TiePositive,
	}
	for name, tie := range policies {
		b.Run(name, func(b *testing.B) {
			torus := topology.NewTorus(8, 8)
			torus.Tie = tie
			var deg int
			for i := 0; i < b.N; i++ {
				res, err := schedule.Coloring{}.Schedule(torus, set)
				if err != nil {
					b.Fatal(err)
				}
				deg = res.Degree()
			}
			b.ReportMetric(float64(deg), "degree")
		})
	}
}

// BenchmarkAblationBackoff measures dynamic-control sensitivity to the
// retry backoff base on a contended dense pattern.
func BenchmarkAblationBackoff(b *testing.B) {
	phases, err := apps.P3M(32)
	if err != nil {
		b.Fatal(err)
	}
	msgs := phases[1].Messages // the dense P3M 2 redistribution
	for _, backoff := range []int{4, 16, 64} {
		b.Run(fmt.Sprintf("backoff=%d", backoff), func(b *testing.B) {
			var last int
			for i := 0; i < b.N; i++ {
				p := sim.DefaultParams(5)
				p.RetryBackoff = backoff
				out, err := sim.Dynamic{Topology: benchTorus, Params: p}.Run(msgs)
				if err != nil {
					b.Fatal(err)
				}
				last = out.Time
			}
			b.ReportMetric(float64(last), "slots")
		})
	}
}

// BenchmarkAblationShadowQueuing measures the cost of modeling contention
// on the electronic shadow network (single control queue per switch)
// versus the paper's light-traffic assumption.
func BenchmarkAblationShadowQueuing(b *testing.B) {
	tscf, err := apps.TSCF(64)
	if err != nil {
		b.Fatal(err)
	}
	for _, queued := range []bool{false, true} {
		name := "contention-free"
		if queued {
			name = "queued"
		}
		b.Run(name, func(b *testing.B) {
			var last int
			for i := 0; i < b.N; i++ {
				p := sim.DefaultParams(5)
				p.ShadowQueuing = queued
				out, err := sim.Dynamic{Topology: benchTorus, Params: p}.Run(tscf.Messages)
				if err != nil {
					b.Fatal(err)
				}
				last = out.Time
			}
			b.ReportMetric(float64(last), "slots")
		})
	}
}

// BenchmarkFigureLoadLatency sweeps offered load for an open-loop random
// workload and reports mean message latency under the compiled AAPC
// fallback (the section 3.3 strategy for dynamic patterns) and under
// runtime reservations — the latency-vs-load curve classic network papers
// plot.
func BenchmarkFigureLoadLatency(b *testing.B) {
	full, err := schedule.OrderedAAPC{}.Schedule(benchTorus, patterns.AllToAll(64))
	if err != nil {
		b.Fatal(err)
	}
	for _, gap := range []int{1600, 800, 400, 200} {
		rng := rand.New(rand.NewSource(2026))
		msgs, err := sim.OpenLoop(rng, sim.OpenLoopConfig{
			Nodes: 64, MessagesPerNode: 20, Flits: 2, MeanGap: gap,
		})
		if err != nil {
			b.Fatal(err)
		}
		b.Run(fmt.Sprintf("gap=%d/aapc-fallback", gap), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				out, err := sim.RunCompiled(full, msgs)
				if err != nil {
					b.Fatal(err)
				}
				lat, err = sim.MeanLatency(msgs, out.Finish)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lat, "slots/msg")
		})
		b.Run(fmt.Sprintf("gap=%d/dynamic-K10", gap), func(b *testing.B) {
			var lat float64
			for i := 0; i < b.N; i++ {
				out, err := sim.Dynamic{Topology: benchTorus, Params: sim.DefaultParams(10)}.Run(msgs)
				if err != nil {
					b.Fatal(err)
				}
				lat, err = sim.MeanLatency(msgs, out.Finish)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(lat, "slots/msg")
		})
	}
}

// BenchmarkAblationTDMvsWDM compares the two multiplexing technologies on
// the same compiled all-to-all schedule.
func BenchmarkAblationTDMvsWDM(b *testing.B) {
	set := patterns.AllToAll(64)
	res, err := schedule.OrderedAAPC{}.Schedule(benchTorus, set)
	if err != nil {
		b.Fatal(err)
	}
	msgs := make([]sim.Message, len(set))
	for i, r := range set {
		msgs[i] = sim.Message{Src: int(r.Src), Dst: int(r.Dst), Flits: 8}
	}
	b.Run("tdm", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			out, err := sim.RunCompiled(res, msgs)
			if err != nil {
				b.Fatal(err)
			}
			last = out.Time
		}
		b.ReportMetric(float64(last), "slots")
	})
	b.Run("wdm", func(b *testing.B) {
		var last int
		for i := 0; i < b.N; i++ {
			out, err := sim.RunCompiledWDM(res, msgs)
			if err != nil {
				b.Fatal(err)
			}
			last = out.Time
		}
		b.ReportMetric(float64(last), "slots")
	})
}

// BenchmarkExtensionTorus3D compares the P3M 26-neighbor exchange on the
// paper's 2-D torus against a physically 3-D 4x4x4 torus: the logical
// pattern embeds with shorter paths and fewer conflicts in 3-D.
func BenchmarkExtensionTorus3D(b *testing.B) {
	phases, err := apps.P3M(32)
	if err != nil {
		b.Fatal(err)
	}
	nn := phases[4] // P3M 5
	set := nn.Pattern().Dedup()
	topos := map[string]network.Topology{
		"torus-8x8":     topology.NewTorus(8, 8),
		"torus3d-4x4x4": topology.NewTorus3D(4, 4, 4),
	}
	for name, topo := range topos {
		b.Run(name, func(b *testing.B) {
			var deg int
			for i := 0; i < b.N; i++ {
				res, err := schedule.Coloring{}.Schedule(topo, set)
				if err != nil {
					b.Fatal(err)
				}
				deg = res.Degree()
			}
			b.ReportMetric(float64(deg), "degree")
		})
	}
}

// BenchmarkExtensionScaling measures how pattern degrees grow with torus
// size under the coloring scheduler.
func BenchmarkExtensionScaling(b *testing.B) {
	for _, side := range []int{4, 8, 16} {
		torus := topology.NewTorus(side, side)
		n := side * side
		sets := map[string]request.Set{
			"ring":      patterns.Ring(n),
			"nn2d":      patterns.NearestNeighbor2D(side, side),
			"transpose": patterns.Transpose(side),
		}
		for name, set := range sets {
			b.Run(fmt.Sprintf("%dx%d/%s", side, side, name), func(b *testing.B) {
				var deg int
				for i := 0; i < b.N; i++ {
					res, err := schedule.Coloring{}.Schedule(torus, set)
					if err != nil {
						b.Fatal(err)
					}
					deg = res.Degree()
				}
				b.ReportMetric(float64(deg), "degree")
			})
		}
	}
}

// BenchmarkExtensionOmegaMIN schedules the Table 3 patterns on a 64-PE
// Omega multistage network, the TDM substrate of the paper's predecessor
// work (Qiao & Melhem's TDM MINs), against the 8x8 torus.
func BenchmarkExtensionOmegaMIN(b *testing.B) {
	omega := topology.NewOmega(64)
	for name, set := range table3Patterns(b) {
		b.Run(name, func(b *testing.B) {
			var deg int
			for i := 0; i < b.N; i++ {
				res, err := schedule.Combined{}.Schedule(omega, set)
				if err != nil {
					b.Fatal(err)
				}
				deg = res.Degree()
			}
			b.ReportMetric(float64(deg), "degree")
		})
	}
}

// BenchmarkExtensionBenes schedules the Table 3 patterns on a 64-terminal
// Beneš rearrangeable network, where bipartite edge coloring plus the
// looping algorithm provably achieves the injection/ejection-port lower
// bound for every pattern. The degree column is the interesting output:
// compare it with the torus (Table 3) and Omega results.
func BenchmarkExtensionBenes(b *testing.B) {
	net, err := benes.New(64)
	if err != nil {
		b.Fatal(err)
	}
	for name, set := range table3Patterns(b) {
		b.Run(name, func(b *testing.B) {
			var deg int
			for i := 0; i < b.N; i++ {
				plan, err := net.Schedule(set)
				if err != nil {
					b.Fatal(err)
				}
				if err := plan.Verify(); err != nil {
					b.Fatal(err)
				}
				deg = plan.Degree()
			}
			b.ReportMetric(float64(deg), "degree")
		})
	}
}

// BenchmarkAblationReservationScheme compares the paper's forward-locking
// protocol against the observe-then-lock backward variant on a contended
// workload.
func BenchmarkAblationReservationScheme(b *testing.B) {
	tscf, err := apps.TSCF(64)
	if err != nil {
		b.Fatal(err)
	}
	for _, scheme := range []sim.ReservationScheme{sim.LockForward, sim.LockBackward} {
		b.Run(scheme.String(), func(b *testing.B) {
			var last int
			for i := 0; i < b.N; i++ {
				p := sim.DefaultParams(5)
				p.Reservation = scheme
				out, err := sim.Dynamic{Topology: benchTorus, Params: p}.Run(tscf.Messages)
				if err != nil {
					b.Fatal(err)
				}
				last = out.Time
			}
			b.ReportMetric(float64(last), "slots")
		})
	}
}

// BenchmarkExtensionAdaptiveRouting measures the gain from letting the
// compiler choose X-then-Y or Y-then-X per connection instead of fixing
// dimension order globally.
func BenchmarkExtensionAdaptiveRouting(b *testing.B) {
	sets := randomSets(b, 1000, 10)
	b.Run("fixed-xy", func(b *testing.B) {
		reportDegree(b, schedule.Greedy{}, sets)
	})
	b.Run("adaptive", func(b *testing.B) {
		sum, count := 0, 0
		for i := 0; i < b.N; i++ {
			plan, err := adaptive.Schedule(benchTorus, sets[i%len(sets)], nil)
			if err != nil {
				b.Fatal(err)
			}
			sum += plan.Degree()
			count++
		}
		b.ReportMetric(float64(sum)/float64(count), "degree")
	})
}

// --- Combined on the paper's all-to-all ------------------------------------

// BenchmarkCombinedPipeline measures Combined on the paper's 8x8-torus AAPC
// workload (the 4032-request all-to-all) with the route table emptied
// before every compile (cold-routes) and serving every (s,d) lookup
// (warm-routes). Both rungs produce the same schedule.
func BenchmarkCombinedPipeline(b *testing.B) {
	set := patterns.AllToAll(64)
	// Warm the name-keyed AAPC decomposition cache, which both rungs share.
	if _, err := (schedule.Combined{}).Schedule(benchTorus, set); err != nil {
		b.Fatal(err)
	}
	for _, cold := range []bool{true, false} {
		name := "warm-routes"
		if cold {
			name = "cold-routes"
		}
		b.Run(name, func(b *testing.B) {
			network.InvalidateRoutes(benchTorus)
			if !cold {
				if _, err := (schedule.Combined{}).Schedule(benchTorus, set); err != nil {
					b.Fatal(err)
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if cold {
					network.InvalidateRoutes(benchTorus)
				}
				res, err := schedule.Combined{}.Schedule(benchTorus, set)
				if err != nil {
					b.Fatal(err)
				}
				if res.Degree() != 64 {
					b.Fatalf("degree %d", res.Degree())
				}
			}
		})
	}
}

// --- Infrastructure micro-benchmarks ----------------------------------------

func BenchmarkConflictGraphBuild(b *testing.B) {
	set := patterns.AllToAll(64)
	paths, err := set.Routes(benchTorus)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := schedule.BuildConflictGraph(benchTorus, paths)
		if g.Len() != 4032 {
			b.Fatal("bad graph")
		}
	}
}

// BenchmarkCachedRoute isolates the route table itself: a warm hit versus
// recomputing the dimension-ordered route (BenchmarkTorusRoute is the
// uncached equivalent of the miss path).
func BenchmarkCachedRoute(b *testing.B) {
	network.InvalidateRoutes(benchTorus)
	defer network.InvalidateRoutes(benchTorus)
	for s := 0; s < 64; s++ { // warm every pair
		for d := 0; d < 64; d++ {
			if s == d {
				continue
			}
			if _, err := network.CachedRoute(benchTorus, network.NodeID(s), network.NodeID(d)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src := network.NodeID(i % 64)
		dst := network.NodeID((i*31 + 7) % 64)
		if src == dst {
			continue
		}
		if _, err := network.CachedRoute(benchTorus, src, dst); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAAPCDecomposition(b *testing.B) {
	for i := 0; i < b.N; i++ {
		// Fresh torus value defeats the name-keyed cache in DecompositionFor;
		// use the aapc package directly through a fresh topology each time.
		torus := topology.NewTorus(8, 8)
		res, err := schedule.OrderedAAPC{}.Schedule(torus, patterns.AllToAll(64))
		if err != nil {
			b.Fatal(err)
		}
		if res.Degree() != 64 {
			b.Fatalf("degree %d", res.Degree())
		}
	}
}

func BenchmarkTorusRoute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		src := network.NodeID(i % 64)
		dst := network.NodeID((i*31 + 7) % 64)
		if src == dst {
			continue
		}
		if _, err := benchTorus.Route(src, dst); err != nil {
			b.Fatal(err)
		}
	}
}
