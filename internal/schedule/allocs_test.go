package schedule_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// Allocation pins for the arena core. The bitset scheduler's contract is
// that a warm CompileState compiles with zero heap allocations and a warm
// Incremental patches with zero heap allocations; these tests hold that
// line so a stray append or escaping closure shows up as a test failure,
// not as a latency regression in the service.
//
// testing.AllocsPerRun pins GOMAXPROCS to 1 for the measured runs;
// TestCombinedAllocsAtGOMAXPROCS2 counts at two cores, where any fan-out
// inside a compile would show.

// compileSteadyAllocs counts the allocations of one warm arena compiling
// the sets in turn.
func compileSteadyAllocs(t *testing.T, s schedule.Scheduler, sets ...request.Set) float64 {
	t.Helper()
	topo, err := topology.Parse("torus-8x8")
	if err != nil {
		t.Fatal(err)
	}
	st := schedule.NewCompileState()
	compile := func(i int) {
		if _, err := st.Compile(s, topo, sets[i%len(sets)]); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3*len(sets); i++ { // grow the arena and warm the route cache
		compile(i)
	}
	i := 0
	return testing.AllocsPerRun(20, func() {
		compile(i)
		i++
	})
}

// TestScheduleSteadyStateAllocs pins CompileState.Compile at zero
// allocations once warm, for every paper scheduler.
func TestScheduleSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := splitmix64(42)
	reqs := randomPattern(&rng, 64, 128)
	dense := randomPattern(&rng, 64, 1200)
	cases := []struct {
		name string
		s    schedule.Scheduler
		sets []request.Set
	}{
		{"greedy", schedule.Greedy{}, []request.Set{reqs}},
		{"coloring", schedule.Coloring{}, []request.Set{reqs}},
		{"aapc", schedule.OrderedAAPC{}, []request.Set{reqs}},
		// A sequence of compiles of two shapes on one arena, as a pooled
		// state serves them.
		{"combined-seq", schedule.Combined{}, []request.Set{reqs, dense}},
		{"combined", schedule.Combined{}, []request.Set{reqs}},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			if n := compileSteadyAllocs(t, c.s, c.sets...); n != 0 {
				t.Fatalf("steady-state Compile allocates %.1f per run, want 0", n)
			}
		})
	}
}

// TestCombinedAllocsAtGOMAXPROCS2 pins a warm Combined compile at zero
// allocations with two cores available. It reads the process-wide malloc
// counter around the calls instead of using testing.AllocsPerRun, which
// would pin GOMAXPROCS to 1. The 1,200-request set is dense enough that
// coloring misses the lower bound and the AAPC member runs.
func TestCombinedAllocsAtGOMAXPROCS2(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	topo, err := topology.Parse("torus-8x8")
	if err != nil {
		t.Fatal(err)
	}
	var s schedule.Scheduler = schedule.Combined{} // boxed once, outside the count
	for _, n := range []int{128, 1200} {
		t.Run(fmt.Sprintf("requests=%d", n), func(t *testing.T) {
			rng := splitmix64(uint64(n))
			reqs := randomPattern(&rng, topo.NumNodes(), n)
			st := schedule.NewCompileState()
			for i := 0; i < 3; i++ { // grow the arenas and warm the caches
				if _, err := st.Compile(s, topo, reqs); err != nil {
					t.Fatal(err)
				}
			}
			const runs = 20
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for i := 0; i < runs; i++ {
				if _, err := st.Compile(s, topo, reqs); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			if m := after.Mallocs - before.Mallocs; m != 0 {
				t.Fatalf("warm Combined compile allocates %.1f per run at GOMAXPROCS=2, want 0", float64(m)/runs)
			}
		})
	}
}

// TestIncrementalSteadyStateAllocs pins the live-schedule patch loop —
// Update to a drifted target plus Result — at zero allocations once warm.
func TestIncrementalSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	topo, err := topology.Parse("torus-8x8")
	if err != nil {
		t.Fatal(err)
	}
	nn := topo.NumNodes()
	rng := splitmix64(7)
	a := randomPattern(&rng, nn, 128)
	b := append(a[:96:96].Clone(), randomPattern(&rng, nn, 32)...) // 3/4 overlap
	base, err := schedule.Coloring{}.Schedule(topo, a)
	if err != nil {
		t.Fatal(err)
	}
	inc, err := schedule.NewIncremental(base)
	if err != nil {
		t.Fatal(err)
	}
	targets := [2]request.Set{b, a}
	step := func(i int) {
		if _, _, err := inc.Update(targets[i%2]); err != nil {
			t.Fatal(err)
		}
		if got := inc.Result("coloring+delta"); got.Degree() == 0 {
			t.Fatal("patched schedule is empty")
		}
	}
	for i := 0; i < 6; i++ { // settle the slot-lane and scratch capacities
		step(i)
	}
	i := 0
	n := testing.AllocsPerRun(20, func() {
		step(i)
		i++
	})
	if n != 0 {
		t.Fatalf("steady-state Update+Result allocates %.1f per run, want 0", n)
	}
}

// TestLowerBoundSteadyStateAllocs pins the pooled LowerBound entry point.
func TestLowerBoundSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	topo, err := topology.Parse("torus-8x8")
	if err != nil {
		t.Fatal(err)
	}
	rng := splitmix64(11)
	reqs := randomPattern(&rng, topo.NumNodes(), 128)
	if _, err := schedule.LowerBound(topo, reqs); err != nil {
		t.Fatal(err)
	}
	n := testing.AllocsPerRun(20, func() {
		if _, err := schedule.LowerBound(topo, reqs); err != nil {
			t.Fatal(err)
		}
	})
	if n != 0 {
		t.Fatalf("steady-state LowerBound allocates %.1f per run, want 0", n)
	}
}
