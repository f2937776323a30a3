package schedule_test

// Differential test layer for the parallel scheduling pipeline: the
// goroutine fan-out in Combined, the sharded conflict-graph build, and the
// shared route cache must be invisible — every parallel artifact must be
// bit-identical to its sequential counterpart, on every topology.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/patterns"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// randomWithRepeats draws n random requests over nodes PEs without
// deduplication, so the sets exercise repeated (src, dst) pairs.
func randomWithRepeats(rng *rand.Rand, nodes, n int) request.Set {
	set := make(request.Set, 0, n)
	for len(set) < n {
		s := network.NodeID(rng.Intn(nodes))
		d := network.NodeID(rng.Intn(nodes))
		if s == d {
			continue
		}
		set = append(set, request.Request{Src: s, Dst: d})
	}
	return set
}

// determinismTopologies are the five families the differential tests sweep.
func determinismTopologies() []network.Topology {
	return []network.Topology{
		topology.NewLinear(8),
		topology.NewTorus(4, 4),
		topology.NewTorus3D(3, 3, 3),
		topology.NewHypercube(4),
		topology.NewOmega(16),
	}
}

// requireIdentical asserts two schedules are byte-identical: same algorithm
// label, same configurations in the same order with requests in the same
// order, and the same slot index.
func requireIdentical(t *testing.T, label string, seq, par *schedule.Result) {
	t.Helper()
	if seq.Algorithm != par.Algorithm {
		t.Fatalf("%s: algorithm %q (sequential) vs %q (parallel)", label, seq.Algorithm, par.Algorithm)
	}
	if !reflect.DeepEqual(seq.Configs, par.Configs) {
		t.Fatalf("%s: configurations differ:\nsequential: %v\nparallel:   %v", label, seq.Configs, par.Configs)
	}
	if !reflect.DeepEqual(seq.Slot, par.Slot) {
		t.Fatalf("%s: slot index differs", label)
	}
	if fmt.Sprintf("%v", seq.Configs) != fmt.Sprintf("%v", par.Configs) {
		t.Fatalf("%s: rendered schedules differ", label)
	}
}

// TestCombinedParallelMatchesSequential: same seed in, byte-identical
// schedule out, for randomized patterns (duplicates included) on all five
// topology families. Every schedule is re-checked with Validate.
func TestCombinedParallelMatchesSequential(t *testing.T) {
	for _, topo := range determinismTopologies() {
		n := network.TerminalCount(topo)
		rng := rand.New(rand.NewSource(1996))
		sets := []request.Set{patterns.AllToAll(n)}
		for trial := 0; trial < 5; trial++ {
			sets = append(sets, randomWithRepeats(rng, n, 3*n))
		}
		for i, set := range sets {
			label := fmt.Sprintf("%s/set-%d", topo.Name(), i)
			seq, err := schedule.Combined{Sequential: true}.Schedule(topo, set)
			if err != nil {
				t.Fatalf("%s: sequential: %v", label, err)
			}
			par, err := schedule.Combined{}.Schedule(topo, set)
			if err != nil {
				t.Fatalf("%s: parallel: %v", label, err)
			}
			requireIdentical(t, label, seq, par)
			if err := seq.Validate(set); err != nil {
				t.Fatalf("%s: sequential schedule invalid: %v", label, err)
			}
			if err := par.Validate(set); err != nil {
				t.Fatalf("%s: parallel schedule invalid: %v", label, err)
			}
		}
	}
}

// TestCombinedParallelRepeatable: repeated parallel runs of the same input
// are identical to each other — goroutine interleaving must never leak into
// the result.
func TestCombinedParallelRepeatable(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rng := rand.New(rand.NewSource(7))
	set, err := patterns.Random(rng, 64, 1200)
	if err != nil {
		t.Fatal(err)
	}
	ref, err := schedule.Combined{}.Schedule(torus, set)
	if err != nil {
		t.Fatal(err)
	}
	for run := 0; run < 5; run++ {
		got, err := schedule.Combined{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		requireIdentical(t, fmt.Sprintf("run-%d", run), ref, got)
	}
}

// TestCombinedParallelSharedTopology schedules concurrently from many
// goroutines on one shared topology value, exercising the route cache, the
// AAPC decomposition cache, and the conflict-graph shards under -race.
// Every result must equal the sequential reference for its pattern.
func TestCombinedParallelSharedTopology(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rng := rand.New(rand.NewSource(42))
	const numSets = 6
	sets := make([]request.Set, numSets)
	refs := make([]*schedule.Result, numSets)
	for i := range sets {
		var err error
		sets[i], err = patterns.Random(rng, 64, 400+200*i)
		if err != nil {
			t.Fatal(err)
		}
		refs[i], err = schedule.Combined{Sequential: true}.Schedule(torus, sets[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 24)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range sets {
				res, err := schedule.Combined{}.Schedule(torus, sets[i])
				if err != nil {
					errc <- err
					return
				}
				if !reflect.DeepEqual(res.Configs, refs[i].Configs) {
					errc <- fmt.Errorf("set %d: concurrent schedule diverged from sequential reference", i)
					return
				}
				if err := res.Validate(sets[i]); err != nil {
					errc <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatal(err)
	}
}

// withConflictGraphKnobs runs fn with the parallel-build knobs overridden,
// restoring the defaults afterwards.
func withConflictGraphKnobs(cutoff, workers int, fn func()) {
	oldCutoff, oldWorkers := schedule.ConflictGraphParallelCutoff, schedule.ConflictGraphWorkers
	schedule.ConflictGraphParallelCutoff = cutoff
	schedule.ConflictGraphWorkers = workers
	defer func() {
		schedule.ConflictGraphParallelCutoff = oldCutoff
		schedule.ConflictGraphWorkers = oldWorkers
	}()
	fn()
}

// TestConflictGraphShardedMatchesSerial: the sharded row construction yields
// exactly the serial graph — every adjacency bit and every degree.
func TestConflictGraphShardedMatchesSerial(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	rng := rand.New(rand.NewSource(3))
	sets := []request.Set{
		patterns.AllToAll(16),
		randomWithRepeats(rng, 16, 300),
	}
	for si, set := range sets {
		paths, err := set.Routes(torus)
		if err != nil {
			t.Fatal(err)
		}
		var serial, sharded *schedule.ConflictGraph
		withConflictGraphKnobs(1<<30, 1, func() { serial = schedule.BuildConflictGraph(torus, paths) })
		withConflictGraphKnobs(1, 4, func() { sharded = schedule.BuildConflictGraph(torus, paths) })
		if serial.Len() != sharded.Len() || serial.Edges() != sharded.Edges() {
			t.Fatalf("set %d: size mismatch: %d/%d vertices, %d/%d edges",
				si, serial.Len(), sharded.Len(), serial.Edges(), sharded.Edges())
		}
		for i := 0; i < serial.Len(); i++ {
			if serial.Degree(i) != sharded.Degree(i) {
				t.Fatalf("set %d: degree(%d) = %d serial, %d sharded", si, i, serial.Degree(i), sharded.Degree(i))
			}
			for j := 0; j < serial.Len(); j++ {
				if serial.Adjacent(i, j) != sharded.Adjacent(i, j) {
					t.Fatalf("set %d: adjacency (%d,%d) differs", si, i, j)
				}
			}
		}
	}
}

// TestConflictGraphShardedLargeDegreesMatch covers the paper's 4032-request
// all-to-all, where the parallel path actually engages by default: degree
// arrays and edge counts must match the serial build.
func TestConflictGraphShardedLargeDegreesMatch(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	set := patterns.AllToAll(64)
	paths, err := set.Routes(torus)
	if err != nil {
		t.Fatal(err)
	}
	var serial, sharded *schedule.ConflictGraph
	withConflictGraphKnobs(1<<30, 1, func() { serial = schedule.BuildConflictGraph(torus, paths) })
	withConflictGraphKnobs(1, 0, func() { sharded = schedule.BuildConflictGraph(torus, paths) })
	if serial.Edges() != sharded.Edges() {
		t.Fatalf("edges: %d serial, %d sharded", serial.Edges(), sharded.Edges())
	}
	for i := 0; i < serial.Len(); i++ {
		if serial.Degree(i) != sharded.Degree(i) {
			t.Fatalf("degree(%d) = %d serial, %d sharded", i, serial.Degree(i), sharded.Degree(i))
		}
	}
}

// TestCombinedSequentialKnobEquivalence pins the zero-value contract: the
// zero Combined{} is the parallel scheduler and must agree with the
// documented Sequential escape hatch on the paper's own workload.
func TestCombinedSequentialKnobEquivalence(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	set := patterns.AllToAll(64)
	seq, err := schedule.Combined{Sequential: true}.Schedule(torus, set)
	if err != nil {
		t.Fatal(err)
	}
	par, err := schedule.Combined{}.Schedule(torus, set)
	if err != nil {
		t.Fatal(err)
	}
	requireIdentical(t, "all-to-all-64", seq, par)
	if seq.Degree() != 64 {
		t.Fatalf("combined degree %d on the 8x8 torus all-to-all, want 64", seq.Degree())
	}
}
