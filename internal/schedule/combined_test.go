package schedule_test

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/patterns"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// TestCombinedMaskedViewWithoutDecomposition: a failed switch leaves a
// masked view with no all-to-all decomposition, so Combined's AAPC member
// fails on it. Traffic that never touches the dead switch must still be
// scheduled, by coloring, whether or not coloring meets the lower bound —
// and OracleCombined, which runs AAPC on every input, must agree.
func TestCombinedMaskedViewWithoutDecomposition(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	faults := fault.NewSet()
	faults.FailNode(63)
	masked := fault.NewMasked(torus, faults)
	survivor := func(n int) network.NodeID { return network.NodeID(n % 63) }
	var ring, dense request.Set
	for i := 0; i < 63; i++ {
		ring = append(ring, request.Request{Src: survivor(i), Dst: survivor(i + 1)})
	}
	rng := rand.New(rand.NewSource(63))
	for len(dense) < 1200 {
		q := request.Request{Src: survivor(rng.Intn(63)), Dst: survivor(rng.Intn(63))}
		if q.Src != q.Dst {
			dense = append(dense, q)
		}
	}
	for _, tc := range []struct {
		name       string
		reqs       request.Set
		meetsBound bool
	}{
		{"ring-63", ring, true},
		{"random-1200", dense, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			col, err := schedule.Coloring{}.Schedule(masked, tc.reqs)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := schedule.LowerBound(masked, tc.reqs)
			if err != nil {
				t.Fatal(err)
			}
			if got := col.Degree() <= lb; got != tc.meetsBound {
				t.Fatalf("coloring degree %d, bound %d: meets the bound = %v, want %v", col.Degree(), lb, got, tc.meetsBound)
			}
			res, err := schedule.Combined{}.Schedule(masked, tc.reqs)
			if err != nil {
				t.Fatal(err)
			}
			if res.Algorithm != "combined(coloring)" || res.Degree() != col.Degree() {
				t.Fatalf("Combined chose %s at degree %d, want combined(coloring) at %d", res.Algorithm, res.Degree(), col.Degree())
			}
			runDifferential(t, schedule.Combined{}, schedule.OracleCombined{}, masked, tc.reqs)
		})
	}
}

// TestCombinedSharedTopology schedules concurrently from many goroutines on
// one shared topology value, the way the daemon's compile workers run,
// exercising the route table and the AAPC decomposition cache under -race.
// Every result must equal the reference computed before the fan-out.
func TestCombinedSharedTopology(t *testing.T) {
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
		refs[i], err = schedule.Combined{}.Schedule(torus, sets[i])
		if err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errc := make(chan error, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range sets {
				res, err := schedule.Combined{}.Schedule(torus, sets[i])
				if err == nil && canonicalResult(res) != canonicalResult(refs[i]) {
					err = fmt.Errorf("set %d: concurrent schedule diverged from the reference", i)
				}
				if err == nil {
					err = res.Validate(sets[i])
				}
				if err != nil {
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
