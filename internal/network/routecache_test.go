package network_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/network"
	"repro/internal/topology"
)

// TestCachedRouteMatchesRoute: the cache returns exactly the topology's
// deterministic route for every pair, hit or miss.
func TestCachedRouteMatchesRoute(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	network.InvalidateRoutes(torus)
	for pass := 0; pass < 2; pass++ { // pass 0 fills, pass 1 hits
		for s := 0; s < 16; s++ {
			for d := 0; d < 16; d++ {
				if s == d {
					continue
				}
				want, err := torus.Route(network.NodeID(s), network.NodeID(d))
				if err != nil {
					t.Fatal(err)
				}
				got, err := network.CachedRoute(torus, network.NodeID(s), network.NodeID(d))
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("pass %d: cached route %d->%d = %v, want %v", pass, s, d, got, want)
				}
			}
		}
	}
	network.InvalidateRoutes(torus)
}

// TestCachedRouteErrorsNotCached: self-loops and bad nodes surface the
// topology's errors and leave no entries behind.
func TestCachedRouteErrorsNotCached(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	network.InvalidateRoutes(torus)
	_, before := network.RouteCacheStats()
	if _, err := network.CachedRoute(torus, 3, 3); err != network.ErrSelfLoop {
		t.Fatalf("self-loop error = %v", err)
	}
	if _, err := network.CachedRoute(torus, -1, 3); err != network.ErrBadNode {
		t.Fatalf("bad-node error = %v", err)
	}
	if _, after := network.RouteCacheStats(); after != before {
		t.Fatalf("%d paths cached after errors only", after-before)
	}
	network.InvalidateRoutes(torus)
}

// TestInvalidateRoutesAfterMutation: the invalidation knob makes a mutated
// topology re-route; without it the stale path would be served.
func TestInvalidateRoutesAfterMutation(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	network.InvalidateRoutes(torus)
	src, dst := torus.Node(0, 0), torus.Node(0, 2) // distance 4/2=2: a wrap tie
	before, err := network.CachedRoute(torus, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	torus.Tie = topology.TieNegative // reverses the tied X direction
	direct, err := torus.Route(src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(before, direct) {
		t.Fatal("tie-policy mutation did not change the route; test premise broken")
	}
	// Stale until invalidated.
	stale, err := network.CachedRoute(torus, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(stale, before) {
		t.Fatal("cache did not serve the cached path")
	}
	network.InvalidateRoutes(torus)
	fresh, err := network.CachedRoute(torus, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, direct) {
		t.Fatalf("after invalidation got %v, want %v", fresh, direct)
	}
	network.InvalidateRoutes(torus)
}

// TestRouteCacheDistinctTopologies: two equal-shaped but distinct topology
// values never share entries (identity keying), so mutating one cannot
// poison the other.
func TestRouteCacheDistinctTopologies(t *testing.T) {
	a := topology.NewTorus(4, 4)
	b := topology.NewTorus(4, 4)
	b.Tie = topology.TieNegative
	defer network.InvalidateRoutes(a)
	defer network.InvalidateRoutes(b)
	src, dst := a.Node(0, 0), a.Node(0, 2)
	pa, err := network.CachedRoute(a, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	pb, err := network.CachedRoute(b, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(pa, pb) {
		t.Fatal("distinct topologies with different tie policies returned the same tied route")
	}
}

// TestRouteCacheBounded: flooding the cache with throwaway topologies
// triggers the reset instead of unbounded growth.
func TestRouteCacheBounded(t *testing.T) {
	for i := 0; i < 200; i++ {
		torus := topology.NewTorus(4, 4)
		if _, err := network.CachedRoute(torus, 0, 5); err != nil {
			t.Fatal(err)
		}
	}
	topos, _ := network.RouteCacheStats()
	if topos > 64 {
		t.Fatalf("%d topologies cached; cap not enforced", topos)
	}
}

// TestCachedRouteConcurrent hammers one topology from many goroutines; run
// with -race to check the locking.
func TestCachedRouteConcurrent(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	defer network.InvalidateRoutes(torus)
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for s := 0; s < 64; s++ {
				for d := 0; d < 64; d++ {
					if s == d {
						continue
					}
					p, err := network.CachedRoute(torus, network.NodeID(s), network.NodeID(d))
					if err != nil {
						errs <- err
						return
					}
					if int(p.Src) != s || int(p.Dst) != d {
						errs <- network.ErrBadNode
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}
