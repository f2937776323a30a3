package network_test

import (
	"errors"
	"reflect"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/topology"
)

// smallTopologies is one small value of every family topology.Parse
// accepts, in both spellings where the family has two.
var smallTopologies = []string{
	"torus-4x4", "torus-5x3", "mesh-4x3", "torus3d-3x3x2", "ring-7",
	"linear-6", "hypercube-4", "omega-16", "dragonfly-2x4x2",
	"dragonfly:4,4,1", "fattree-4", "fattree:6",
}

// checkAllPairs compares the table against the topology's own Route for
// every (src, dst) over all nodes, twice: the first pass fills, the second
// reads filled entries. Pairs Route rejects must be rejected alike.
func checkAllPairs(t *testing.T, topo network.Topology) {
	t.Helper()
	n := topo.NumNodes()
	for pass := 0; pass < 2; pass++ {
		rs := network.RoutesOf(topo)
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				src, dst := network.NodeID(s), network.NodeID(d)
				want, werr := topo.Route(src, dst)
				got, gerr := rs.Route(src, dst)
				if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
					t.Fatalf("%s pass %d: %d->%d error %v, want %v", topo.Name(), pass, s, d, gerr, werr)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s pass %d: %d->%d = %v, want %v", topo.Name(), pass, s, d, got, want)
				}
			}
		}
	}
}

// checkMemoized fails unless topo carries a route table: a repeat lookup
// must share the first one's links instead of routing again.
func checkMemoized(t *testing.T, topo network.Topology) {
	t.Helper()
	src, dst := network.NodeID(0), network.NodeID(network.TerminalCount(topo)-1)
	first, err := network.CachedRoute(topo, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	again, err := network.CachedRoute(topo, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if &first.Links[0] != &again.Links[0] {
		t.Fatalf("%s: %d->%d was routed again; the topology carries no route table", topo.Name(), src, dst)
	}
}

// TestCachedRouteMatchesRoute: on every family, at small sizes, the table
// returns exactly the topology's route for every pair, interior switches of
// the multistage fabrics included, filled or not, and every family is
// memoized.
func TestCachedRouteMatchesRoute(t *testing.T) {
	for _, name := range smallTopologies {
		topo, err := topology.Parse(name)
		if err != nil {
			t.Fatal(err)
		}
		checkAllPairs(t, topo)
		checkMemoized(t, topo)
	}
}

// TestRouteTableMaskedDetours: masked views that force BFS detours, and
// ones whose failed switch disconnects pairs, match their own Route; the
// base's table, read underneath, is left holding the base's routes.
func TestRouteTableMaskedDetours(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	detour := fault.NewSet()
	for _, l := range []network.LinkID{0, 5, 9, 22, 40} {
		detour.FailLink(l)
	}
	dead := fault.NewSet()
	dead.FailNode(6)
	tree := topology.NewFatTree(4)
	treeFaults := fault.NewSet()
	treeFaults.FailLink(network.LinkID(tree.N + 1)) // an edge uplink
	treeFaults.FailNode(network.NodeID(tree.N + 2)) // an edge switch
	views := []*fault.Masked{
		fault.NewMasked(torus, detour),
		fault.NewMasked(torus, dead),
		fault.NewMasked(tree, treeFaults),
	}
	detours := 0
	for _, m := range views {
		checkAllPairs(t, m)
		checkMemoized(t, m)
		for s := 0; s < network.TerminalCount(m); s++ {
			for d := 0; d < network.TerminalCount(m); d++ {
				mp, merr := m.Route(network.NodeID(s), network.NodeID(d))
				bp, berr := m.Base.Route(network.NodeID(s), network.NodeID(d))
				if merr == nil && berr == nil && !reflect.DeepEqual(mp, bp) {
					detours++
				}
			}
		}
	}
	if detours == 0 {
		t.Fatal("no masked view detoured; test premise broken")
	}
	checkAllPairs(t, torus)
	checkAllPairs(t, tree)
}

// countingTorus counts Route calls and embeds a table of its own.
type countingTorus struct {
	*topology.Torus
	network.RouteTable
	calls atomic.Int64
}

func (c *countingTorus) Route(src, dst network.NodeID) (network.Path, error) {
	c.calls.Add(1)
	return c.Torus.Route(src, dst)
}

// TestCachedRouteErrorsNotCached: a self-loop or a bad node is asked of the
// topology every time, while a good pair is routed once.
func TestCachedRouteErrorsNotCached(t *testing.T) {
	c := &countingTorus{Torus: topology.NewTorus(4, 4)}
	for i := 0; i < 3; i++ {
		if _, err := network.CachedRoute(c, 3, 3); !errors.Is(err, network.ErrSelfLoop) {
			t.Fatalf("self-loop error = %v", err)
		}
		if _, err := network.CachedRoute(c, -1, 3); !errors.Is(err, network.ErrBadNode) {
			t.Fatalf("bad-node error = %v", err)
		}
		if _, err := network.CachedRoute(c, 3, 16); !errors.Is(err, network.ErrBadNode) {
			t.Fatalf("bad-node error = %v", err)
		}
	}
	if n := c.calls.Load(); n != 9 {
		t.Fatalf("%d Route calls for 9 failing lookups; errors were cached", n)
	}
	for i := 0; i < 3; i++ {
		if _, err := network.CachedRoute(c, 1, 2); err != nil {
			t.Fatal(err)
		}
	}
	if n := c.calls.Load(); n != 10 {
		t.Fatalf("%d Route calls after 3 lookups of one good pair, want 10", n)
	}
}

// TestRouteTableMaskedErrorsNotCached: a pair a failed switch disconnects
// keeps failing with ErrNoRoute on every lookup, filled table or not.
func TestRouteTableMaskedErrorsNotCached(t *testing.T) {
	set := fault.NewSet()
	set.FailNode(5)
	m := fault.NewMasked(topology.NewTorus(4, 4), set)
	for i := 0; i < 2; i++ {
		if _, err := network.CachedRoute(m, 5, 1); !errors.Is(err, network.ErrNoRoute) {
			t.Fatalf("lookup %d: error %v, want ErrNoRoute", i, err)
		}
	}
}

// TestInvalidateRoutesAfterMutation: InvalidateRoutes after a Tie change
// makes the torus re-route; without it the stale path would be served.
func TestInvalidateRoutesAfterMutation(t *testing.T) {
	torus := topology.NewTorus(4, 4)
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
		t.Fatal("table did not serve the memoized path")
	}
	network.InvalidateRoutes(torus)
	fresh, err := network.CachedRoute(torus, src, dst)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, direct) {
		t.Fatalf("after invalidation got %v, want %v", fresh, direct)
	}
	network.InvalidateRoutes(nil) // a no-op, not a panic
}

// TestRouteCacheDistinctTopologies: two values with equal dimensions never
// share a table, so a tie-policy difference shows through.
func TestRouteCacheDistinctTopologies(t *testing.T) {
	a := topology.NewTorus(4, 4)
	b := topology.NewTorus(4, 4)
	b.Tie = topology.TieNegative
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

// TestCachedRouteConcurrent starts 8 goroutines at once on a fresh
// torus, all touching the same rows first; run under -race it checks the
// block and entry publication.
func TestCachedRouteConcurrent(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			rs := network.RoutesOf(torus)
			for s := 0; s < 64; s++ {
				for d := 0; d < 64; d++ {
					if s == d {
						continue
					}
					p, err := rs.Route(network.NodeID(s), network.NodeID(d))
					if err != nil {
						errs <- err
						return
					}
					want, _ := torus.Route(network.NodeID(s), network.NodeID(d))
					if !reflect.DeepEqual(p, want) {
						errs <- errors.New("concurrent fill returned a wrong path")
						return
					}
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestRouteTableWarmReadAllocs: reading a filled entry allocates nothing,
// through a fetched handle or through CachedRoute.
func TestRouteTableWarmReadAllocs(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rs := network.RoutesOf(torus)
	read := func() {
		for d := 1; d < 64; d++ {
			if _, err := rs.Route(0, network.NodeID(d)); err != nil {
				t.Fatal(err)
			}
			if _, err := network.CachedRoute(torus, network.NodeID(d), 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	read()
	if avg := testing.AllocsPerRun(20, read); avg != 0 {
		t.Fatalf("warm route-table reads allocate %.1f times per run, want 0", avg)
	}
}

// TestRouteCacheBounded: a topology of 8,192 nodes is memoized like a small
// one, and a sparse exchange on it, one destination per source, costs the
// table about 600 bytes per pair beyond the paths themselves: the source's
// row of 32 mid-node pointers, one mid node, one block, one links header
// and a directory word. A row of 16-destination blocks per source would
// cost over 4 KiB per pair, a directory of 64-destination blocks 8 KiB.
func TestRouteCacheBounded(t *testing.T) {
	h := topology.NewHypercube(13)
	const n, pairs = 8192, 2048
	pair := func(i int) (network.NodeID, network.NodeID) {
		return network.NodeID(4 * i), network.NodeID((4*i*2654435761 + 1) % n)
	}
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	direct := allocated(func() {
		for i := 0; i < pairs; i++ {
			if _, err := h.Route(pair(i)); err != nil {
				t.Fatal(err)
			}
		}
	})
	rs := network.RoutesOf(h) // the directory: one row pointer per source
	first := make([]network.Path, pairs)
	tabled := allocated(func() {
		for i := range first {
			p, err := rs.Route(pair(i))
			if err != nil {
				t.Fatal(err)
			}
			first[i] = p
		}
	})
	perPair := (int64(tabled) - int64(direct)) / pairs
	t.Logf("%d table bytes per sparse pair", perPair)
	if perPair > 2048 {
		t.Fatalf("the table costs %d bytes per sparse pair on %d nodes, want at most 2048", perPair, n)
	}
	for i, p := range first {
		src, dst := pair(i)
		want, err := h.Route(src, dst)
		if err != nil {
			t.Fatal(err)
		}
		again, err := network.CachedRoute(h, src, dst)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(p, want) || !reflect.DeepEqual(again, want) {
			t.Fatalf("pair %d: got %v then %v, want %v", i, p, again, want)
		}
		if &again.Links[0] != &p.Links[0] {
			t.Fatalf("pair %d was routed again instead of served from the table", i)
		}
	}
}
