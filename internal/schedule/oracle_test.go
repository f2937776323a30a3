package schedule

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/network"
	"repro/internal/request"
)

// This file preserves the pre-bitset, map-based scheduler core as a
// differential-testing oracle, the same retention policy the simulator
// follows: when a hot path is rewritten for speed, the readable
// original stays behind as the executable specification the rewrite is
// compared against. The oracles use network.Occupancy (hash sets keyed by
// resource) and the O(|R|^2) pairwise conflict scan; they share none of the
// bitset machinery. Each oracle reports the same Name and produces the same
// Result.Algorithm as its production counterpart, so results from the two
// cores must be byte-identical under any deterministic encoding — exactly
// what the differential suite asserts.
//
// The oracles live in a test file, so no binary links them; they are
// exported so the external test package can reach them.

// OracleConflictGraph builds the conflict graph by testing every request
// pair with network.Conflicts — the direct transcription of the conflict
// definition, with no inverted index and no bitset sweep. It is the oracle
// for BuildConflictGraph (see FuzzBitsetGraph).
func OracleConflictGraph(paths []network.Path) *ConflictGraph {
	n := len(paths)
	words := (n + 63) / 64
	g := &ConflictGraph{n: n, rows: make([][]uint64, n), deg: make([]int, n)}
	flat := make([]uint64, n*words)
	for i := range g.rows {
		g.rows[i] = flat[i*words : (i+1)*words]
	}
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if network.Conflicts(paths[a], paths[b]) {
				g.rows[a][b/64] |= 1 << uint(b%64)
				g.rows[b][a/64] |= 1 << uint(a%64)
				g.deg[a]++
				g.deg[b]++
			}
		}
	}
	return g
}

// oracleGreedyPartition is the map-based Fig. 2 loop: one hash-set
// occupancy, reset per configuration.
func oracleGreedyPartition(reqs request.Set, paths []network.Path) []request.Set {
	remaining := make([]int, len(reqs))
	for i := range remaining {
		remaining[i] = i
	}
	var configs []request.Set
	occ := network.NewOccupancy()
	for len(remaining) > 0 {
		occ.Reset()
		var config request.Set
		rest := remaining[:0]
		for _, i := range remaining {
			if occ.CanAdd(paths[i]) {
				occ.Add(paths[i])
				config = append(config, reqs[i])
			} else {
				rest = append(rest, i)
			}
		}
		remaining = rest
		configs = append(configs, config)
	}
	return configs
}

// OracleGreedy is the map-based original of Greedy.
type OracleGreedy struct{}

// Name implements Scheduler.
func (OracleGreedy) Name() string { return "greedy" }

// Schedule implements Scheduler.
func (OracleGreedy) Schedule(t network.Topology, reqs request.Set) (*Result, error) {
	if err := reqs.Validate(t); err != nil {
		return nil, err
	}
	paths, err := reqs.Routes(t)
	if err != nil {
		return nil, err
	}
	return newResult("greedy", t, oracleGreedyPartition(reqs, paths)), nil
}

// OracleColoring is the original of Coloring: same Fig. 4 algorithm, same
// priorities, but running on the pairwise-built conflict graph with
// per-call scratch allocation.
type OracleColoring struct {
	// Priority mirrors Coloring.Priority.
	Priority func(pathLen, uncoloredDeg int) float64
}

// Name implements Scheduler.
func (OracleColoring) Name() string { return "coloring" }

// Schedule implements Scheduler.
func (c OracleColoring) Schedule(t network.Topology, reqs request.Set) (*Result, error) {
	if err := reqs.Validate(t); err != nil {
		return nil, err
	}
	paths, err := reqs.Routes(t)
	if err != nil {
		return nil, err
	}
	g := OracleConflictGraph(paths)
	n := g.Len()

	uncoloredDeg := make([]int, n)
	for i := 0; i < n; i++ {
		uncoloredDeg[i] = g.Degree(i)
	}
	colored := make([]bool, n)
	var configs []request.Set
	blocked := make([]uint64, g.Words())
	for remaining := n; remaining > 0; {
		// Order the uncolored vertices by current priority, ties broken by
		// ascending id — a plain stable comparison sort, with no counting
		// shortcut.
		var cand []int
		for v := 0; v < n; v++ {
			if !colored[v] {
				cand = append(cand, v)
			}
		}
		prio := func(v int) float64 {
			if c.Priority != nil {
				return c.Priority(paths[v].Len(), uncoloredDeg[v])
			}
			return float64(uncoloredDeg[v])
		}
		sort.SliceStable(cand, func(a, b int) bool { return prio(cand[a]) > prio(cand[b]) })

		var config request.Set
		var inConfig []int
		clear(blocked)
		for _, v := range cand {
			if blocked[v/64]&(1<<uint(v%64)) != 0 {
				continue
			}
			inConfig = append(inConfig, v)
			config = append(config, reqs[v])
			colored[v] = true
			g.OrInto(blocked, v)
		}
		for _, v := range inConfig {
			g.Neighbors(v, func(u int) {
				if !colored[u] {
					uncoloredDeg[u]--
				}
			})
		}
		remaining -= len(inConfig)
		configs = append(configs, config)
	}
	return newResult("coloring", t, configs), nil
}

// OracleOrderedAAPC is the original of OrderedAAPC: rank phases with a
// stable comparison sort, reorder with freshly allocated buffers, and run
// the map-based greedy loop.
type OracleOrderedAAPC struct {
	// DisableRanking mirrors OrderedAAPC.DisableRanking.
	DisableRanking bool
}

// Name implements Scheduler.
func (OracleOrderedAAPC) Name() string { return "aapc" }

// Schedule implements Scheduler.
func (o OracleOrderedAAPC) Schedule(t network.Topology, reqs request.Set) (*Result, error) {
	if err := reqs.Validate(t); err != nil {
		return nil, err
	}
	set, err := DecompositionFor(t)
	if err != nil {
		return nil, err
	}
	paths, err := reqs.Routes(t)
	if err != nil {
		return nil, err
	}
	rank := make([]int, set.NumPhases())
	phase := make([]int, len(reqs))
	for i, r := range reqs {
		k, ok := set.PhaseOf(r)
		if !ok {
			return nil, fmt.Errorf("schedule: request %v not in AAPC decomposition of %s", r, t.Name())
		}
		phase[i] = k
		rank[k] += paths[i].Len()
	}
	order := make([]int, set.NumPhases())
	for i := range order {
		order[i] = i
	}
	if !o.DisableRanking {
		sort.SliceStable(order, func(a, b int) bool { return rank[order[a]] > rank[order[b]] })
	}
	pos := make([]int, set.NumPhases())
	for i, k := range order {
		pos[k] = i
	}
	type item struct {
		req  request.Request
		path network.Path
		pos  int
		idx  int
	}
	items := make([]item, len(reqs))
	for i := range reqs {
		items[i] = item{reqs[i], paths[i], pos[phase[i]], i}
	}
	sort.SliceStable(items, func(a, b int) bool { return items[a].pos < items[b].pos })
	reordered := make(request.Set, len(reqs))
	rpaths := make([]network.Path, len(reqs))
	for i, it := range items {
		reordered[i] = it.req
		rpaths[i] = it.path
	}
	return newResult("aapc", t, oracleGreedyPartition(reordered, rpaths)), nil
}

// OracleCombined is the original of Combined, racing the two map-based
// members with the same deterministic selection and error rules.
type OracleCombined struct {
	// Sequential mirrors Combined.Sequential.
	Sequential bool
}

// Name implements Scheduler.
func (OracleCombined) Name() string { return "combined" }

// Schedule implements Scheduler.
func (c OracleCombined) Schedule(t network.Topology, reqs request.Set) (*Result, error) {
	if network.TerminalCount(t) > AAPCTerminalCutoff {
		col, err := OracleColoring{}.Schedule(t, reqs)
		if err != nil {
			return nil, err
		}
		return &Result{
			Algorithm: "combined(" + col.Algorithm + ")",
			Topology:  col.Topology,
			Configs:   col.Configs,
			Slot:      col.Slot,
		}, nil
	}
	var col, ap *Result
	var colErr, apErr error
	if c.Sequential {
		col, colErr = OracleColoring{}.Schedule(t, reqs)
		if colErr != nil {
			return nil, colErr
		}
		ap, apErr = OracleOrderedAAPC{}.Schedule(t, reqs)
	} else {
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			ap, apErr = OracleOrderedAAPC{}.Schedule(t, reqs)
		}()
		col, colErr = OracleColoring{}.Schedule(t, reqs)
		wg.Wait()
	}
	if colErr != nil {
		return nil, colErr
	}
	if apErr != nil {
		return nil, apErr
	}
	best := col
	if ap.Degree() < col.Degree() {
		best = ap
	}
	return &Result{
		Algorithm: "combined(" + best.Algorithm + ")",
		Topology:  best.Topology,
		Configs:   best.Configs,
		Slot:      best.Slot,
	}, nil
}

// OracleExtend is the original of Extend: clone every configuration,
// rebuild a map occupancy per slot, and first-fit the extras.
func OracleExtend(r *Result, extra request.Set) (*Result, error) {
	if err := extra.Validate(r.Topology); err != nil {
		return nil, err
	}
	configs := make([]request.Set, r.Degree())
	occs := make([]*network.Occupancy, r.Degree())
	for k, cfg := range r.Configs {
		configs[k] = cfg.Clone()
		occs[k] = network.NewOccupancy()
		for _, req := range cfg {
			p, err := network.CachedRoute(r.Topology, req.Src, req.Dst)
			if err != nil {
				return nil, fmt.Errorf("schedule: extend: %w", err)
			}
			occs[k].Add(p)
		}
	}
	for _, req := range extra {
		p, err := network.CachedRoute(r.Topology, req.Src, req.Dst)
		if err != nil {
			return nil, fmt.Errorf("schedule: extend: %w", err)
		}
		placed := false
		for k := range configs {
			if occs[k].CanAdd(p) {
				occs[k].Add(p)
				configs[k] = append(configs[k], req)
				placed = true
				break
			}
		}
		if !placed {
			occ := network.NewOccupancy()
			occ.Add(p)
			occs = append(occs, occ)
			configs = append(configs, request.Set{req})
		}
	}
	return newResult(r.Algorithm+"+extend", r.Topology, configs), nil
}
