package schedule

import (
	"math/bits"
	"slices"

	"repro/internal/network"
	"repro/internal/request"
)

// Coloring is the graph-coloring scheduler of Fig. 4. It builds the
// conflict graph, assigns each request the priority
//
//	priority(i) = pathLength(i) / degreeAmongUncolored(i)
//
// ("fewer conflicts and longer connections first"), and repeatedly fills a
// configuration by taking the highest-priority request that does not
// conflict with the configuration built so far. Priorities are recomputed
// as vertices are colored, because degrees are counted only in the
// uncolored subgraph.
type Coloring struct {
	// Priority overrides the priority function when non-nil; used by the
	// ablation benchmarks. It receives the connection's path length and its
	// current degree among uncolored vertices (possibly zero).
	Priority func(pathLen, uncoloredDeg int) float64
}

// Name implements Scheduler.
func (Coloring) Name() string { return "coloring" }

// The default priority (Priority == nil) orders vertices by descending
// degree in the uncolored subgraph (most-constrained first, Welsh-Powell
// style). The paper's text describes the opposite ratio — see
// PaperRatioPriority — but in our implementation that ratio schedules
// *worse* than plain greedy, while degree ordering reproduces the paper's
// measured relationship (coloring consistently below greedy on the Table 1
// sweep). The ablation benchmark BenchmarkAblationColoringPriority compares
// both. Because the default priority is an integer degree, Schedule
// implements it as a counting sort rather than a comparison sort.

// PaperRatioPriority is the literal priority of Fig. 4's description: the
// ratio of the connection's link count to its degree among uncolored
// vertices, larger first ("less conflict connections first"). Vertices with
// no remaining conflicts get an effectively infinite priority.
func PaperRatioPriority(pathLen, uncoloredDeg int) float64 {
	if uncoloredDeg == 0 {
		return float64(pathLen) * 1e12
	}
	return float64(pathLen) / float64(uncoloredDeg)
}

// Schedule implements Scheduler.
func (c Coloring) Schedule(t network.Topology, reqs request.Set) (*Result, error) {
	return pooledSchedule(c, t, reqs)
}

func (c Coloring) scheduleInto(st *CompileState, t network.Topology, reqs request.Set) (*Result, error) {
	if err := reqs.Validate(t); err != nil {
		return nil, err
	}
	st.bind(t)
	paths, err := st.routes(t, reqs)
	if err != nil {
		return nil, err
	}
	g := st.buildGraph(paths)
	n := g.Len()

	st.uncoloredDeg = grow(st.uncoloredDeg, n)
	uncoloredDeg := st.uncoloredDeg
	for i := 0; i < n; i++ {
		uncoloredDeg[i] = g.Degree(i)
	}
	words := g.Words()
	st.colored = growZero(st.colored, words)
	colored := st.colored // bit v set once vertex v is colored

	st.resetConfigs(n)
	st.blocked = grow(st.blocked, words)
	blocked := st.blocked
	st.cand = grow(st.cand, n)
	st.ordered = grow(st.ordered, n)
	st.inConfig = grow(st.inConfig, n)
	ordered := st.ordered
	var cnt []int      // degree histogram for the default priority
	var keys []float64 // per-vertex priorities for custom functions
	if c.Priority == nil {
		st.cnt = growZero(st.cnt, n+1)
		cnt = st.cnt
	} else {
		st.keys = grow(st.keys, n)
		keys = st.keys
	}
	for remaining := n; remaining > 0; {
		// Sort the uncolored set by current priority (line 6 of Fig. 4),
		// ties broken by ascending vertex id so the order is total and any
		// correct sort yields the same permutation. The default
		// descending-degree priority sorts by counting: a stable bucket
		// pass over the ascending-id candidate list lands each degree
		// class in id order.
		cand := st.cand[:0]
		for w, word := range colored {
			free := ^word
			if w == words-1 && n%64 != 0 {
				free &= 1<<uint(n%64) - 1
			}
			for ; free != 0; free &= free - 1 {
				cand = append(cand, w*64+bits.TrailingZeros64(free))
			}
		}
		round := cand
		if c.Priority == nil {
			maxd := 0
			for _, v := range cand {
				d := uncoloredDeg[v]
				cnt[d]++
				if d > maxd {
					maxd = d
				}
			}
			start := 0
			for d := maxd; d >= 0; d-- {
				size := cnt[d]
				cnt[d] = start
				start += size
			}
			round = ordered[:len(cand)]
			for _, v := range cand {
				d := uncoloredDeg[v]
				round[cnt[d]] = v
				cnt[d]++
			}
			for d := 0; d <= maxd; d++ {
				cnt[d] = 0
			}
		} else {
			for _, v := range cand {
				keys[v] = c.Priority(paths[v].Len(), uncoloredDeg[v])
			}
			slices.SortFunc(round, func(a, b int) int {
				switch {
				case keys[a] > keys[b]:
					return -1
				case keys[a] < keys[b]:
					return 1
				default:
					return a - b
				}
			})
		}
		// WORK starts as the whole sorted NCSET; coloring a vertex removes
		// its neighbors from WORK. "blocked" accumulates exactly those
		// removed vertices: the union of the colored vertices' adjacency.
		inConfig := st.inConfig[:0]
		clear(blocked)
		st.beginConfig()
		for _, v := range round {
			if blocked[v/64]&(1<<uint(v%64)) != 0 {
				continue
			}
			inConfig = append(inConfig, v)
			st.push(reqs[v])
			colored[v/64] |= 1 << uint(v%64)
			g.OrInto(blocked, v)
		}
		// Update degrees in the uncolored subgraph (line 14 of Fig. 4): a
		// word of each new color's row at a time, uncolored neighbours
		// only.
		for _, v := range inConfig {
			for w, word := range g.rows[v] {
				for word &^= colored[w]; word != 0; word &= word - 1 {
					uncoloredDeg[w*64+bits.TrailingZeros64(word)]--
				}
			}
		}
		remaining -= len(inConfig)
		st.endConfig()
	}
	return st.finish("coloring", t), nil
}
