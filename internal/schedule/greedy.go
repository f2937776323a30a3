package schedule

import (
	"repro/internal/network"
	"repro/internal/request"
)

// Greedy is the first-fit scheduler of Fig. 2. It repeatedly builds a
// configuration by scanning the remaining requests in order and inserting
// every request that does not conflict with the configuration so far, until
// all requests are placed. The outcome depends on the order of the request
// set (the Fig. 3 example exploits exactly that), which the ordered-AAPC
// algorithm turns to its advantage.
type Greedy struct{}

// Name implements Scheduler.
func (Greedy) Name() string { return "greedy" }

// Schedule implements Scheduler.
func (g Greedy) Schedule(t network.Topology, reqs request.Set) (*Result, error) {
	return pooledSchedule(g, t, reqs)
}

func (Greedy) scheduleInto(st *CompileState, t network.Topology, reqs request.Set) (*Result, error) {
	if err := reqs.Validate(t); err != nil {
		return nil, err
	}
	st.bind(t)
	paths, err := st.routes(t, reqs)
	if err != nil {
		return nil, err
	}
	st.greedyConfigs(reqs, paths)
	return st.finish("greedy", t), nil
}

// greedyPartition runs the Fig. 2 loop on pre-routed requests, returning
// freshly allocated configurations. It serves Exact, whose branch-and-bound
// incumbent outlives the run; the hot scheduling paths use the arena's
// greedyConfigs instead.
func greedyPartition(t network.Topology, reqs request.Set, paths []network.Path) []request.Set {
	remaining := make([]int, len(reqs)) // indices into reqs, in order
	for i := range remaining {
		remaining[i] = i
	}
	var configs []request.Set
	var occ network.BitOccupancy
	occ.Bind(t)
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
