// Package schedule implements the paper's off-line connection-scheduling
// algorithms — the core contribution of "Compiled Communication for
// All-Optical TDM Networks" (SC'96).
//
// Given a topology and a set of connection requests, a Scheduler partitions
// the requests into configurations: sets of connections that can be
// established simultaneously because no two of them conflict. The number of
// configurations equals the TDM multiplexing degree required to satisfy the
// request set, which the compiler seeks to minimize since communication time
// in a multiplexed network is proportional to the multiplexing degree.
//
// Four schedulers are provided, mirroring the paper:
//
//   - Greedy        — Fig. 2, first-fit in request order.
//   - Coloring      — Fig. 4, conflict-graph coloring with dynamic
//     fewest-conflicts-first priorities.
//   - OrderedAAPC   — Fig. 5, reorder by ranked all-to-all phases + greedy.
//   - Combined      — best of Coloring and OrderedAAPC (used by the
//     compiler in the paper's simulation study).
package schedule

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/request"
)

// Result is a complete connection schedule: a partition of the request set
// into conflict-free configurations, one per TDM time slot.
type Result struct {
	// Algorithm is the name of the scheduler that produced the result.
	Algorithm string
	// Topology the schedule was computed for.
	Topology network.Topology
	// Configs partitions the requests; Configs[k] is established during
	// time slot k of every TDM frame.
	Configs []request.Set
	// Slot maps each request to the index of its configuration. Results
	// owned by a CompileState leave it nil (read Configs); detached,
	// decoded and hand-built Results fill it.
	Slot map[request.Request]int
}

// Degree returns the multiplexing degree of the schedule (the number of
// configurations, K in the paper).
func (r *Result) Degree() int { return len(r.Configs) }

// NumRequests returns the total number of scheduled connections.
func (r *Result) NumRequests() int {
	n := 0
	for _, c := range r.Configs {
		n += len(c)
	}
	return n
}

// newResult assembles a Result and its slot index from configurations.
func newResult(alg string, t network.Topology, configs []request.Set) *Result {
	slot := make(map[request.Request]int)
	for k, c := range configs {
		for _, req := range c {
			slot[req] = k
		}
	}
	return &Result{Algorithm: alg, Topology: t, Configs: configs, Slot: slot}
}

// Validate checks that the schedule is correct: every request of the
// original set appears in exactly one configuration, no configuration is
// empty, and no two connections within a configuration conflict. Routes
// come from the topology's route table and each configuration is checked
// on one reused bit occupancy; the two request multisets are compared as
// maps.
func (r *Result) Validate(reqs request.Set) error {
	want := make(map[request.Request]int, len(reqs))
	for _, q := range reqs {
		want[q]++
	}
	got := make(map[request.Request]int, len(reqs))
	if len(r.Configs) > 0 {
		var occ network.BitOccupancy
		occ.Bind(r.Topology)
		rs := network.RoutesOf(r.Topology)
		for k, c := range r.Configs {
			if len(c) == 0 {
				return fmt.Errorf("schedule: configuration %d is empty", k)
			}
			occ.Reset()
			for _, q := range c {
				p, err := rs.Route(q.Src, q.Dst)
				if err != nil {
					return fmt.Errorf("schedule: config %d request %v: %w", k, q, err)
				}
				if !occ.CanAdd(p) {
					return fmt.Errorf("schedule: config %d has conflicting request %v", k, q)
				}
				occ.Add(p)
				got[q]++
			}
		}
	}
	for q, n := range want {
		if got[q] != n {
			return fmt.Errorf("schedule: request %v scheduled %d times, want %d", q, got[q], n)
		}
	}
	for q, n := range got {
		if want[q] != n {
			return fmt.Errorf("schedule: extraneous request %v scheduled %d times", q, n)
		}
	}
	return nil
}

// Scheduler computes a minimal (heuristic) configuration set for a request
// set on a topology.
type Scheduler interface {
	// Name identifies the algorithm ("greedy", "coloring", ...).
	Name() string
	// Schedule partitions reqs into conflict-free configurations.
	Schedule(t network.Topology, reqs request.Set) (*Result, error)
}

// LowerBound returns a lower bound on the multiplexing degree of any
// schedule for the request set: the maximum over (a) the load of any
// directed link, (b) the number of requests sharing a source (PE injection
// port), and (c) the number sharing a destination (PE ejection port). The
// loads are read off the resource index of a pooled compile arena, the
// same index coloring builds and Combined reads its exit from, so repeated
// bounds (the delta recompiler's quality gate evaluates one per patch) do
// not allocate.
func LowerBound(t network.Topology, reqs request.Set) (int, error) {
	st := statePool.Get().(*CompileState)
	defer statePool.Put(st)
	return st.lowerBound(t, reqs)
}
