package sim

// The map-based register delta, kept verbatim (modulo renames) as the
// differential-testing oracle for RegisterDelta's flat table: it builds
// every (switch, slot) entry's sorted circuit set for both schedules and
// compares the sets entry by entry. TestRegisterDeltaMatchesOracle and
// FuzzRegisterDelta hold the two equal switch by switch.

import (
	"sort"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
)

// slotKey identifies one register entry position: switch s, TDM slot u.
func slotKey(s network.NodeID, k int, u int) int64 { return int64(s)*int64(k) + int64(u) }

// circuitSets builds the canonical per-(switch, slot) circuit sets of a
// schedule: which circuits cross each switch in each TDM slot. Two equal
// sets imply byte-identical crossbar register entries because routing is
// deterministic.
func circuitSets(res *schedule.Result) (map[int64]request.Set, error) {
	k := res.Degree()
	sets := make(map[int64]request.Set)
	for u, cfg := range res.Configs {
		for _, r := range cfg {
			if err := pathSwitches(res.Topology, r, func(s network.NodeID) {
				sets[slotKey(s, k, u)] = append(sets[slotKey(s, k, u)], r)
			}); err != nil {
				return nil, err
			}
		}
	}
	for key, set := range sets {
		sort.Slice(set, func(i, j int) bool {
			if set[i].Src != set[j].Src {
				return set[i].Src < set[j].Src
			}
			return set[i].Dst < set[j].Dst
		})
		sets[key] = set
	}
	return sets, nil
}

func sameSet(a, b request.Set) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// registerDeltaOracle is RegisterDelta as the map of sorted circuit sets
// computed it.
func registerDeltaOracle(prev, next *schedule.Result) (PhaseLoad, error) {
	if prev == nil || prev.Degree() != next.Degree() {
		return RegisterLoad(next)
	}
	if prev == next {
		return PhaseLoad{}, nil
	}
	k := next.Degree()
	prevSets, err := circuitSets(prev)
	if err != nil {
		return PhaseLoad{}, err
	}
	nextSets, err := circuitSets(next)
	if err != nil {
		return PhaseLoad{}, err
	}
	per := make([]int, next.Topology.NumNodes())
	for key, set := range nextSets {
		if !sameSet(set, prevSets[key]) {
			per[key/int64(k)]++
		}
	}
	return tallyLoad(per), nil
}
