package delta

import (
	"fmt"
	"strings"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
)

// OraclePatch is the retained map-based original of Patch, kept as the
// differential-testing oracle for the bitset patcher (and for
// schedule.Incremental's batch Update, which must match it byte-for-byte on
// an unchanged topology). Same rules, same determinism, hash-set
// occupancies instead of bitsets.
func OraclePatch(base *schedule.Result, topo network.Topology, target request.Set) (res *schedule.Result, evicted int, err error) {
	if base == nil {
		return nil, 0, fmt.Errorf("delta: nil base schedule")
	}
	if err := target.Validate(topo); err != nil {
		return nil, 0, fmt.Errorf("delta: %w", err)
	}
	d := Compute(Requests(base), target)
	removeLeft := make(map[request.Request]int, len(d.Removed))
	for _, q := range d.Removed {
		removeLeft[q]++
	}
	var (
		configs []request.Set
		occs    []*network.Occupancy
		pending request.Set
	)
	for _, cfg := range base.Configs {
		keep := make(request.Set, 0, len(cfg))
		occ := network.NewOccupancy()
		for _, q := range cfg {
			if removeLeft[q] > 0 {
				removeLeft[q]--
				continue
			}
			p, err := network.CachedRoute(topo, q.Src, q.Dst)
			if err != nil {
				return nil, 0, fmt.Errorf("delta: request %v: %w", q, err)
			}
			if !occ.CanAdd(p) {
				evicted++
				pending = append(pending, q)
				continue
			}
			occ.Add(p)
			keep = append(keep, q)
		}
		if len(keep) > 0 {
			configs = append(configs, keep)
			occs = append(occs, occ)
		}
	}
	pending = append(pending, d.Added...)
	for _, q := range pending {
		p, err := network.CachedRoute(topo, q.Src, q.Dst)
		if err != nil {
			return nil, 0, fmt.Errorf("delta: request %v: %w", q, err)
		}
		placed := false
		for k := range configs {
			if occs[k].CanAdd(p) {
				occs[k].Add(p)
				configs[k] = append(configs[k], q)
				placed = true
				break
			}
		}
		if !placed {
			occ := network.NewOccupancy()
			occ.Add(p)
			occs = append(occs, occ)
			configs = append(configs, request.Set{q})
		}
	}
	alg := base.Algorithm
	if !strings.HasSuffix(alg, "+delta") {
		alg += "+delta"
	}
	slot := make(map[request.Request]int)
	for k, cfg := range configs {
		for _, q := range cfg {
			slot[q] = k
		}
	}
	return &schedule.Result{Algorithm: alg, Topology: topo, Configs: configs, Slot: slot}, evicted, nil
}
