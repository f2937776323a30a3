// Package delta is the incremental recompiler: given a previously compiled
// schedule (the base) and a drifted target pattern, it produces a schedule
// for the target by patching the base — evicting departed circuits from
// their configurations and first-fit inserting arrivals — instead of
// rescheduling from scratch.
//
// This is the paper's amortization argument carried one step further:
// compiled communication already pays the scheduling cost once per pattern;
// delta compilation makes a *family* of nearby patterns pay it once. The
// same machinery rebases a healthy schedule onto a fault-masked topology
// view (internal/fault): circuits whose routes survive keep their slots,
// circuits broken by the mask are evicted and reinserted over detour
// routes, so a single failed link perturbs the schedule locally instead of
// forcing a global recompile.
//
// Patching is a heuristic, so quality is guarded, not assumed: Recompile
// accepts a patched schedule only when its multiplexing degree is within a
// configurable bound of the estimated from-scratch degree (the
// schedule.LowerBound of the target); otherwise it falls back to a full
// compile. Either way the returned schedule validates against the target.
//
// Everything here is deterministic: diffs preserve input order, eviction
// walks configurations in slot order, insertion is first-fit — so a patch
// of the same base with the same target is byte-identical (under the
// store's encoding) regardless of worker counts or scheduling of the
// caller.
package delta

import (
	"fmt"
	"strings"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
)

// DefaultBound is the degree-quality gate: a patched schedule whose
// multiplexing degree exceeds DefaultBound × the from-scratch estimate is
// discarded in favor of a full compile.
const DefaultBound = 1.5

// Diff is the multiset difference between a base pattern and a target:
// applying it to the base (remove Removed, add Added) yields exactly the
// target multiset.
type Diff struct {
	// Added lists requests in the target but not the base, in target order.
	Added request.Set
	// Removed lists requests in the base but not the target, in base order.
	Removed request.Set
}

// Size is the edit distance |Added| + |Removed|.
func (d Diff) Size() int { return len(d.Added) + len(d.Removed) }

// Compute returns the multiset diff from base to target. Duplicates count:
// a request appearing twice in the base and once in the target contributes
// one removal. No request appears in both Added and Removed.
func Compute(base, target request.Set) Diff {
	counts := make(map[request.Request]int, len(base))
	for _, r := range base {
		counts[r]++
	}
	var d Diff
	for _, r := range target {
		if counts[r] > 0 {
			counts[r]--
		} else {
			d.Added = append(d.Added, r)
		}
	}
	// counts now holds the base's excess multiplicities; emit them in base
	// order so the diff is deterministic.
	for _, r := range base {
		if counts[r] > 0 {
			counts[r]--
			d.Removed = append(d.Removed, r)
		}
	}
	return d
}

// Requests flattens a schedule's configurations into the request multiset
// it serves, in slot order.
func Requests(r *schedule.Result) request.Set {
	n := 0
	for _, cfg := range r.Configs {
		n += len(cfg)
	}
	out := make(request.Set, 0, n)
	for _, cfg := range r.Configs {
		out = append(out, cfg...)
	}
	return out
}

// Patch rebases base onto topo so that it serves exactly the target
// multiset:
//
//  1. departed requests (base − target) are evicted from their
//     configurations;
//  2. surviving requests are re-routed on topo (identical routes on the
//     same topology; detours on a fault-masked view) and keep their slot
//     when the route still fits — a survivor whose new route now conflicts
//     within its configuration is evicted too;
//  3. evicted survivors and arrivals (target − base) are first-fit
//     inserted, opening new configurations only when nothing fits, exactly
//     like schedule.Extend;
//  4. configurations left empty are dropped.
//
// The base is never modified. The returned schedule's Algorithm is the
// base's with a "+delta" suffix. evicted counts step-2 evictions — the
// survivors the topology change displaced. An unroutable target request
// (e.g. disconnected by a fault mask) is an error wrapping
// network.ErrNoRoute; no schedule can serve that target.
func Patch(base *schedule.Result, topo network.Topology, target request.Set) (res *schedule.Result, evicted int, err error) {
	if base == nil {
		return nil, 0, fmt.Errorf("delta: nil base schedule")
	}
	if err := target.Validate(topo); err != nil {
		return nil, 0, fmt.Errorf("delta: %w", err)
	}
	return patchDiff(base, topo, Compute(Requests(base), target))
}

func patchDiff(base *schedule.Result, topo network.Topology, d Diff) (res *schedule.Result, evicted int, err error) {
	removeLeft := make(map[request.Request]int, len(d.Removed))
	for _, q := range d.Removed {
		removeLeft[q]++
	}
	nl, nn := topo.NumLinks(), topo.NumNodes()
	var (
		configs []request.Set
		occs    []network.BitOccupancy
		pending request.Set // displaced survivors first, then arrivals
	)
	for _, cfg := range base.Configs {
		keep := make(request.Set, 0, len(cfg))
		occs = append(occs, network.BitOccupancy{})
		occ := &occs[len(occs)-1]
		occ.BindSize(nl, nn)
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
		} else {
			occs = occs[:len(occs)-1]
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
			occs = append(occs, network.BitOccupancy{})
			occ := &occs[len(occs)-1]
			occ.BindSize(nl, nn)
			occ.Add(p)
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

// coversExactly checks that the schedule serves exactly the target multiset
// with no empty configuration — the O(n) half of schedule.Validate.
func coversExactly(r *schedule.Result, target request.Set) error {
	want := make(map[request.Request]int, len(target))
	for _, q := range target {
		want[q]++
	}
	n := 0
	for k, cfg := range r.Configs {
		if len(cfg) == 0 {
			return fmt.Errorf("configuration %d is empty", k)
		}
		for _, q := range cfg {
			if want[q] == 0 {
				return fmt.Errorf("request %v scheduled more often than the target holds it", q)
			}
			want[q]--
			n++
		}
	}
	if n != len(target) {
		return fmt.Errorf("%d requests scheduled, target has %d", n, len(target))
	}
	return nil
}

// Options configures Recompile. Zero values select defaults.
type Options struct {
	// Bound accepts a patched schedule whose multiplexing degree is at most
	// Bound × the from-scratch estimate; <= 0 means DefaultBound. A tight
	// bound (1.0) demands lower-bound-optimal patches and falls back to a
	// full compile for anything worse.
	Bound float64
	// Scheduler runs the full compile when patching is rejected or no base
	// exists; nil means the paper's combined algorithm.
	Scheduler schedule.Scheduler
}

func (o Options) bound() float64 {
	if o.Bound <= 0 {
		return DefaultBound
	}
	return o.Bound
}

func (o Options) scheduler() schedule.Scheduler {
	if o.Scheduler == nil {
		return schedule.Combined{}
	}
	return o.Scheduler
}

// Stats reports what one Recompile did.
type Stats struct {
	// Added and Removed size the pattern diff against the base.
	Added, Removed int
	// Evicted counts surviving circuits displaced by route changes.
	Evicted int
	// BaseDegree is the base schedule's multiplexing degree (0 if no base).
	BaseDegree int
	// Degree is the returned schedule's multiplexing degree.
	Degree int
	// Estimate is the from-scratch degree estimate (schedule.LowerBound).
	Estimate int
	// Patched reports whether the patched schedule was accepted; when
	// false, Fallback names why a full compile ran instead.
	Patched  bool
	Fallback string
}

// Recompile produces a schedule for target on topo, preferring an
// incremental patch of base and falling back to a full compile when there
// is no base, the patch fails validation, or the patch's degree exceeds the
// quality bound. The returned schedule always validates against target.
func Recompile(topo network.Topology, base *schedule.Result, target request.Set, opt Options) (*schedule.Result, Stats, error) {
	var st Stats
	full := func(reason string) (*schedule.Result, Stats, error) {
		st.Patched = false
		st.Fallback = reason
		res, err := opt.scheduler().Schedule(topo, target)
		if err != nil {
			return nil, st, err
		}
		st.Degree = res.Degree()
		return res, st, nil
	}
	if base == nil {
		return full("no base schedule")
	}
	st.BaseDegree = base.Degree()
	if err := target.Validate(topo); err != nil {
		return nil, st, fmt.Errorf("delta: %w", err)
	}
	d := Compute(Requests(base), target)
	st.Added, st.Removed = len(d.Added), len(d.Removed)
	res, evicted, err := patchDiff(base, topo, d)
	if err != nil {
		// An unroutable target fails the full compile identically; let the
		// scheduler produce the canonical error.
		return full(fmt.Sprintf("patch failed: %v", err))
	}
	st.Evicted = evicted
	// patchDiff enforces conflict-freedom structurally — every insertion is
	// occupancy-checked — so acceptance only needs the cheap half of
	// schedule.Validate: exact multiset coverage of the target. The full
	// route/conflict re-check would walk every route a third time for a
	// property the construction already guarantees; the package tests (and
	// the service's light-trace verification of patched fault schedules)
	// keep the full check honest.
	if err := coversExactly(res, target); err != nil {
		return full(fmt.Sprintf("patched schedule invalid: %v", err))
	}
	lb, err := schedule.LowerBound(topo, target)
	if err != nil {
		return full(fmt.Sprintf("estimating from-scratch degree: %v", err))
	}
	if lb < 1 {
		lb = 1
	}
	st.Estimate = lb
	if float64(res.Degree()) > opt.bound()*float64(lb) {
		return full(fmt.Sprintf("patched degree %d exceeds %.2f x estimate %d", res.Degree(), opt.bound(), lb))
	}
	st.Patched = true
	st.Degree = res.Degree()
	return res, st, nil
}
