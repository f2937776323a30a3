package schedule

import (
	"repro/internal/network"
	"repro/internal/request"
)

// Combined runs the coloring and the ordered-AAPC schedulers and keeps
// whichever produces the smaller multiplexing degree. The paper's compiler
// uses this algorithm in the simulation study: compiled communication can
// afford to spend extra compile time for better runtime network utilization.
//
// One compile runs on one goroutine; parallelism belongs to the callers that
// own many independent compiles (the daemon's worker pool, the sweeps'
// -workers). Coloring runs first and wins ties: ordered AAPC is kept only
// when strictly better, so once coloring reaches the resource lower bound
// (LowerBound) AAPC cannot win and does not run. Combined fails only when
// coloring fails; an AAPC member that fails — a masked view with no
// all-to-all decomposition — loses to coloring.
type Combined struct {
	coloring Coloring
	aapc     OrderedAAPC
}

// Name implements Scheduler.
func (Combined) Name() string { return "combined" }

// Precomputed winner names keep the steady-state compile path free of
// string concatenation.
const (
	combinedColoringName = "combined(coloring)"
	combinedAAPCName     = "combined(aapc)"
)

// aapcTerminalCutoff is the largest terminal count at which Combined still
// runs its ordered-AAPC member. The AAPC scheduler needs a one-time
// all-to-all decomposition of the topology — an O(N^2 x phases) first-fit
// packing that takes minutes past a few hundred terminals and hours at a
// few thousand — and its dense-pattern degree bound (~N^3/8 phases on a
// torus) never beats coloring at those scales anyway. Above the cutoff
// Combined is its coloring member alone; OracleCombined applies the same
// rule. The paper's own workloads (the 8x8 torus, 64 terminals) sit far
// below the cutoff. It is a variable only so tests can lower it.
var aapcTerminalCutoff = 256

// Schedule implements Scheduler.
func (c Combined) Schedule(t network.Topology, reqs request.Set) (*Result, error) {
	return pooledSchedule(c, t, reqs)
}

func (c Combined) scheduleInto(st *CompileState, t network.Topology, reqs request.Set) (*Result, error) {
	col, err := c.coloring.scheduleInto(st, t, reqs)
	if err != nil {
		return nil, err
	}
	col.Algorithm = combinedColoringName
	// Coloring left the resource index of reqs in st.ix, so the bound
	// costs one pass over its offsets.
	if col.Degree() <= st.ix.maxLoad() || network.TerminalCount(t) > aapcTerminalCutoff {
		return col, nil
	}
	if st.aux == nil {
		st.aux = NewCompileState()
	}
	ap, err := c.aapc.scheduleInto(st.aux, t, reqs)
	if err != nil || ap.Degree() >= col.Degree() {
		return col, nil
	}
	ap.Algorithm = combinedAAPCName
	return ap, nil
}
