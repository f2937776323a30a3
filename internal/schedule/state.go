package schedule

import (
	"fmt"
	"sync"

	"repro/internal/network"
	"repro/internal/request"
)

// grow returns s resized to n elements, reallocating only when the capacity
// is insufficient. Contents are unspecified; callers overwrite.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// growZero is grow with every element zeroed.
func growZero[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// CompileState is the scheduling arena: every scratch structure the bitset
// scheduler core needs — routed paths, the conflict graph and its inverted
// resource index, coloring and greedy work sets, and the Result under
// construction — lives here and is reused across compiles. After the first
// compile of a given size, scheduling through the same state performs zero
// heap allocations (see TestScheduleSteadyStateAllocs), which is what keeps
// the compile service's steady-state latency flat under load.
//
// A CompileState is not safe for concurrent use. The package-level
// Scheduler.Schedule entry points draw states from an internal pool and
// return detached Results; use Compile directly only when the caller owns
// the state and can respect the arena lifetime.
type CompileState struct {
	nl, nn int // resource space of the topology bound by the current compile

	paths []network.Path

	// Conflict graph arena.
	g     ConflictGraph
	gflat []uint64
	grows [][]uint64
	gdeg  []int
	ix    resourceIndex

	// Coloring scratch.
	uncoloredDeg []int
	colored      []uint64 // bitset of the vertices colored so far
	blocked      []uint64
	cand         []int
	ordered      []int
	inConfig     []int
	cnt          []int
	keys         []float64

	// Greedy scratch.
	occ network.BitOccupancy
	rem []int32

	// Ordered-AAPC scratch.
	rank      []int
	phase     []int
	order     []int
	pos       []int
	pcnt      []int
	reordered request.Set
	rpaths    []network.Path

	// Result arena: all configurations share one backing array, sliced into
	// per-slot windows. The arena Result has no Slot map (see finish).
	cfgBack  request.Set
	cfgStart int
	cfgs     []request.Set
	res      Result

	// aux is the second arena Combined's ordered-AAPC member runs in, so
	// both member schedules stay alive for the final comparison.
	aux *CompileState
}

// NewCompileState returns an empty arena. States grow to fit the largest
// compile they have served and keep that memory.
func NewCompileState() *CompileState { return new(CompileState) }

// statePool feeds the package-level Schedule entry points. States returned
// to the pool keep their memory, so a steady stream of same-shaped compiles
// settles into allocation-free scheduling.
var statePool = sync.Pool{New: func() any { return NewCompileState() }}

// Compile schedules reqs on t with scheduler s inside the arena. For the
// paper's heuristics (Greedy, Coloring, OrderedAAPC, Combined) the returned
// Result is owned by the state: it is valid until the next Compile on the
// same state, it carries no Slot index (read Configs), and scheduling
// steady-state is allocation-free. Any other
// Scheduler falls back to its own Schedule method and returns an
// independent Result.
func (st *CompileState) Compile(s Scheduler, t network.Topology, reqs request.Set) (*Result, error) {
	switch sch := s.(type) {
	case Greedy:
		return sch.scheduleInto(st, t, reqs)
	case Coloring:
		return sch.scheduleInto(st, t, reqs)
	case OrderedAAPC:
		return sch.scheduleInto(st, t, reqs)
	case Combined:
		return sch.scheduleInto(st, t, reqs)
	default:
		return s.Schedule(t, reqs)
	}
}

// pooledSchedule runs s through a pooled arena and detaches the result —
// the implementation behind the built-in schedulers' Schedule methods.
func pooledSchedule(s Scheduler, t network.Topology, reqs request.Set) (*Result, error) {
	st := statePool.Get().(*CompileState)
	res, err := st.Compile(s, t, reqs)
	if err != nil {
		statePool.Put(st)
		return nil, err
	}
	out := res.detach()
	statePool.Put(st)
	return out, nil
}

// detach deep-copies an arena-owned Result into independently owned memory
// and builds its Slot index from the configurations.
func (r *Result) detach() *Result {
	out := &Result{Algorithm: r.Algorithm, Topology: r.Topology}
	var back request.Set
	if len(r.Configs) > 0 {
		back = make(request.Set, 0, r.NumRequests())
		out.Configs = make([]request.Set, len(r.Configs))
		for k, c := range r.Configs {
			start := len(back)
			back = append(back, c...)
			out.Configs[k] = back[start:len(back):len(back)]
		}
	}
	out.Slot = make(map[request.Request]int, len(back))
	for k, c := range out.Configs {
		for _, q := range c {
			out.Slot[q] = k
		}
	}
	return out
}

// bind records the resource space of the topology for this compile.
func (st *CompileState) bind(t network.Topology) {
	st.nl, st.nn = t.NumLinks(), t.NumNodes()
}

// routes fills the arena's path slice from the topology's route table;
// same error contract as request.Set.Routes.
func (st *CompileState) routes(t network.Topology, reqs request.Set) ([]network.Path, error) {
	if cap(st.paths) < len(reqs) {
		st.paths = make([]network.Path, 0, len(reqs))
	}
	st.paths = st.paths[:0]
	rs := network.RoutesOf(t)
	for _, r := range reqs {
		p, err := rs.Route(r.Src, r.Dst)
		if err != nil {
			return nil, fmt.Errorf("request %v: %w", r, err)
		}
		st.paths = append(st.paths, p)
	}
	return st.paths, nil
}

// buildGraph constructs the conflict graph in the arena; identical output
// to BuildConflictGraph.
func (st *CompileState) buildGraph(paths []network.Path) *ConflictGraph {
	n := len(paths)
	words := (n + 63) / 64
	st.gflat = growZero(st.gflat, n*words)
	st.grows = grow(st.grows, n)
	for i := range st.grows {
		st.grows[i] = st.gflat[i*words : (i+1)*words]
	}
	st.gdeg = grow(st.gdeg, n)
	st.g = ConflictGraph{n: n, rows: st.grows, deg: st.gdeg}
	st.ix.build(st.nl, st.nn, paths)
	fillRows(&st.g, st.nl, st.nn, paths, &st.ix)
	return &st.g
}

// Configuration builder. All configurations of one compile are windows into
// cfgBack, which is pre-sized to the request count so appends never
// reallocate mid-build.

func (st *CompileState) resetConfigs(n int) {
	if cap(st.cfgBack) < n {
		st.cfgBack = make(request.Set, 0, n)
	}
	st.cfgBack = st.cfgBack[:0]
	st.cfgs = st.cfgs[:0]
}

func (st *CompileState) beginConfig() { st.cfgStart = len(st.cfgBack) }

func (st *CompileState) push(q request.Request) { st.cfgBack = append(st.cfgBack, q) }

func (st *CompileState) endConfig() {
	end := len(st.cfgBack)
	st.cfgs = append(st.cfgs, st.cfgBack[st.cfgStart:end:end])
}

// finish assembles the arena Result. It carries no Slot index: an arena
// Result is read through Configs, and detach builds the index once for the
// Result that leaves the arena.
func (st *CompileState) finish(alg string, t network.Topology) *Result {
	st.res.Algorithm = alg
	st.res.Topology = t
	if len(st.cfgs) == 0 {
		st.res.Configs = nil
	} else {
		st.res.Configs = st.cfgs
	}
	return &st.res
}

// greedyConfigs runs the Fig. 2 first-fit loop on pre-routed requests into
// the arena's configuration builder. Shared by Greedy and OrderedAAPC.
func (st *CompileState) greedyConfigs(reqs request.Set, paths []network.Path) {
	st.resetConfigs(len(reqs))
	st.occ.BindSize(st.nl, st.nn)
	rem := grow(st.rem, len(reqs))[:0]
	for i := range reqs {
		rem = append(rem, int32(i))
	}
	st.rem = rem[:cap(rem)]
	for len(rem) > 0 {
		st.occ.Reset()
		st.beginConfig()
		w := 0
		for _, i := range rem {
			if st.occ.CanAdd(paths[i]) {
				st.occ.Add(paths[i])
				st.push(reqs[i])
			} else {
				rem[w] = i
				w++
			}
		}
		rem = rem[:w]
		st.endConfig()
	}
}

// lowerBound is LowerBound through the arena's resource index, the one
// Combined reads its bound from.
func (st *CompileState) lowerBound(t network.Topology, reqs request.Set) (int, error) {
	st.bind(t)
	paths, err := st.routes(t, reqs)
	if err != nil {
		return 0, err
	}
	st.ix.build(st.nl, st.nn, paths)
	return st.ix.maxLoad(), nil
}
