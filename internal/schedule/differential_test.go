package schedule_test

import (
	"errors"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"

	"repro/internal/cliutil"
	"repro/internal/network"
	"repro/internal/patterns"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// This file is the differential-oracle suite for the bitset scheduler core:
// every production scheduler is run against its retained map-based original
// (oracle.go) over the topology families, on table-driven patterns and on
// SplitMix64-generated random multisets, and the two Results must be
// byte-identical under a canonical encoding. OracleCombined runs both of its
// members on every input, so the suite also proves that Combined's
// lower-bound exit, which skips AAPC once coloring meets the bound, never
// changes a schedule.

// splitmix64 is the standard 64-bit mixer — a tiny, dependency-free PRNG
// whose streams are reproducible from the printed seed.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// canonicalResult renders a Result into the byte string equality is judged
// on: algorithm, topology name, configurations in slot order, and the slot
// index in sorted key order.
func canonicalResult(r *schedule.Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "alg=%s topo=%s degree=%d\n", r.Algorithm, r.Topology.Name(), r.Degree())
	for k, cfg := range r.Configs {
		fmt.Fprintf(&b, "slot %d:", k)
		for _, q := range cfg {
			fmt.Fprintf(&b, " %v", q)
		}
		b.WriteByte('\n')
	}
	keys := make([]request.Request, 0, len(r.Slot))
	for q := range r.Slot {
		keys = append(keys, q)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].Src != keys[j].Src {
			return keys[i].Src < keys[j].Src
		}
		return keys[i].Dst < keys[j].Dst
	})
	for _, q := range keys {
		fmt.Fprintf(&b, "%v->%d ", q, r.Slot[q])
	}
	return b.String()
}

// differentialTopologies spans the supported families at sizes small
// enough to keep the full cross product fast. The dragonfly and fat-tree
// entries route PE traffic through internal switches and detour links, so
// they exercise conflict detection on paths the direct families never
// produce.
var differentialTopologies = []string{
	"torus-4x4", "mesh-4x4", "ring-16", "hypercube-4", "omega-16",
	"dragonfly-4x4x1", "dragonfly-2x4x2", "fattree-4",
}

// schedulerPair couples a production scheduler with its map-based oracle.
// Both sides of a pair report the same algorithm name, so byte-identical
// results mean identical schedules, not just equal degrees.
type schedulerPair struct {
	name           string
	bitset, oracle schedule.Scheduler
}

func schedulerPairs() []schedulerPair {
	return []schedulerPair{
		{"greedy", schedule.Greedy{}, schedule.OracleGreedy{}},
		{"coloring", schedule.Coloring{}, schedule.OracleColoring{}},
		{"coloring-ratio", schedule.Coloring{Priority: schedule.PaperRatioPriority},
			schedule.OracleColoring{Priority: schedule.PaperRatioPriority}},
		{"aapc", schedule.OrderedAAPC{}, schedule.OracleOrderedAAPC{}},
		{"aapc-unranked", schedule.OrderedAAPC{DisableRanking: true},
			schedule.OracleOrderedAAPC{DisableRanking: true}},
		{"combined", schedule.Combined{}, schedule.OracleCombined{}},
		{"combined-seq", arenaSequence{schedule.Combined{}}, schedule.OracleCombined{}},
	}
}

// arenaSequence schedules as the second compile on one arena, after an
// all-to-all of the same topology, the way a daemon worker's pooled state
// runs back-to-back compiles of different shapes. Nothing the first compile
// leaves behind — a larger resource index, an AAPC arena — may reach the
// result or Combined's lower-bound exit.
type arenaSequence struct{ s schedule.Scheduler }

func (a arenaSequence) Name() string { return a.s.Name() }

func (a arenaSequence) Schedule(t network.Topology, reqs request.Set) (*schedule.Result, error) {
	st := schedule.NewCompileState()
	if _, err := st.Compile(a.s, t, patterns.AllToAll(network.TerminalCount(t))); err != nil {
		return nil, err
	}
	res, err := st.Compile(a.s, t, reqs)
	if err != nil {
		return nil, err
	}
	// Detach the arena Result, whose Configs the next compile reuses and
	// which carries no Slot index.
	out := &schedule.Result{Algorithm: res.Algorithm, Topology: res.Topology, Slot: map[request.Request]int{}}
	for k, c := range res.Configs {
		out.Configs = append(out.Configs, c.Clone())
		for _, q := range c {
			out.Slot[q] = k
		}
	}
	return out, nil
}

// tablePatterns are deterministic request families, parameterized by node
// count. Duplicates are deliberate: they conflict with themselves and
// stress the multiset handling of both cores.
func tablePatterns(nn int) map[string]request.Set {
	pats := map[string]request.Set{}
	var transpose, shift, reverse, gather, dups request.Set
	for i := 0; i < nn; i++ {
		j := (i*7 + 3) % nn
		if i != j {
			transpose = append(transpose, request.Request{Src: network.NodeID(i), Dst: network.NodeID(j)})
		}
		shift = append(shift, request.Request{Src: network.NodeID(i), Dst: network.NodeID((i + 1) % nn)})
		if i != nn-1-i {
			reverse = append(reverse, request.Request{Src: network.NodeID(i), Dst: network.NodeID(nn - 1 - i)})
		}
		if i != 0 {
			gather = append(gather, request.Request{Src: network.NodeID(i), Dst: network.NodeID(0)})
		}
	}
	for i := 0; i < nn/2; i++ {
		q := request.Request{Src: network.NodeID(i), Dst: network.NodeID((i + 2) % nn)}
		if q.Src != q.Dst {
			dups = append(dups, q, q) // each pair twice
		}
	}
	pats["transpose"] = transpose
	pats["shift"] = shift
	pats["reverse"] = reverse
	pats["gather"] = gather
	pats["duplicates"] = dups
	pats["empty"] = nil
	return pats
}

// randomPattern draws n requests (with duplicates possible) from the PRNG.
func randomPattern(rng *splitmix64, nn, n int) request.Set {
	set := make(request.Set, 0, n)
	for len(set) < n {
		s := network.NodeID(rng.next() % uint64(nn))
		d := network.NodeID(rng.next() % uint64(nn))
		if s != d {
			set = append(set, request.Request{Src: s, Dst: d})
		}
	}
	return set
}

// permutationPattern draws a random full permutation with no fixed points
// (derangement-ish: fixed points are skipped), which is inside every AAPC
// decomposition, so OrderedAAPC and Combined accept it on any topology.
func permutationPattern(rng *splitmix64, nn int) request.Set {
	perm := make([]int, nn)
	for i := range perm {
		perm[i] = i
	}
	for i := nn - 1; i > 0; i-- {
		j := int(rng.next() % uint64(i+1))
		perm[i], perm[j] = perm[j], perm[i]
	}
	var set request.Set
	for i, j := range perm {
		if i != j {
			set = append(set, request.Request{Src: network.NodeID(i), Dst: network.NodeID(j)})
		}
	}
	return set
}

// diffSchedules reports how the two schedulers disagree on one input, or
// nil when they agree byte-for-byte and the schedule validates.
func diffSchedules(bitset, oracle schedule.Scheduler, topo network.Topology, reqs request.Set) error {
	got, gotErr := bitset.Schedule(topo, reqs.Clone())
	want, wantErr := oracle.Schedule(topo, reqs.Clone())
	if (gotErr != nil) != (wantErr != nil) {
		return fmt.Errorf("error divergence: bitset %v, oracle %v", gotErr, wantErr)
	}
	if gotErr != nil {
		return nil
	}
	if g, w := canonicalResult(got), canonicalResult(want); g != w {
		return fmt.Errorf("schedule divergence on %s with %d requests:\nbitset:\n%s\noracle:\n%s",
			topo.Name(), len(reqs), g, w)
	}
	return got.Validate(reqs)
}

// runDifferential asserts both schedulers agree byte-for-byte on one input.
func runDifferential(t *testing.T, bitset, oracle schedule.Scheduler, topo network.Topology, reqs request.Set) {
	t.Helper()
	if err := diffSchedules(bitset, oracle, topo, reqs); err != nil {
		t.Fatal(err)
	}
}

// concurrently runs fn from the given number of concurrent callers
// (0 = GOMAXPROCS), all on the same topology value: a compile runs on one
// goroutine, and parallelism lives in callers like the daemon's worker
// pool, which share the route table and the AAPC decomposition cache.
func concurrently(t *testing.T, workers int, fn func() error) {
	t.Helper()
	errs := make([]error, cliutil.Workers(workers))
	var wg sync.WaitGroup
	for w := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[w] = fn()
		}()
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		t.Fatal(err)
	}
}

// TestDifferentialTable runs every scheduler pair on every table pattern of
// every topology family, from 0 (GOMAXPROCS), 1, 2 and 5 concurrent
// callers.
func TestDifferentialTable(t *testing.T) {
	for _, topoName := range differentialTopologies {
		topo, err := topology.Parse(topoName)
		if err != nil {
			t.Fatal(err)
		}
		for patName, reqs := range tablePatterns(network.TerminalCount(topo)) {
			reqs := reqs
			for _, pair := range schedulerPairs() {
				pair := pair
				t.Run(fmt.Sprintf("%s/%s/%s", topoName, patName, pair.name), func(t *testing.T) {
					for _, w := range []int{0, 1, 2, 5} {
						t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
							concurrently(t, w, func() error {
								return diffSchedules(pair.bitset, pair.oracle, topo, reqs)
							})
						})
					}
				})
			}
		}
	}
}

// TestDifferentialAAPCCutoff pins that the two Combined cores apply the
// AAPC terminal-count gate identically: above the cutoff both reduce to
// their coloring member and still agree byte-for-byte, including the
// winner name.
func TestDifferentialAAPCCutoff(t *testing.T) {
	defer schedule.SetAAPCTerminalCutoff(4)()
	for _, topoName := range []string{"torus-4x4", "dragonfly-2x4x2"} {
		topo, err := topology.Parse(topoName)
		if err != nil {
			t.Fatal(err)
		}
		for patName, reqs := range tablePatterns(network.TerminalCount(topo)) {
			reqs := reqs
			t.Run(fmt.Sprintf("%s/%s", topoName, patName), func(t *testing.T) {
				runDifferential(t, schedule.Combined{}, schedule.OracleCombined{}, topo, reqs)
			})
		}
	}
}

// TestDifferentialRandom drives the same cross product with SplitMix64
// multisets; failures print the seed for replay.
func TestDifferentialRandom(t *testing.T) {
	const seeds = 8
	for _, topoName := range differentialTopologies {
		topo, err := topology.Parse(topoName)
		if err != nil {
			t.Fatal(err)
		}
		nn := network.TerminalCount(topo)
		for seed := uint64(1); seed <= seeds; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("%s/seed=%d", topoName, seed), func(t *testing.T) {
				rng := splitmix64(seed * 0x9e3779b97f4a7c15)
				var reqs request.Set
				if seed%2 == 0 {
					reqs = permutationPattern(&rng, nn)
				} else {
					reqs = randomPattern(&rng, nn, 2*nn+int(rng.next()%uint64(nn)))
				}
				for _, pair := range schedulerPairs() {
					pair := pair
					t.Run(pair.name, func(t *testing.T) {
						runDifferential(t, pair.bitset, pair.oracle, topo, reqs)
					})
				}
			})
		}
	}
}

// TestDifferentialExtend pins Extend to its map-based original: a base
// schedule from each core, extended with a batch that includes duplicates
// of already-scheduled requests, must come out byte-identical.
func TestDifferentialExtend(t *testing.T) {
	for _, topoName := range differentialTopologies {
		topo, err := topology.Parse(topoName)
		if err != nil {
			t.Fatal(err)
		}
		nn := network.TerminalCount(topo)
		rng := splitmix64(0xABCDEF)
		base := randomPattern(&rng, nn, 2*nn)
		extra := randomPattern(&rng, nn, nn/2)
		extra = append(extra, base[0], base[1]) // self-conflicting duplicates
		t.Run(topoName, func(t *testing.T) {
			res, err := schedule.Coloring{}.Schedule(topo, base)
			if err != nil {
				t.Fatal(err)
			}
			got, err := schedule.Extend(res, extra)
			if err != nil {
				t.Fatal(err)
			}
			want, err := schedule.OracleExtend(res, extra)
			if err != nil {
				t.Fatal(err)
			}
			if g, w := canonicalResult(got), canonicalResult(want); g != w {
				t.Fatalf("extend divergence:\nbitset:\n%s\noracle:\n%s", g, w)
			}
			if err := got.Validate(append(base.Clone(), extra...)); err != nil {
				t.Fatal(err)
			}
		})
	}
}
