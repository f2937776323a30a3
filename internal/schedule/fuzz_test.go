package schedule_test

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// FuzzGreedyValidPartition feeds arbitrary request bytes through the greedy
// scheduler and asserts schedule validity and the lower bound.
func FuzzGreedyValidPartition(f *testing.F) {
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{0, 5, 0, 5, 0, 5})
	// Route-cache stressors: the same (s, d) pair repeated many times hits
	// the cache on every lookup after the first, and heavy duplication
	// exercises the Dedup edge cases downstream consumers rely on.
	f.Add([]byte{1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 1, 2})
	f.Add([]byte{7, 8, 8, 7, 7, 8, 8, 7, 7, 8, 8, 7})
	f.Add([]byte{0, 15, 15, 0, 0, 15, 3, 12, 12, 3, 3, 12, 0, 15})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 400 {
			raw = raw[:400]
		}
		torus := topology.NewTorus(4, 4)
		var set request.Set
		for i := 0; i+1 < len(raw); i += 2 {
			s := network.NodeID(int(raw[i]) % 16)
			d := network.NodeID(int(raw[i+1]) % 16)
			if s != d {
				set = append(set, request.Request{Src: s, Dst: d})
			}
		}
		res, err := schedule.Greedy{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(set); err != nil {
			t.Fatal(err)
		}
		if len(set) == 0 {
			return
		}
		lb, err := schedule.LowerBound(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		if res.Degree() < lb {
			t.Fatalf("degree %d below lower bound %d", res.Degree(), lb)
		}
	})
}

// FuzzColoringValidPartition does the same for the coloring scheduler,
// whose priority machinery has more state to get wrong.
func FuzzColoringValidPartition(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5})
	// Repeated pairs: duplicates are mutually conflicting (shared injection
	// and ejection ports), forcing one configuration per copy while the
	// route cache serves a single shared path for all of them.
	f.Add([]byte{4, 9, 4, 9, 4, 9, 4, 9, 4, 9})
	f.Add([]byte{2, 3, 3, 2, 2, 3, 3, 2, 11, 6, 6, 11, 11, 6})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		torus := topology.NewTorus(4, 4)
		var set request.Set
		for i := 0; i+1 < len(raw); i += 2 {
			s := network.NodeID(int(raw[i]) % 16)
			d := network.NodeID(int(raw[i+1]) % 16)
			if s != d {
				set = append(set, request.Request{Src: s, Dst: d})
			}
		}
		res, err := schedule.Coloring{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(set); err != nil {
			t.Fatal(err)
		}
	})
}

// bitsetGraphSeeds are request multisets lifted from the integration
// schedules: the table patterns the experiment sweeps compile on a 4x4
// torus, encoded as (src, dst) byte pairs.
func bitsetGraphSeeds() [][]byte {
	var transpose, shift, reverse, gather []byte
	for i := 0; i < 16; i++ {
		if j := (i*7 + 3) % 16; i != j {
			transpose = append(transpose, byte(i), byte(j))
		}
		shift = append(shift, byte(i), byte((i+1)%16))
		if i != 15-i {
			reverse = append(reverse, byte(i), byte(15-i))
		}
		if i != 0 {
			gather = append(gather, byte(i), byte(0))
		}
	}
	return [][]byte{transpose, shift, reverse, gather,
		{4, 9, 4, 9, 4, 9, 4, 9}, // duplicate-heavy
		{0, 15, 15, 0, 0, 15, 3, 12, 12, 3}}
}

// FuzzBitsetGraph differentially fuzzes the conflict-graph build: for an
// arbitrary request multiset, the word-parallel CSR construction must
// produce exactly the graph the retained pairwise oracle produces — edge
// for edge, degree for degree — and the coloring scheduler on top of it
// must still emit a valid schedule.
func FuzzBitsetGraph(f *testing.F) {
	for _, seed := range bitsetGraphSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) > 300 {
			raw = raw[:300]
		}
		torus := topology.NewTorus(4, 4)
		var set request.Set
		for i := 0; i+1 < len(raw); i += 2 {
			s := network.NodeID(int(raw[i]) % 16)
			d := network.NodeID(int(raw[i+1]) % 16)
			if s != d {
				set = append(set, request.Request{Src: s, Dst: d})
			}
		}
		paths, err := set.Routes(torus)
		if err != nil {
			t.Fatal(err)
		}
		g, oracle := schedule.BuildConflictGraph(torus, paths), schedule.OracleConflictGraph(paths)
		if g.Len() != oracle.Len() {
			t.Fatalf("%d vertices, oracle has %d", g.Len(), oracle.Len())
		}
		for i := 0; i < g.Len(); i++ {
			if g.Degree(i) != oracle.Degree(i) {
				t.Fatalf("vertex %d degree %d, oracle %d", i, g.Degree(i), oracle.Degree(i))
			}
			for j := 0; j < g.Len(); j++ {
				if g.Adjacent(i, j) != oracle.Adjacent(i, j) {
					t.Fatalf("edge (%d,%d) = %v, oracle %v", i, j, g.Adjacent(i, j), oracle.Adjacent(i, j))
				}
			}
		}
		res, err := schedule.Coloring{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		if err := res.Validate(set); err != nil {
			t.Fatal(err)
		}
	})
}

// FuzzCombinedExit differentially fuzzes Combined's lower-bound exit. For
// arbitrary request bytes on a 4x4 torus, healthy and with the node raw[0]
// names failed (requests touching it dropped), Combined must equal
// OracleCombined, which runs AAPC on every input, in configurations and
// winner; and whenever coloring meets LowerBound the winner must be
// coloring. The failed node leaves the masked view without an AAPC
// decomposition, so there every phase is coloring's.
func FuzzCombinedExit(f *testing.F) {
	f.Add([]byte{3, 0, 1, 1, 2, 2, 3, 3, 0})
	f.Add([]byte{0, 5, 10, 5, 10, 5, 10, 5, 10, 5, 10})
	f.Add([]byte{9, 1, 2, 2, 1, 1, 2, 2, 1, 9, 14, 14, 9, 9, 14})
	f.Add([]byte{15, 0, 15, 0, 14, 0, 13, 0, 12, 0, 11, 0, 10})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 301 {
			raw = raw[:301]
		}
		torus := topology.NewTorus(4, 4)
		dead := network.NodeID(int(raw[0]) % 16)
		faults := fault.NewSet()
		faults.FailNode(dead)
		var healthy, survivors request.Set
		for i := 1; i+1 < len(raw); i += 2 {
			q := request.Request{Src: network.NodeID(int(raw[i]) % 16), Dst: network.NodeID(int(raw[i+1]) % 16)}
			if q.Src == q.Dst {
				continue
			}
			healthy = append(healthy, q)
			if q.Src != dead && q.Dst != dead {
				survivors = append(survivors, q)
			}
		}
		for _, c := range []struct {
			topo network.Topology
			set  request.Set
		}{{torus, healthy}, {fault.NewMasked(torus, faults), survivors}} {
			if err := diffSchedules(schedule.Combined{}, schedule.OracleCombined{}, c.topo, c.set); err != nil {
				t.Fatal(err)
			}
			got, err := schedule.Combined{}.Schedule(c.topo, c.set)
			if err != nil {
				t.Fatal(err)
			}
			col, err := schedule.Coloring{}.Schedule(c.topo, c.set)
			if err != nil {
				t.Fatal(err)
			}
			lb, err := schedule.LowerBound(c.topo, c.set)
			if err != nil {
				t.Fatal(err)
			}
			if col.Degree() <= lb && got.Algorithm != "combined(coloring)" {
				t.Fatalf("%s: coloring meets the bound %d, but Combined chose %s", c.topo.Name(), lb, got.Algorithm)
			}
		}
	})
}

// FuzzValidate differentially fuzzes Result.Validate against the map-based
// OracleValidate. raw[0] picks a corruption of a valid greedy schedule:
// none, a duplicated, missing or extraneous request, a request moved into a
// configuration it conflicts with, an empty configuration, a duplicated or
// out-of-range wanted request, or a self-loop; the rest of raw is the
// request set on a 4x4 torus. Both checks must accept or reject alike, and
// both must reject every corruption.
func FuzzValidate(f *testing.F) {
	for c := byte(0); c < 9; c++ {
		f.Add(append([]byte{c}, 0, 1, 1, 2, 2, 3, 3, 0, 0, 2, 5, 9, 9, 5))
	}
	f.Add([]byte{1, 4, 9, 4, 9, 4, 9})
	f.Add([]byte{4, 0, 15, 0, 14, 1, 15, 3, 12})
	f.Add([]byte{7})
	f.Fuzz(func(t *testing.T, raw []byte) {
		if len(raw) == 0 {
			return
		}
		if len(raw) > 301 {
			raw = raw[:301]
		}
		corruption, body := raw[0]%9, raw[1:]
		torus := topology.NewTorus(4, 4)
		var set request.Set
		for i := 0; i+1 < len(body); i += 2 {
			s, d := network.NodeID(body[i]%16), network.NodeID(body[i+1]%16)
			if s != d {
				set = append(set, request.Request{Src: s, Dst: d})
			}
		}
		res, err := schedule.Greedy{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		configs := make([]request.Set, len(res.Configs))
		for k, c := range res.Configs {
			configs[k] = c.Clone()
		}
		reqs := set.Clone()
		last := len(configs) - 1
		applied := true
		switch corruption {
		case 0:
			applied = false
		case 1: // a request scheduled twice
			if applied = last >= 0; applied {
				configs = append(configs, request.Set{configs[0][0]})
			}
		case 2: // a request missing
			if applied = last >= 0; applied {
				configs[last] = configs[last][:len(configs[last])-1]
			}
		case 3: // an extraneous request
			configs = append(configs, request.Set{{Src: 3, Dst: 7}})
		case 4: // a request moved next to one it conflicts with
			if applied = last >= 1; applied {
				q := configs[last][0]
				configs[last] = configs[last][1:]
				configs[0] = append(configs[0], q)
			}
		case 5: // an empty configuration
			configs = append(configs, request.Set{})
		case 6: // a wanted request duplicated
			if applied = len(reqs) > 0; applied {
				reqs = append(reqs, reqs[len(reqs)-1])
			}
		case 7: // a wanted request outside the topology
			reqs = append(reqs, request.Request{Src: 16, Dst: -1})
		case 8: // a self-loop scheduled and wanted
			configs = append(configs, request.Set{{Src: 2, Dst: 2}})
			reqs = append(reqs, request.Request{Src: 2, Dst: 2})
		}
		bad := &schedule.Result{Algorithm: res.Algorithm, Topology: torus, Configs: configs}
		gotErr, wantErr := bad.Validate(reqs), schedule.OracleValidate(bad, reqs)
		if (gotErr == nil) != (wantErr == nil) {
			t.Fatalf("corruption %d: Validate = %v, oracle = %v", corruption, gotErr, wantErr)
		}
		if applied && gotErr == nil {
			t.Fatalf("corruption %d accepted by both checks", corruption)
		}
	})
}
