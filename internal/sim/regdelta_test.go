package sim_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/patterns"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/sim"
	"repro/internal/topology"
)

// requireDeltaMatchesOracle fails unless RegisterDelta(prev, next) equals
// the map-based oracle switch by switch.
func requireDeltaMatchesOracle(t *testing.T, label string, prev, next *schedule.Result) {
	t.Helper()
	got, gotErr := sim.RegisterDelta(prev, next)
	want, wantErr := sim.RegisterDeltaOracle(prev, next)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, oracle error %v", label, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got.PerSwitch, want.PerSwitch) || got.Total != want.Total || got.Max != want.Max {
		t.Fatalf("%s: flat delta %v (total %d, max %d), oracle %v (total %d, max %d)",
			label, got.PerSwitch, got.Total, got.Max, want.PerSwitch, want.Total, want.Max)
	}
}

// drift replaces a few requests of set with random ones, keeping it a
// valid pattern.
func drift(rng *rand.Rand, set request.Set, nodes, changes int) request.Set {
	out := set.Clone()
	for i := 0; i < changes && len(out) > 0; i++ {
		j := rng.Intn(len(out))
		out = append(out[:j], out[j+1:]...)
		src, dst := rng.Intn(nodes), rng.Intn(nodes)
		if src != dst {
			out = append(out, request.Request{Src: network.NodeID(src), Dst: network.NodeID(dst)})
		}
	}
	return out.Dedup()
}

// withTopology is res's schedule placed on another topology value.
func withTopology(res *schedule.Result, topo network.Topology) *schedule.Result {
	c := *res
	c.Topology = topo
	return &c
}

// TestRegisterDeltaMatchesOracle holds the flat register delta equal to
// the map of sorted circuit sets on random pairs, delta.Patch drifts,
// identical and structurally equal schedules, degree changes, the AAPC
// fallback set, and schedules on a fault-masked view of the topology.
func TestRegisterDeltaMatchesOracle(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	sched := func(topo network.Topology, set request.Set) *schedule.Result {
		res, err := schedule.Combined{}.Schedule(topo, set)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	rng := rand.New(rand.NewSource(7))
	// Equal-size random patterns often land on one degree, the case the
	// flat table decides; a degree change is a full load on both sides.
	sameDegree := 0
	for trial := 0; trial < 80; trial++ {
		n := 50 + rng.Intn(400)
		setA, err := patterns.Random(rng, 64, n)
		if err != nil {
			t.Fatal(err)
		}
		setB, err := patterns.Random(rng, 64, n)
		if err != nil {
			t.Fatal(err)
		}
		a, b := sched(torus, setA.Dedup()), sched(torus, setB.Dedup())
		if a.Degree() == b.Degree() {
			sameDegree++
		}
		requireDeltaMatchesOracle(t, fmt.Sprintf("random %d", trial), a, b)
		requireDeltaMatchesOracle(t, fmt.Sprintf("random %d reversed", trial), b, a)
		patched, _, err := delta.Patch(a, torus, drift(rng, setA.Dedup(), 64, 1+rng.Intn(20)))
		if err != nil {
			t.Fatal(err)
		}
		if patched.Degree() == a.Degree() {
			sameDegree++
		}
		requireDeltaMatchesOracle(t, fmt.Sprintf("patch drift %d", trial), a, patched)
		requireDeltaMatchesOracle(t, fmt.Sprintf("patch drift %d reversed", trial), patched, a)
	}
	if sameDegree < 60 {
		t.Fatalf("only %d of 160 pairs at one degree; the flat table went largely untested", sameDegree)
	}

	ring := sched(torus, patterns.Ring(64))
	requireDeltaMatchesOracle(t, "cold start", nil, ring)
	requireDeltaMatchesOracle(t, "prev == next", ring, ring)
	clone := *ring
	requireDeltaMatchesOracle(t, "structurally equal", ring, &clone)
	requireDeltaMatchesOracle(t, "degree change", ring, sched(torus, patterns.AllToAll(64)))

	fallback, err := core.Fallback(torus)
	if err != nil {
		t.Fatal(err)
	}
	all := sched(torus, patterns.AllToAll(64))
	requireDeltaMatchesOracle(t, "fallback vs combined all-to-all", fallback, all)
	requireDeltaMatchesOracle(t, "combined all-to-all vs fallback", all, fallback)
	fbDrift, _, err := delta.Patch(fallback, torus, drift(rng, delta.Requests(fallback), 64, 40))
	if err != nil {
		t.Fatal(err)
	}
	requireDeltaMatchesOracle(t, "fallback drift", fallback, fbDrift)

	// Healthy against masked: two topology values whose routes agree
	// except where they crossed the failed links.
	setA, err := patterns.Random(rng, 64, 300)
	if err != nil {
		t.Fatal(err)
	}
	healthy := sched(torus, setA.Dedup())
	for _, links := range [][]network.LinkID{{3}, {0, 17, 40}, {5, 6, 7, 8, 9, 10}} {
		faults := fault.NewSet()
		for _, l := range links {
			faults.FailLink(l)
		}
		masked := fault.NewMasked(torus, faults)
		label := fmt.Sprintf("masked %v", links)
		requireDeltaMatchesOracle(t, label+" same circuits", healthy, withTopology(healthy, masked))
		requireDeltaMatchesOracle(t, label+" same circuits reversed", withTopology(healthy, masked), healthy)
		patched, _, err := delta.Patch(healthy, masked, setA.Dedup())
		if err != nil {
			t.Fatal(err)
		}
		requireDeltaMatchesOracle(t, label+" rebased", healthy, patched)
		requireDeltaMatchesOracle(t, label+" rebased reversed", patched, healthy)
	}
}

// FuzzRegisterDelta holds the flat register delta equal to the map oracle
// on arbitrary 16-PE schedule pairs, conflict-free or not (the delta never
// checks). Each 3-byte chunk of ops places one circuit: in both schedules
// at one slot, in prev only, in next only, or in both at different slots.
// maskNext puts next on a fault-masked view with one failed link.
func FuzzRegisterDelta(f *testing.F) {
	f.Add(uint8(2), uint8(0), false, uint8(0), []byte{0, 1, 2, 4, 3, 4, 9, 5, 6, 2, 7, 8})
	f.Add(uint8(3), uint8(3), true, uint8(5), []byte{0, 1, 5, 0, 2, 9, 8, 3, 3, 13, 4, 12, 1, 0, 15})
	f.Add(uint8(1), uint8(2), false, uint8(0), []byte{4, 0, 1, 8, 1, 2})
	f.Add(uint8(4), uint8(4), true, uint8(17), []byte{0, 0, 5, 4, 5, 10, 8, 10, 15, 12, 15, 0, 16, 3, 6})
	torus := topology.NewTorus(4, 4)
	f.Fuzz(func(t *testing.T, kPrev, kNext uint8, maskNext bool, link uint8, ops []byte) {
		if len(ops) > 3*128 {
			return
		}
		kp := 1 + int(kPrev)%6
		kn := kp
		if kNext%2 == 1 {
			kn = 1 + int(kNext/2)%6
		}
		prev := &schedule.Result{Topology: torus, Configs: make([]request.Set, kp), Slot: map[request.Request]int{}}
		var nextTopo network.Topology = torus
		if maskNext {
			faults := fault.NewSet()
			faults.FailLink(network.LinkID(int(link) % torus.NumLinks()))
			nextTopo = fault.NewMasked(torus, faults)
		}
		next := &schedule.Result{Topology: nextTopo, Configs: make([]request.Set, kn), Slot: map[request.Request]int{}}
		place := func(res *schedule.Result, r request.Request, u int) {
			u %= len(res.Configs)
			res.Configs[u] = append(res.Configs[u], r)
			res.Slot[r] = u
		}
		for i := 0; i+2 < len(ops); i += 3 {
			r := request.Request{Src: network.NodeID(ops[i+1] % 16), Dst: network.NodeID(ops[i+2] % 16)}
			_, inPrev := prev.Slot[r]
			_, inNext := next.Slot[r]
			if r.Src == r.Dst || inPrev || inNext {
				continue
			}
			u := int(ops[i] >> 2)
			switch ops[i] % 4 {
			case 0:
				place(prev, r, u)
				place(next, r, u)
			case 1:
				place(prev, r, u)
			case 2:
				place(next, r, u)
			default:
				place(prev, r, u)
				place(next, r, u+1)
			}
		}
		// Empty configurations are legal here; the delta only walks them.
		requireDeltaMatchesOracle(t, "fuzz", prev, next)
	})
}
