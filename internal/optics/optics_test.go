package optics_test

import (
	"math/rand"
	"testing"

	"repro/internal/network"
	"repro/internal/optics"
	"repro/internal/patterns"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/switchprog"
	"repro/internal/topology"
)

func compileFor(t *testing.T, topo network.Topology, set request.Set) (*schedule.Result, *optics.Tracer) {
	t.Helper()
	res, err := schedule.Combined{}.Schedule(topo, set)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := switchprog.Compile(res)
	if err != nil {
		t.Fatal(err)
	}
	return res, optics.NewTracer(prog)
}

// TestLightReachesScheduledDestinations is the end-to-end check: for a
// large random pattern on the 8x8 torus, light injected per the compiled
// registers lands exactly at the scheduled destinations.
func TestLightReachesScheduledDestinations(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rng := rand.New(rand.NewSource(42))
	set, err := patterns.Random(rng, 64, 1500)
	if err != nil {
		t.Fatal(err)
	}
	res, tracer := compileFor(t, torus, set)
	n, err := tracer.VerifySchedule(res.Configs)
	if err != nil {
		t.Fatal(err)
	}
	if n != len(set) {
		t.Errorf("verified %d circuits, want %d", n, len(set))
	}
}

// TestSlotCensusMatchesConfigurations: the physically realized connection
// set of every slot equals the schedule's configuration for that slot.
func TestSlotCensusMatchesConfigurations(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	set := patterns.AllToAll(64)
	res, tracer := compileFor(t, torus, set)
	for slot, cfg := range res.Configs {
		census, err := tracer.SlotCensus(slot)
		if err != nil {
			t.Fatalf("slot %d: %v", slot, err)
		}
		want := map[request.Request]bool{}
		for _, r := range cfg {
			want[r] = true
		}
		if len(census) != len(cfg) {
			t.Fatalf("slot %d: census %d connections, schedule %d", slot, len(census), len(cfg))
		}
		for _, r := range census {
			if !want[r] {
				t.Fatalf("slot %d: network establishes unscheduled connection %v", slot, r)
			}
		}
	}
}

func TestTraceOnAllTopologies(t *testing.T) {
	topos := []network.Topology{
		topology.NewTorus(4, 4),
		topology.NewMesh(4, 4),
		topology.NewRing(8),
		topology.NewLinear(8),
		topology.NewHypercube(4),
	}
	for _, topo := range topos {
		set := patterns.AllToAll(topo.NumNodes())
		res, tracer := compileFor(t, topo, set)
		if _, err := tracer.VerifySchedule(res.Configs); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
	}
}

func TestTraceErrors(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	res, tracer := compileFor(t, torus, request.Set{{Src: 0, Dst: 5}})
	// Slot out of range.
	if _, _, err := tracer.Trace(0, 5); err == nil {
		t.Error("out-of-range slot accepted")
	}
	// Dark port: node 3 injects nothing.
	if _, _, err := tracer.Trace(3, 0); err == nil {
		t.Error("dark injection port traced successfully")
	}
	_ = res
}

// TestTracerDetectsCorruptedRegisters: flipping one register entry makes
// verification fail — the tracer is actually sensitive to the registers.
func TestTracerDetectsCorruptedRegisters(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	set := request.Set{{Src: 0, Dst: 2}}
	res, err := schedule.Combined{}.Schedule(torus, set)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := switchprog.Compile(res)
	if err != nil {
		t.Fatal(err)
	}
	// Corrupt: reroute the intermediate switch's crossing to the PE port.
	p, err := torus.Route(0, 2)
	if err != nil {
		t.Fatal(err)
	}
	mid := torus.Link(p.Links[0]).To
	slot := res.Slot[set[0]]
	var ins []int
	prog.EachEntry(mid, slot, func(in, out int) { ins = append(ins, in) })
	for _, in := range ins {
		prog.SetEntry(mid, slot, in, network.PEPort)
	}
	tracer := optics.NewTracer(prog)
	dst, _, err := tracer.Trace(0, slot)
	if err == nil && dst == 2 {
		t.Error("tracer did not notice corrupted registers")
	}
}
