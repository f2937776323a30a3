package aapc

import (
	"testing"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/topology"
)

func TestDecomposePhaseOfCoversAllPairs(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	set, err := Decompose(torus)
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 64; s++ {
		for d := 0; d < 64; d++ {
			r := request.Request{Src: network.NodeID(s), Dst: network.NodeID(d)}
			k, ok := set.PhaseOf(r)
			if s == d {
				if ok {
					t.Fatalf("self pair %v assigned to phase %d", r, k)
				}
				continue
			}
			if !ok {
				t.Fatalf("pair %v missing from decomposition", r)
			}
			if k < 0 || k >= set.NumPhases() {
				t.Fatalf("pair %v in out-of-range phase %d", r, k)
			}
		}
	}
}

func TestDecomposeTorus4x4(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	set, err := Decompose(torus)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	// The product construction gives at most W*H phases.
	if set.NumPhases() > 16 {
		t.Errorf("4x4 torus decomposition has %d phases, want <= 16", set.NumPhases())
	}
}

func TestDecomposeRectangularTorus(t *testing.T) {
	torus := topology.NewTorus(4, 8)
	set, err := Decompose(torus)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	if set.NumPhases() > 32 {
		t.Errorf("4x8 torus decomposition has %d phases, want <= 32", set.NumPhases())
	}
}

func TestDecomposeNonBalancedTieFallsBack(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	torus.Tie = topology.TiePositive
	set, err := Decompose(torus)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	// With all ties forced positive, the +x link load of the all-to-all
	// rises to N^2/8 + N/4 per link per row, so more phases are inevitable.
	if set.NumPhases() < 64 {
		t.Errorf("positive-tie decomposition has %d phases, expected >= 64", set.NumPhases())
	}
}

func TestDecomposeGenericTopologies(t *testing.T) {
	topos := []network.Topology{
		topology.NewLinear(6),
		topology.NewRing(8),
		topology.NewMesh(4, 4),
		topology.NewHypercube(4),
	}
	for _, topo := range topos {
		set, err := Decompose(topo)
		if err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("%s: %v", topo.Name(), err)
		}
	}
}

func TestLargeTorusFirstFitPath(t *testing.T) {
	// 10 > 8 per dimension: no ring Latin square exists, so the structured
	// first-fit fallback must produce a valid decomposition.
	torus := topology.NewTorus(10, 10)
	set, err := Decompose(torus)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Fatal(err)
	}
	t.Logf("10x10 torus: %d phases (link-load lower bound %d)", set.NumPhases(), 10*10*10/8)
}

func TestPhasesAreNonEmpty(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	set, err := Decompose(torus)
	if err != nil {
		t.Fatal(err)
	}
	for k, phase := range set.Phases {
		if len(phase) == 0 {
			t.Fatalf("phase %d is empty", k)
		}
	}
}

// TestPhaseOfMatchesMembership: the dense pair index answers exactly the
// decomposition's membership for every pair, on the product, first-fit
// torus and generic paths, and rejects self pairs and pairs with an
// endpoint outside the terminals (negative, past the end, or an interior
// switch of a multistage fabric).
func TestPhaseOfMatchesMembership(t *testing.T) {
	for _, topo := range []network.Topology{
		topology.NewTorus(8, 8), topology.NewTorus(5, 3), topology.NewRing(7),
		topology.NewFatTree(4), topology.NewOmega(8),
	} {
		set, err := Decompose(topo)
		if err != nil {
			t.Fatal(err)
		}
		member := make(map[request.Request]int)
		for k, phase := range set.Phases {
			for _, r := range phase {
				member[r] = k
			}
		}
		n := topo.NumNodes()
		for s := -1; s <= n; s++ {
			for d := -1; d <= n; d++ {
				r := request.Request{Src: network.NodeID(s), Dst: network.NodeID(d)}
				k, ok := set.PhaseOf(r)
				wk, wok := member[r]
				if ok != wok || (ok && k != wk) {
					t.Fatalf("%s: PhaseOf(%v) = %d, %v; membership %d, %v", topo.Name(), r, k, ok, wk, wok)
				}
			}
		}
		if got, want := len(member), network.TerminalCount(topo)*(network.TerminalCount(topo)-1); got != want {
			t.Fatalf("%s: decomposition holds %d pairs, want %d", topo.Name(), got, want)
		}
	}
}
