package patterns_test

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/patterns"
	"repro/internal/request"
)

// checkNoSelfLoops asserts a pattern has no self-loops and all endpoints in
// range.
func checkNoSelfLoops(t *testing.T, set request.Set, nodes int) {
	t.Helper()
	for _, r := range set {
		if r.Src == r.Dst {
			t.Fatalf("self-loop %v", r)
		}
		if int(r.Src) < 0 || int(r.Src) >= nodes || int(r.Dst) < 0 || int(r.Dst) >= nodes {
			t.Fatalf("request %v out of range", r)
		}
	}
}

func TestRandomCountAndDistinctness(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	set, err := patterns.Random(rng, 64, 4032)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 4032 {
		t.Fatalf("got %d requests, want 4032", len(set))
	}
	checkNoSelfLoops(t, set, 64)
	if len(set.Dedup()) != len(set) {
		t.Error("Random produced duplicate pairs")
	}
}

func TestRandomRejectsOversizedRequest(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	if _, err := patterns.Random(rng, 8, 8*7+1); err == nil {
		t.Error("Random accepted more requests than distinct pairs")
	}
}

func TestRandomRejectsNegativeCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, c := range []struct{ nodes, n int }{{8, -5}, {-3, 2}, {-3, 0}} {
		if _, err := patterns.Random(rng, c.nodes, c.n); err == nil {
			t.Errorf("Random(%d nodes, %d requests) accepted a negative count", c.nodes, c.n)
		}
	}
}

func TestRingPattern(t *testing.T) {
	set := patterns.Ring(64)
	if len(set) != 128 {
		t.Fatalf("ring has %d connections, want 128 (Table 3)", len(set))
	}
	checkNoSelfLoops(t, set, 64)
	src := set.Sources()
	dst := set.Destinations()
	for i := 0; i < 64; i++ {
		if src[network.NodeID(i)] != 2 || dst[network.NodeID(i)] != 2 {
			t.Fatalf("node %d: out=%d in=%d, want 2/2", i, src[network.NodeID(i)], dst[network.NodeID(i)])
		}
	}
}

func TestLinearNeighborsPattern(t *testing.T) {
	set := patterns.LinearNeighbors(64)
	if len(set) != 126 {
		t.Fatalf("linear neighbors has %d connections, want 126", len(set))
	}
	checkNoSelfLoops(t, set, 64)
	src := set.Sources()
	if src[0] != 1 || src[63] != 1 || src[5] != 2 {
		t.Error("boundary PEs must send 1 message, interior PEs 2")
	}
}

func TestNearestNeighbor2DPattern(t *testing.T) {
	set := patterns.NearestNeighbor2D(8, 8)
	if len(set) != 256 {
		t.Fatalf("nearest neighbor has %d connections, want 256 (Table 3)", len(set))
	}
	checkNoSelfLoops(t, set, 64)
	if len(set.Dedup()) != 256 {
		t.Error("duplicate requests in 8x8 nearest neighbor")
	}
	// Symmetry: (s, d) present iff (d, s) present.
	seen := map[request.Request]bool{}
	for _, r := range set {
		seen[r] = true
	}
	for _, r := range set {
		if !seen[request.Request{Src: r.Dst, Dst: r.Src}] {
			t.Fatalf("missing reverse of %v", r)
		}
	}
}

func TestNearestNeighbor3DPattern(t *testing.T) {
	set := patterns.NearestNeighbor3D(4, 4, 4)
	if len(set) != 64*26 {
		t.Fatalf("26-neighbor pattern has %d connections, want %d", len(set), 64*26)
	}
	checkNoSelfLoops(t, set, 64)
	if len(set.Dedup()) != len(set) {
		t.Error("duplicate requests in 4x4x4 26-neighbor pattern")
	}
	// With a dimension of extent 2, wraparound collapses neighbors.
	small := patterns.NearestNeighbor3D(2, 2, 2)
	if len(small) != 8*7 {
		t.Errorf("2x2x2 26-neighbor pattern has %d connections, want %d (all-to-all)", len(small), 8*7)
	}
}

func TestHypercubePattern(t *testing.T) {
	set, err := patterns.Hypercube(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 384 {
		t.Fatalf("hypercube has %d connections, want 384 (Table 3)", len(set))
	}
	checkNoSelfLoops(t, set, 64)
	// Every request flips exactly one address bit.
	for _, r := range set {
		x := int(r.Src) ^ int(r.Dst)
		if x&(x-1) != 0 {
			t.Fatalf("request %v is not a hypercube edge", r)
		}
	}
	if _, err := patterns.Hypercube(48); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestShuffleExchangePattern(t *testing.T) {
	set, err := patterns.ShuffleExchange(64)
	if err != nil {
		t.Fatal(err)
	}
	if len(set) != 126 {
		t.Fatalf("shuffle-exchange has %d connections, want 126 (Table 3)", len(set))
	}
	checkNoSelfLoops(t, set, 64)
	// Shuffle requests rotate the 6-bit address left.
	shuffles := 0
	for _, r := range set {
		rot := ((int(r.Src) << 1) | (int(r.Src) >> 5)) & 63
		if int(r.Dst) == rot && rot != int(r.Src) {
			shuffles++
		}
	}
	if shuffles != 62 {
		t.Errorf("found %d shuffle edges, want 62 (64 minus fixed points 0 and 63)", shuffles)
	}
	if _, err := patterns.ShuffleExchange(10); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestAllToAllPattern(t *testing.T) {
	set := patterns.AllToAll(64)
	if len(set) != 4032 {
		t.Fatalf("all-to-all has %d connections, want 4032 (Table 3)", len(set))
	}
	if len(set.Dedup()) != 4032 {
		t.Error("duplicates in all-to-all")
	}
	checkNoSelfLoops(t, set, 64)
}

func TestTransposePattern(t *testing.T) {
	set := patterns.Transpose(8)
	if len(set) != 56 {
		t.Fatalf("transpose has %d connections, want 56", len(set))
	}
	for _, r := range set {
		sr, sc := int(r.Src)/8, int(r.Src)%8
		if int(r.Dst) != sc*8+sr {
			t.Fatalf("request %v is not a transpose pair", r)
		}
	}
}

func TestBitReversalPattern(t *testing.T) {
	set, err := patterns.BitReversal(16)
	if err != nil {
		t.Fatal(err)
	}
	checkNoSelfLoops(t, set, 16)
	for _, r := range set {
		// Reversing twice returns the source.
		rev := 0
		for b := 0; b < 4; b++ {
			if int(r.Dst)&(1<<b) != 0 {
				rev |= 1 << (3 - b)
			}
		}
		if rev != int(r.Src) {
			t.Fatalf("%v is not a bit-reversal pair", r)
		}
	}
	if _, err := patterns.BitReversal(12); err == nil {
		t.Error("non-power-of-two accepted")
	}
}

func TestRandomIsUniformish(t *testing.T) {
	// Property: over many draws every node appears as a source.
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		set, err := patterns.Random(rng, 16, 120)
		if err != nil {
			return false
		}
		return len(set.Sources()) >= 14 // 120 draws over 16 sources: all-but-few present
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
