package request_test

import (
	"testing"
	"testing/quick"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/topology"
)

func TestString(t *testing.T) {
	r := request.Request{Src: 4, Dst: 1}
	if r.String() != "(4, 1)" {
		t.Errorf("String() = %q, want %q", r.String(), "(4, 1)")
	}
}

func TestCloneIndependence(t *testing.T) {
	s := request.Set{{Src: 0, Dst: 1}, {Src: 1, Dst: 2}}
	c := s.Clone()
	c[0] = request.Request{Src: 9, Dst: 9}
	if s[0].Src != 0 {
		t.Error("Clone shares backing storage")
	}
}

func TestSortedOrder(t *testing.T) {
	s := request.Set{{Src: 2, Dst: 1}, {Src: 0, Dst: 3}, {Src: 2, Dst: 0}, {Src: 0, Dst: 1}}
	got := s.Sorted()
	want := request.Set{{Src: 0, Dst: 1}, {Src: 0, Dst: 3}, {Src: 2, Dst: 0}, {Src: 2, Dst: 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Sorted()[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Original untouched.
	if s[0] != (request.Request{Src: 2, Dst: 1}) {
		t.Error("Sorted mutated its receiver")
	}
}

func TestDedupKeepsFirstOccurrence(t *testing.T) {
	s := request.Set{{Src: 1, Dst: 2}, {Src: 3, Dst: 4}, {Src: 1, Dst: 2}, {Src: 5, Dst: 6}}
	got := s.Dedup()
	if len(got) != 3 {
		t.Fatalf("Dedup left %d requests, want 3", len(got))
	}
	if got[0] != (request.Request{Src: 1, Dst: 2}) || got[1] != (request.Request{Src: 3, Dst: 4}) {
		t.Error("Dedup changed order of first occurrences")
	}
}

func TestDedupProperty(t *testing.T) {
	f := func(pairs [][2]uint8) bool {
		var s request.Set
		for _, p := range pairs {
			s = append(s, request.Request{Src: network.NodeID(p[0]), Dst: network.NodeID(p[1])})
		}
		d := s.Dedup()
		seen := map[request.Request]bool{}
		for _, r := range d {
			if seen[r] {
				return false
			}
			seen[r] = true
		}
		// Every original request is present.
		for _, r := range s {
			if !seen[r] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValidate(t *testing.T) {
	topo := topology.NewTorus(4, 4)
	if err := (request.Set{{Src: 0, Dst: 15}}).Validate(topo); err != nil {
		t.Errorf("valid set rejected: %v", err)
	}
	if err := (request.Set{{Src: 0, Dst: 16}}).Validate(topo); err == nil {
		t.Error("out-of-range destination accepted")
	}
	if err := (request.Set{{Src: -1, Dst: 3}}).Validate(topo); err == nil {
		t.Error("negative source accepted")
	}
	if err := (request.Set{{Src: 3, Dst: 3}}).Validate(topo); err == nil {
		t.Error("self-loop accepted")
	}
}

func TestSourcesDestinations(t *testing.T) {
	s := request.Set{{Src: 0, Dst: 1}, {Src: 0, Dst: 2}, {Src: 1, Dst: 2}}
	src := s.Sources()
	if src[0] != 2 || src[1] != 1 {
		t.Errorf("Sources() = %v", src)
	}
	dst := s.Destinations()
	if dst[1] != 1 || dst[2] != 2 {
		t.Errorf("Destinations() = %v", dst)
	}
}

func TestRoutes(t *testing.T) {
	topo := topology.NewLinear(5)
	s := request.Set{{Src: 0, Dst: 2}, {Src: 4, Dst: 1}}
	paths, err := s.Routes(topo)
	if err != nil {
		t.Fatal(err)
	}
	if len(paths) != 2 || paths[0].Len() != 2 || paths[1].Len() != 3 {
		t.Errorf("unexpected paths %v", paths)
	}
	bad := request.Set{{Src: 0, Dst: 0}}
	if _, err := bad.Routes(topo); err == nil {
		t.Error("Routes accepted a self-loop")
	}
}

// oracleDedup is the map-based Dedup the radix version replaced: a seen set,
// first occurrence kept in place.
func oracleDedup(s request.Set) request.Set {
	seen := make(map[request.Request]struct{}, len(s))
	out := make(request.Set, 0, len(s))
	for _, r := range s {
		if _, ok := seen[r]; ok {
			continue
		}
		seen[r] = struct{}{}
		out = append(out, r)
	}
	return out
}

// FuzzDedup holds Dedup to the map oracle, first-occurrence order
// included. Each 4-byte chunk is one request; the chunk's high bits reach
// multi-byte and negative node ids, so every radix pass width is taken.
func FuzzDedup(f *testing.F) {
	f.Add([]byte{1, 0, 2, 0, 1, 0, 2, 0, 3, 0, 4, 0, 1, 0, 2, 0})
	f.Add([]byte{0, 1, 0, 1, 0, 1, 0, 1, 255, 255, 255, 255})
	f.Add([]byte{7, 200, 9, 3, 9, 3, 7, 200, 7, 200, 9, 3, 128, 0, 0, 5})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s request.Set
		for i := 0; i+3 < len(raw); i += 4 {
			src := int(int8(raw[i+1]))<<8 | int(raw[i])
			dst := int(int8(raw[i+3]))<<8 | int(raw[i+2])
			if raw[i+1]&0x40 != 0 {
				src <<= 24
			}
			s = append(s, request.Request{Src: network.NodeID(src), Dst: network.NodeID(dst)})
		}
		got, want := s.Dedup(), oracleDedup(s)
		if len(got) != len(want) {
			t.Fatalf("Dedup kept %d requests, oracle %d", len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("request %d: Dedup %v, oracle %v", i, got[i], want[i])
			}
		}
	})
}
