package sim

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/patterns"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/topology"
)

// compareWithStepper runs msgs on res through the closed-form engine and
// the slot-stepping oracle, to completion and cut at stop, and fails on
// any difference in error, Finish, Time, Degree or undelivered flits.
func compareWithStepper(t *testing.T, label string, res *schedule.Result, msgs []Message, mode Mode, stop int) {
	t.Helper()
	cs, oracle := NewCompiledSim(), newStepperSim()
	var got, want CompiledResult
	gotErr := cs.RunInto(res, msgs, mode, &got)
	wantErr := oracle.RunInto(res, msgs, mode, &want)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, oracle error %v", label, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: closed form %+v, stepper %+v", label, got, want)
	}
	gotRem, gotErr := cs.RunUntil(res, msgs, mode, stop, &got)
	wantRem, wantErr := oracle.RunUntil(res, msgs, mode, stop, &want)
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: RunUntil(%d) error %v, oracle error %v", label, stop, gotErr, wantErr)
	}
	if gotErr != nil {
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: RunUntil(%d) closed form %+v, stepper %+v", label, stop, got, want)
	}
	if !reflect.DeepEqual(gotRem, wantRem) {
		t.Fatalf("%s: RunUntil(%d) remaining %v, stepper %v", label, stop, gotRem, wantRem)
	}
}

// TestCompiledSimMatchesStepper: on random 8x8-torus phases with one to
// three messages per circuit, staggered starts and shuffled order, the
// closed form reports exactly what stepping the slots reports, in TDM and
// WDM, run to completion and cut at a random slot.
func TestCompiledSimMatchesStepper(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	rng := rand.New(rand.NewSource(1996))
	for trial := 0; trial < 150; trial++ {
		set, err := patterns.Random(rng, 64, 1+rng.Intn(300))
		if err != nil {
			t.Fatal(err)
		}
		set = set.Dedup()
		res, err := schedule.Combined{}.Schedule(torus, set)
		if err != nil {
			t.Fatal(err)
		}
		var msgs []Message
		for _, r := range set {
			for n := 1 + rng.Intn(3); n > 0; n-- {
				start := 0
				if rng.Intn(2) == 0 {
					start = rng.Intn(4 * res.Degree())
				}
				msgs = append(msgs, Message{Src: int(r.Src), Dst: int(r.Dst), Flits: 1 + rng.Intn(12), Start: start})
			}
		}
		rng.Shuffle(len(msgs), func(i, j int) { msgs[i], msgs[j] = msgs[j], msgs[i] })
		for _, mode := range []Mode{TDM, WDM} {
			stop := rng.Intn(16*res.Degree() + 2)
			compareWithStepper(t, "trial", res, msgs, mode, stop)
		}
	}
}

// handSchedule is a degree-k schedule that assigns circuit c (PE c to PE
// c+1 of a 17-PE ring) the TDM slot u = (slots[c] mod 128) mod k. A slot
// byte of 128 or more also schedules the pair in configuration (u+1) mod k
// when k > 1, and its Slot names the later of the two, as a Slot index
// built from Configs does. The engines never check conflicts, so any slot
// assignment is a valid input.
func handSchedule(k int, slots []byte) *schedule.Result {
	res := &schedule.Result{Configs: make([]request.Set, k), Slot: make(map[request.Request]int)}
	for c, b := range slots {
		r := request.Request{Src: nodeID(c), Dst: nodeID(c + 1)}
		u := int(b&127) % k
		in := []int{u}
		if b >= 128 && k > 1 {
			in = append(in, (u+1)%k)
		}
		for _, v := range in {
			res.Configs[v] = append(res.Configs[v], r)
			res.Slot[r] = max(res.Slot[r], v)
		}
	}
	return res
}

// FuzzCompiledSim holds the closed-form engine equal to the slot stepper
// on arbitrary schedules: degree, slot assignment, pairs scheduled in two
// configurations, several messages per circuit, starts, flit counts,
// message order, mode and RunUntil's stop all come from the input. Each
// 3-byte chunk of msgs is one message: circuit, start (scaled by the
// chunk's top bits) and flits. A circuit byte of 128 or
// more names a pair the schedule lacks: the circuit reversed when even, a
// destination outside every scheduled node when odd.
func FuzzCompiledSim(f *testing.F) {
	f.Add(uint8(1), false, uint16(0), []byte{0}, []byte{0, 0, 9})
	f.Add(uint8(4), false, uint16(7), []byte{0, 1, 2, 3}, []byte{0, 0, 3, 1, 2, 1, 0, 5, 2, 3, 0, 0})
	f.Add(uint8(3), true, uint16(5), []byte{2, 0, 1}, []byte{1, 9, 4, 1, 0, 2, 0, 200, 7})
	f.Add(uint8(64), false, uint16(300), []byte{63, 0, 17, 5, 5, 9}, []byte{5, 255, 131, 3, 4, 40, 0, 1, 1, 5, 0, 30})
	f.Add(uint8(2), false, uint16(3), []byte{0, 1}, []byte{0, 0, 2, 128, 0, 1})                        // unscheduled pair
	f.Add(uint8(2), true, uint16(3), []byte{0, 1, 1}, []byte{1, 0, 2, 0, 1, 1, 129, 0, 1, 2, 0, 3})    // out-of-range node
	f.Add(uint8(2), false, uint16(6), []byte{128, 2, 129}, []byte{0, 0, 3, 2, 1, 2, 0, 4, 1, 1, 0, 2}) // pairs in configs 0,1 and 1,2
	f.Add(uint8(2), false, uint16(2), []byte{130, 0}, []byte{0, 0, 5, 1, 0, 1, 0, 1, 2})               // a pair in configs 2 and 0
	f.Fuzz(func(t *testing.T, degree uint8, wdm bool, stop uint16, slots, data []byte) {
		k := 1 + int(degree)%64
		if len(slots) == 0 || len(slots) > 16 || len(data) > 3*64 {
			return
		}
		res := handSchedule(k, slots)
		var msgs []Message
		for i := 0; i+2 < len(data); i += 3 {
			c := int(data[i]&127) % len(slots)
			src, dst := c, c+1
			if data[i] >= 128 {
				src, dst = c+1, c
				if data[i]&1 != 0 {
					src, dst = c, 1000
				}
			}
			start := int(data[i+1]) << (data[i+2] >> 5)
			msgs = append(msgs, Message{Src: src, Dst: dst, Flits: 1 + int(data[i+2]&31), Start: start})
		}
		mode := TDM
		if wdm {
			mode = WDM
		}
		compareWithStepper(t, "fuzz", res, msgs, mode, int(stop))
	})
}

// TestCompiledSimWarmAllocs: after a warm-up run, RunInto on a reused
// engine and result touches no heap: the source buckets and circuit
// arrays are reused, and no map is built per run.
func TestCompiledSimWarmAllocs(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	set, err := patterns.Hypercube(64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := schedule.Combined{}.Schedule(torus, set)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []Message
	for i, r := range set {
		msgs = append(msgs, Message{Src: int(r.Src), Dst: int(r.Dst), Flits: 1 + i%5, Start: i % 3})
	}
	cs := NewCompiledSim()
	var out CompiledResult
	run := func() {
		if err := cs.RunInto(res, msgs, TDM, &out); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Errorf("warm RunInto allocates %.1f objects/run, want 0", allocs)
	}
}
