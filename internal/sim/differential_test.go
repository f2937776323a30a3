package sim

// Differential test layer for the zero-allocation simulator: the flat-array
// Simulator of simulator.go must be event-for-event identical to the
// pre-refactor container/heap implementation kept in oracle_test.go, across
// the same five topology families the scheduling pipeline's determinism
// tests sweep, for every reservation variant, and across repeated runs of
// one reused Simulator value (locking in Reset correctness).

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"repro/internal/network"
	"repro/internal/topology"
)

// differentialTopologies mirrors internal/schedule/determinism_test.go.
func differentialTopologies() []network.Topology {
	return []network.Topology{
		topology.NewLinear(8),
		topology.NewTorus(4, 4),
		topology.NewTorus3D(3, 3, 3),
		topology.NewHypercube(4),
		topology.NewOmega(16),
	}
}

// randomMessages draws a workload over the topology's terminals: random
// pairs, random lengths, staggered starts — enough contention to exercise
// retries, nacks and (under LockBackward) ack races.
func randomMessages(rng *rand.Rand, terminals, count int) []Message {
	msgs := make([]Message, count)
	for i := range msgs {
		src := rng.Intn(terminals)
		dst := rng.Intn(terminals - 1)
		if dst >= src {
			dst++
		}
		msgs[i] = Message{
			Src:   src,
			Dst:   dst,
			Flits: 1 + rng.Intn(6),
			Start: rng.Intn(64),
		}
	}
	return msgs
}

// ringMessages is the deterministic closed workload: every terminal sends
// to its successor.
func ringMessages(terminals, flits int) []Message {
	msgs := make([]Message, terminals)
	for i := range msgs {
		msgs[i] = Message{Src: i, Dst: (i + 1) % terminals, Flits: flits}
	}
	return msgs
}

func requireEqualResults(t *testing.T, label string, want, got *DynamicResult) {
	t.Helper()
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: simulator diverged from oracle:\noracle:    %+v\nsimulator: %+v", label, want, got)
	}
}

// TestSimulatorMatchesOracle sweeps (topology family x degree x reservation
// variant x shadow queuing x workload) and requires exact equality of every
// result field, including the channel-slot accounting. Each Simulator is
// run twice on the same input to prove the per-run reset leaks nothing.
func TestSimulatorMatchesOracle(t *testing.T) {
	for _, topo := range differentialTopologies() {
		n := network.TerminalCount(topo)
		rng := rand.New(rand.NewSource(1996))
		workloads := [][]Message{
			ringMessages(n, 5),
			randomMessages(rng, n, 3*n),
			randomMessages(rng, n, 3*n),
		}
		for _, k := range []int{1, 2, 5} {
			for _, variant := range []struct {
				name string
				mut  func(*Params)
			}{
				{"forward", func(*Params) {}},
				{"backward", func(p *Params) { p.Reservation = LockBackward }},
				{"queued", func(p *Params) { p.ShadowQueuing = true }},
				{"backward+queued", func(p *Params) {
					p.Reservation = LockBackward
					p.ShadowQueuing = true
				}},
				{"wdm", func(p *Params) { p.Mode = WDM }},
			} {
				params := DefaultParams(k)
				variant.mut(&params)
				s, err := NewSimulator(topo, params)
				if err != nil {
					t.Fatal(err)
				}
				for wi, msgs := range workloads {
					label := fmt.Sprintf("%s/K=%d/%s/workload-%d", topo.Name(), k, variant.name, wi)
					want, err := runDynamicOracle(topo, params, msgs)
					if err != nil {
						t.Fatalf("%s: oracle: %v", label, err)
					}
					got, err := s.Run(msgs)
					if err != nil {
						t.Fatalf("%s: simulator: %v", label, err)
					}
					requireEqualResults(t, label, want, got)
					again, err := s.Run(msgs)
					if err != nil {
						t.Fatalf("%s: simulator rerun: %v", label, err)
					}
					requireEqualResults(t, label+"/rerun", want, again)
				}
			}
		}
	}
}

// TestSimulatorMatchesOracleOnTimeout: the truncated-run path must agree
// too (TimedOut flag, clamped Time, partial Finish).
func TestSimulatorMatchesOracleOnTimeout(t *testing.T) {
	torus := topology.NewTorus(4, 4)
	params := DefaultParams(1)
	params.MaxTime = 40
	msgs := randomMessages(rand.New(rand.NewSource(7)), 16, 48)
	want, err := runDynamicOracle(torus, params, msgs)
	if err != nil {
		t.Fatal(err)
	}
	if !want.TimedOut {
		t.Fatal("workload expected to time out under MaxTime=40")
	}
	s, err := NewSimulator(torus, params)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.Run(msgs)
	if err != nil {
		t.Fatal(err)
	}
	requireEqualResults(t, "timeout", want, got)
}

// TestSimulatorRunIntoSteadyStateAllocs: after a warm-up run, RunInto on a
// reused Simulator and result must not touch the heap. This is the
// zero-allocation contract the sweep engine relies on.
func TestSimulatorRunIntoSteadyStateAllocs(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	msgs := ringMessages(64, 7)
	s, err := NewSimulator(torus, DefaultParams(2))
	if err != nil {
		t.Fatal(err)
	}
	var res DynamicResult
	if err := s.RunInto(msgs, &res); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		if err := s.RunInto(msgs, &res); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state RunInto allocates %.1f objects/run, want 0", allocs)
	}
}

// TestSweepDeterministicAcrossWorkers: a sweep that generates its own
// random workloads must produce byte-identical per-trial results for 1, 4
// and NumCPU workers, and at different GOMAXPROCS settings. Runs under
// -race in CI, which also proves the worker pool clean.
func TestSweepDeterministicAcrossWorkers(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	const trials = 12
	collect := func(workers int) ([]DynamicResult, error) {
		out := make([]DynamicResult, trials)
		err := Sweep(trials, workers, 1996, func(trial int, rng *rand.Rand) error {
			msgs, err := OpenLoop(rng, OpenLoopConfig{Nodes: 64, MessagesPerNode: 2, Flits: 2, MeanGap: 400})
			if err != nil {
				return err
			}
			s, err := NewSimulator(torus, DefaultParams(2+trial%3))
			if err != nil {
				return err
			}
			return s.RunInto(msgs, &out[trial])
		})
		return out, err
	}
	ref, err := collect(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for _, workers := range []int{1, 4, runtime.NumCPU()} {
			got, err := collect(workers)
			if err != nil {
				runtime.GOMAXPROCS(old)
				t.Fatal(err)
			}
			if !reflect.DeepEqual(ref, got) {
				runtime.GOMAXPROCS(old)
				t.Fatalf("GOMAXPROCS=%d workers=%d: sweep results differ from the serial reference", procs, workers)
			}
		}
		runtime.GOMAXPROCS(old)
	}
}

// TestSweepErrorIsDeterministic: when trials fail, the reported error is
// the lowest-numbered failing trial's, regardless of worker count.
func TestSweepErrorIsDeterministic(t *testing.T) {
	for _, workers := range []int{1, 4} {
		err := Sweep(8, workers, 0, func(trial int, _ *rand.Rand) error {
			if trial%2 == 1 {
				return fmt.Errorf("boom %d", trial)
			}
			return nil
		})
		if err == nil || err.Error() != "sim: sweep trial 1: boom 1" {
			t.Errorf("workers=%d: error %v, want trial 1's", workers, err)
		}
	}
}

// TestTrialSeedDecorrelated: distinct trials must not share seeds, and the
// same (seed, trial) must always map to the same value.
func TestTrialSeedDecorrelated(t *testing.T) {
	seen := make(map[int64]int)
	for trial := 0; trial < 10_000; trial++ {
		s := TrialSeed(42, trial)
		if prev, ok := seen[s]; ok {
			t.Fatalf("trials %d and %d collide on seed %d", prev, trial, s)
		}
		seen[s] = trial
	}
	if TrialSeed(42, 7) != TrialSeed(42, 7) {
		t.Fatal("TrialSeed not deterministic")
	}
	if TrialSeed(42, 7) == TrialSeed(43, 7) {
		t.Fatal("TrialSeed ignores the sweep seed")
	}
}
