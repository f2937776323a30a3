package sim_test

import (
	"testing"

	"repro/internal/apps"
	"repro/internal/sim"
	"repro/internal/topology"
)

func TestReservationSchemeString(t *testing.T) {
	if sim.LockForward.String() != "lock-forward" || sim.LockBackward.String() != "lock-backward" {
		t.Error("ReservationScheme.String broken")
	}
	if sim.ReservationScheme(5).String() != "ReservationScheme(5)" {
		t.Error("unknown scheme string broken")
	}
	p := sim.DefaultParams(2)
	p.Reservation = sim.ReservationScheme(5)
	torus := topology.NewTorus(8, 8)
	if _, err := (sim.Dynamic{Topology: torus, Params: p}).Run([]sim.Message{{Src: 0, Dst: 1, Flits: 1}}); err == nil {
		t.Error("invalid scheme accepted")
	}
}

func TestBackwardReservationLoneMessageMatchesForward(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	msg := []sim.Message{{Src: 0, Dst: 27, Flits: 7}}
	fwd := sim.DefaultParams(2)
	bwd := sim.DefaultParams(2)
	bwd.Reservation = sim.LockBackward
	a, err := sim.Dynamic{Topology: torus, Params: fwd}.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Dynamic{Topology: torus, Params: bwd}.Run(msg)
	if err != nil {
		t.Fatal(err)
	}
	if a.Time != b.Time {
		t.Errorf("uncontended message: forward %d vs backward %d must match", a.Time, b.Time)
	}
}

// TestBackwardReservationCompletesAllWorkloads: the alternative protocol
// must be livelock-free on the contended application patterns.
func TestBackwardReservationCompletesAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	torus := topology.NewTorus(8, 8)
	tscf, err := apps.TSCF(64)
	if err != nil {
		t.Fatal(err)
	}
	p3m, err := apps.P3M(32)
	if err != nil {
		t.Fatal(err)
	}
	for _, ph := range []apps.Phase{tscf, p3m[1], p3m[4]} {
		for _, k := range []int{1, 5} {
			p := sim.DefaultParams(k)
			p.Reservation = sim.LockBackward
			out, err := sim.Dynamic{Topology: torus, Params: p}.Run(ph.Messages)
			if err != nil {
				t.Fatalf("%s K=%d: %v", ph.Name, k, err)
			}
			if out.TimedOut {
				t.Fatalf("%s K=%d: timed out", ph.Name, k)
			}
			for i, f := range out.Finish {
				if f <= 0 {
					t.Fatalf("%s K=%d: message %d unfinished", ph.Name, k, i)
				}
			}
		}
	}
}

// TestBackwardReservationLessBlockingOnObservation: under moderate
// contention the backward scheme's reservation packets never block each
// other in flight (they only observe), so its blocked count at the
// reservation stage differs from forward locking. Both must finish; the
// relative performance is workload-dependent and reported, not asserted.
func TestBackwardVsForwardUnderContention(t *testing.T) {
	torus := topology.NewTorus(8, 8)
	tscf, err := apps.TSCF(64)
	if err != nil {
		t.Fatal(err)
	}
	fwd := sim.DefaultParams(5)
	bwd := sim.DefaultParams(5)
	bwd.Reservation = sim.LockBackward
	a, err := sim.Dynamic{Topology: torus, Params: fwd}.Run(tscf.Messages)
	if err != nil {
		t.Fatal(err)
	}
	b, err := sim.Dynamic{Topology: torus, Params: bwd}.Run(tscf.Messages)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("TSCF K=5: forward %d slots (%d blocked), backward %d slots (%d blocked)",
		a.Time, a.Blocked, b.Time, b.Blocked)
	if a.Time <= 0 || b.Time <= 0 {
		t.Error("both schemes must complete")
	}
}

// TestBackwardQueuedAbortWalkNoLeak: under backward reservation with shadow
// queuing, a lost ack race's abort walk can be held at busy switches until
// the retry's ack reaches the last hop. The ack must wait for the walk;
// locking first overwrote the stale lock and failed the run with "link 34
// leaked channels" on P3M 2 at 64^3 and K = 2.
func TestBackwardQueuedAbortWalkNoLeak(t *testing.T) {
	phases, err := apps.P3M(64)
	if err != nil {
		t.Fatal(err)
	}
	p := sim.DefaultParams(2)
	p.Reservation = sim.LockBackward
	p.ShadowQueuing = true
	torus := topology.NewTorus(8, 8)
	for _, ph := range phases[1:3] { // P3M 2 and P3M 3
		out, err := sim.Dynamic{Topology: torus, Params: p}.Run(ph.Messages)
		if err != nil {
			t.Fatalf("%s: %v", ph.Name, err)
		}
		if out.TimedOut {
			t.Fatalf("%s: timed out", ph.Name)
		}
		for i, f := range out.Finish {
			if f == 0 {
				t.Fatalf("%s: message %d never delivered", ph.Name, i)
			}
		}
	}
}
