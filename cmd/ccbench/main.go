// Command ccbench runs the pinned simulator benchmark set and writes the
// results as BENCH_sim.json: single-run dynamic-control simulations on the
// 8x8 torus (the acceptance workloads of the zero-allocation engine),
// compiled-execution replays, and parallel-sweep wall clocks at increasing
// worker counts. The JSON is the perf baseline a reviewer diffs across
// commits; the committed BENCH_sim.json records the numbers of this
// revision's machine.
//
// Usage:
//
//	ccbench                       # full run, ~200ms per benchmark
//	ccbench -quick                # single iteration per benchmark (CI smoke)
//	ccbench -o BENCH_sim.json     # write the report here (default)
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"text/tabwriter"

	"repro/internal/apps"
	"repro/internal/cluster"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/fault"
	"repro/internal/network"
	"repro/internal/optics"
	"repro/internal/patterns"
	"repro/internal/perf"
	"repro/internal/qos"
	"repro/internal/request"
	"repro/internal/schedule"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/sim"
	"repro/internal/switchprog"
	"repro/internal/topology"
	"repro/internal/trace"
)

var (
	outFlag   = flag.String("o", "BENCH_sim.json", "output file; - means stdout only")
	quickFlag = flag.Bool("quick", false, "run each benchmark once (CI smoke mode)")
)

// clusterSwap defers handler installation on a httptest server: member
// URLs must exist before the cluster nodes that answer on them.
type clusterSwap struct{ h atomic.Value }

func (s *clusterSwap) set(h http.Handler) { s.h.Store(&h) }

func (s *clusterSwap) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if h, ok := s.h.Load().(*http.Handler); ok {
		(*h).ServeHTTP(w, r)
		return
	}
	http.Error(w, "not ready", http.StatusServiceUnavailable)
}

// ringMessages is the light-contention acceptance workload: every terminal
// of the 8x8 torus sends to its successor.
func ringMessages(terminals, flits int) []sim.Message {
	msgs := make([]sim.Message, terminals)
	for i := range msgs {
		msgs[i] = sim.Message{Src: i, Dst: (i + 1) % terminals, Flits: flits}
	}
	return msgs
}

// denseMessages is the heavy-contention acceptance workload; the generator
// matches internal/sim's differential-test workload (seed 1996) so ccbench
// and `go test -bench` measure the same simulation.
func denseMessages(seed int64, terminals, count int) []sim.Message {
	rng := rand.New(rand.NewSource(seed))
	msgs := make([]sim.Message, count)
	for i := range msgs {
		src := rng.Intn(terminals)
		dst := rng.Intn(terminals - 1)
		if dst >= src {
			dst++
		}
		msgs[i] = sim.Message{Src: src, Dst: dst, Flits: 1 + rng.Intn(6), Start: rng.Intn(64)}
	}
	return msgs
}

func main() {
	flag.Parse()
	torus := topology.NewTorus(8, 8)
	report := perf.NewReport(*quickFlag)

	ring := ringMessages(64, 7)
	dense := denseMessages(1996, 64, 192)

	// Dynamic control, reused simulator: the zero-allocation hot path.
	for _, w := range []struct {
		name   string
		degree int
		msgs   []sim.Message
	}{
		{"dynamic/ring64/K=2", 2, ring},
		{"dynamic/dense192/K=5", 5, dense},
	} {
		s, err := sim.NewSimulator(torus, sim.DefaultParams(w.degree))
		check(err)
		var res sim.DynamicResult
		msgs := w.msgs
		check(report.Run(w.name, func() error { return s.RunInto(msgs, &res) }))
	}

	// Dynamic control, fresh simulator per run: what a caller pays without
	// reuse (construction, routing, first-run growth).
	check(report.Run("dynamic-cold/ring64/K=2", func() error {
		_, err := sim.Dynamic{Topology: torus, Params: sim.DefaultParams(2)}.Run(ring)
		return err
	}))

	// Compiled execution replay on a reused CompiledSim.
	ring32 := ringMessages(64, 32)
	var set request.Set
	for _, m := range ring32 {
		set = append(set, request.Request{Src: network.NodeID(m.Src), Dst: network.NodeID(m.Dst)})
	}
	sched, err := schedule.Combined{}.Schedule(torus, set.Dedup())
	check(err)
	cs := sim.NewCompiledSim()
	var out sim.CompiledResult
	check(report.Run("compiled/ring64", func() error { return cs.RunInto(sched, ring32, sim.TDM, &out) }))

	// Modern-fabric workload path: the seeded MoE exchange generated on 512
	// ranks (the trace-construction cost a workload driver pays per step),
	// and its dispatch round scheduled on the 512-PE dragonfly — the
	// fabric/collective pairing of the crossover atlas, with every ordered
	// group pair funneled through a single global link.
	{
		df := topology.NewDragonfly(8, 16, 4)
		moe, err := collective.MoEAllToAll(512, 4, 4, 1996)
		check(err)
		dispatch := moe.Rounds[0]
		check(report.Run("collective/moe-alltoall", func() error {
			_, err := collective.MoEAllToAll(512, 4, 4, 1996)
			return err
		}))
		check(report.Run("fabric/dragonfly-compile", func() error {
			_, err := schedule.Combined{}.Schedule(df, dispatch)
			return err
		}))
	}

	// Recompile-after-failure: the host-side reaction to a link failure —
	// mask the dead links, reschedule the surviving traffic, lower it to
	// switch programs and verify the light trace. Each iteration builds a
	// fresh masked view, so the routes are recomputed cold, as they would
	// be for a failure the compiler has never seen.
	hyper, err := patterns.Hypercube(64)
	check(err)
	failset := fault.SetOf(fault.RandomLinkPlan(torus, 1996, 6, 0))
	check(report.Run("fault/recompile/hypercube64", func() error {
		_, _, err := fault.Recompile(fault.NewMasked(torus, failset), hyper, nil)
		return err
	}))

	// Incremental recompilation: patch a drifted hypercube pattern onto its
	// compiled base (internal/delta) vs scheduling the drifted target from
	// scratch. The spread is the amortization the delta compiler buys a
	// family of nearby patterns.
	{
		baseRes, err := schedule.Combined{}.Schedule(torus, hyper)
		check(err)
		drift := hyper.Clone()[:len(hyper)-4]
		drift = append(drift, request.Set{{Src: 0, Dst: 63}, {Src: 17, Dst: 42}}...)
		check(report.Run("delta/patch/hypercube64", func() error {
			_, st, err := delta.Recompile(torus, baseRes, drift, delta.Options{})
			if err == nil && !st.Patched {
				return fmt.Errorf("patch rejected: %s", st.Fallback)
			}
			return err
		}))
		check(report.Run("delta/full/hypercube64", func() error {
			_, err := schedule.Combined{}.Schedule(torus, drift)
			return err
		}))

		// Scheduling core, no HTTP in the way: the arena compile the service
		// runs per cache miss. Its speedup over the map-based oracle core is
		// `go test ./internal/schedule -bench CompileMiss`.
		st := schedule.NewCompileState()
		var combined schedule.Scheduler = schedule.Combined{}
		check(report.Run("sched/compile/hypercube64", func() error {
			_, err := st.Compile(combined, torus, hyper)
			return err
		}))

		// Streaming incremental recompilation: a delta.Session absorbing an
		// alternating pattern drift, against the stateless patch above. The
		// session keeps the colored schedule alive between calls, so each
		// iteration pays only the diff.
		sess, err := delta.NewSession(torus, baseRes, delta.Options{})
		check(err)
		targets := [2]request.Set{drift, hyper}
		flip := 0
		check(report.Run("delta/session/hypercube64", func() error {
			flip++
			_, sst, err := sess.Recompile(targets[flip%2])
			if err == nil && !sst.Patched {
				return fmt.Errorf("session patch rejected: %s", sst.Fallback)
			}
			return err
		}))
	}

	// Dynamic control under fault injection on a reused simulator: the
	// mid-run teardown/reroute machinery on top of the ring workload.
	{
		s, err := sim.NewSimulator(torus, sim.DefaultParams(2))
		check(err)
		plan := fault.SimPlan(torus, fault.RandomLinkPlan(torus, 7, 4, 50))
		var res sim.DynamicResult
		check(report.Run("fault/dynamic/ring64/K=2", func() error { return s.RunFaulted(ring, plan, &res) }))
	}

	// Serving layer: the compile daemon end to end over loopback HTTP — a
	// cold compile (a fresh content key every iteration) vs a cache hit of
	// the same artifact. The spread between the two is the amortization the
	// content-addressed cache buys a long-running daemon.
	{
		svc, err := service.New(service.Config{Topology: torus})
		check(err)
		ts := httptest.NewServer(svc)
		c := &client.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
		doc := trace.FromProgram(core.Program{
			Name:   "ring64",
			Phases: []core.Phase{{Name: "ring", Messages: ring}},
		}, 64)
		ctx := context.Background()
		cold := 0
		check(report.Run("service/compile-miss/ring64", func() error {
			cold++
			d := doc
			d.Name = fmt.Sprintf("ring64-cold-%d", cold)
			_, _, err := c.Compile(ctx, d, client.Options{})
			return err
		}))
		if _, _, err := c.Compile(ctx, doc, client.Options{}); err != nil {
			check(err)
		}
		check(report.Run("service/compile-hit/ring64", func() error {
			resp, _, err := c.Compile(ctx, doc, client.Options{})
			if err == nil && resp.Cache != service.CacheHit {
				return fmt.Errorf("expected a cache hit, got %q", resp.Cache)
			}
			return err
		}))
		ts.Close()
		svc.Close()
	}

	// Cluster serving: three federated daemons over loopback HTTP with a
	// replica set of 1, so every key has exactly one home and requests to
	// the wrong node must cross the wire. Three rows bracket the costs: a
	// cold compile reached through a forward (cold-forward), a forward that
	// lands on a warm owner (forward-hit — the entry node's cache is pinned
	// to one slot so alternating two keys always evicts and re-forwards),
	// and a plain local hit through the same cluster handler (local-hit,
	// the routing layer's overhead floor).
	{
		const members = 3
		swaps := make([]*clusterSwap, members)
		servers := make([]*httptest.Server, members)
		urls := make([]string, members)
		for i := range swaps {
			swaps[i] = &clusterSwap{}
			servers[i] = httptest.NewServer(swaps[i])
			urls[i] = servers[i].URL
		}
		svcs := make([]*service.Server, members)
		nodes := make([]*cluster.Node, members)
		for i := range svcs {
			cfg := service.Config{Topology: torus}
			if i == 0 {
				cfg.CacheEntries = 1
			}
			svc, err := service.New(cfg)
			check(err)
			node, err := cluster.NewNode(svc, cluster.Config{Self: urls[i], Peers: urls, Replication: 1})
			check(err)
			svc.SetPeers(node)
			swaps[i].set(node)
			svcs[i], nodes[i] = svc, node
		}
		hashRing := cluster.NewRing(urls, cluster.DefaultVNodes)
		ctx := context.Background()
		mkDoc := func(name string) trace.Document {
			return trace.FromProgram(core.Program{
				Name:   name,
				Phases: []core.Phase{{Name: "ring", Messages: ring}},
			}, 64)
		}
		// mint scans names for a document whose content key satisfies want.
		mint := func(prefix string, want func(owner string) bool) trace.Document {
			for i := 0; ; i++ {
				d := mkDoc(fmt.Sprintf("%s-%d", prefix, i))
				key, err := service.KeyForDocument(d, torus.Name(), "combined")
				check(err)
				if want(hashRing.Owner(key)) {
					return d
				}
			}
		}
		entry := &client.Client{BaseURL: urls[0], HTTPClient: servers[0].Client()}

		coldN := 0
		check(report.Run("cluster/compile-cold-forward/ring64", func() error {
			for {
				coldN++
				d := mkDoc(fmt.Sprintf("cluster-cold-%d", coldN))
				key, err := service.KeyForDocument(d, torus.Name(), "combined")
				if err != nil {
					return err
				}
				if hashRing.Owner(key) == urls[0] {
					continue // needs the wire: skip keys the entry node owns
				}
				resp, _, err := entry.Compile(ctx, d, client.Options{})
				if err != nil {
					return err
				}
				if resp.Cache != service.CachePeer {
					return fmt.Errorf("expected a peer forward, got %q", resp.Cache)
				}
				return nil
			}
		}))

		// Two keys homed on member 2, pre-warmed there; the entry node's
		// single cache slot guarantees every alternation misses locally and
		// forwards to the warm owner.
		warmA := mint("cluster-warm-a", func(o string) bool { return o == urls[2] })
		warmB := mint("cluster-warm-b", func(o string) bool { return o == urls[2] })
		owner2 := &client.Client{BaseURL: urls[2], HTTPClient: servers[2].Client()}
		for _, d := range []trace.Document{warmA, warmB} {
			_, _, err := owner2.Compile(ctx, d, client.Options{})
			check(err)
		}
		flip := 0
		check(report.Run("cluster/forward-hit/ring64", func() error {
			flip++
			d := warmA
			if flip%2 == 0 {
				d = warmB
			}
			resp, _, err := entry.Compile(ctx, d, client.Options{})
			if err != nil {
				return err
			}
			if resp.Cache != service.CachePeer {
				return fmt.Errorf("expected a peer forward, got %q", resp.Cache)
			}
			return nil
		}))

		check(report.Run("cluster/local-hit/ring64", func() error {
			resp, _, err := owner2.Compile(ctx, warmA, client.Options{})
			if err != nil {
				return err
			}
			if resp.Cache != service.CacheHit {
				return fmt.Errorf("expected a local hit, got %q", resp.Cache)
			}
			return nil
		}))

		for i := range svcs {
			nodes[i].Stop()
			servers[i].Close()
			svcs[i].Close()
		}
	}

	// Multi-tenant QoS: the weighted-fair queue's dispatch hot path (a
	// two-class backlog enqueued and drained per iteration — the admission
	// work every compile submission pays under -qos), and the guaranteed-
	// bandwidth reservation compile (the reserved pattern pinned to its slot
	// window, the background pattern packed into the complement). After the
	// timed rows, VerifyInvariance is the subsystem's acceptance assertion:
	// the reserved tenant's simulated delivery slots must be identical with
	// and without background load, or the run fails.
	{
		reg, err := qos.NewRegistry([]qos.Class{
			{Name: "gold", Weight: 8, QueueDepth: 512},
			{Name: "bronze", Weight: 1, QueueDepth: 512},
		}, qos.Defaults{})
		check(err)
		classes := [2]string{"gold", "bronze"}
		check(report.Run("qos/wfq-dispatch/256", func() error {
			q := qos.NewWFQ(reg)
			for i := 0; i < 256; i++ {
				if err := q.Enqueue(classes[i%2], i); err != nil {
					return err
				}
			}
			for i := 0; i < 256; i++ {
				if _, _, _, ok := q.Dequeue(); !ok {
					return fmt.Errorf("queue drained early at %d", i)
				}
			}
			q.Close()
			return nil
		}))

		reserved := request.Set{{Src: 0, Dst: 9}, {Src: 9, Dst: 18}, {Src: 18, Dst: 27}}
		var background request.Set
		for i := 0; i < 16; i++ {
			background = append(background, request.Request{
				Src: network.NodeID(32 + i), Dst: network.NodeID(32 + (i+5)%16),
			})
		}
		rsv := qos.Reserve{Tenant: "gold", Frame: 8, Lo: 2, Hi: 4}
		check(rsv.Admit(torus, reserved))
		check(report.Run("qos/reserved-compile/torus64", func() error {
			_, err := rsv.Schedule(torus, schedule.Combined{}, reserved, background)
			return err
		}))
		var rmsgs []sim.Message
		for _, rq := range reserved {
			rmsgs = append(rmsgs, sim.Message{Src: int(rq.Src), Dst: int(rq.Dst), Flits: 3})
		}
		check(rsv.VerifyInvariance(torus, schedule.Combined{}, reserved, background, rmsgs))
	}

	// Overlap-aware iteration time: the reconfigure-or-not planner against
	// the paper's model of a full register load at every phase boundary.
	// Three totals per workload go into the JSON: the overlap plan
	// (keep/patch/recompile with loads hidden under idle TDM slots), the
	// same plan with serialized loading, and the per-phase full-load
	// baseline (IterationTime). The ring all-reduce is the circuit-sharing
	// workload the planner must win outright: after round one the circuits
	// never change, so every boundary is a keep and the baseline's 2(n-1)
	// reconfigurations collapse to one.
	{
		rc := core.DefaultReconfigCost
		coll, err := collective.RingAllReduce(64, 64)
		check(err)
		ringAR := coll.Program(1)
		ringAR.Phases = ringAR.Phases[:8]
		ag, err := collective.AllGather(64, 8)
		check(err)
		p3mPhases, err := apps.P3M(32)
		check(err)
		p3m := core.Program{Name: "p3m-32"}
		for _, ph := range p3mPhases {
			p3m.Phases = append(p3m.Phases, core.Phase{Name: ph.Name, Messages: ph.Messages})
		}
		for _, w := range []struct {
			name string
			prog core.Program
		}{
			{"ring-allreduce64", ringAR},
			{"allgather64", ag.Program(1)},
			{"p3m64", p3m},
		} {
			cp, err := core.Compiler{Topology: torus, Scheduler: schedule.Combined{}}.Compile(w.prog)
			check(err)
			var plan *core.OverlapPlan
			check(report.Run("overlap/plan/"+w.name, func() error {
				plan, err = cp.PlanOverlap(rc)
				return err
			}))
			if plan.Total > plan.Serialized {
				check(fmt.Errorf("overlap/%s: overlap total %d exceeds serialized %d", w.name, plan.Total, plan.Serialized))
			}
			report.AddValue("overlap/"+w.name+"/overlapped", float64(plan.Total), "slots")
			report.AddValue("overlap/"+w.name+"/serialized", float64(plan.Serialized), "slots")
			report.AddValue("overlap/"+w.name+"/baseline", float64(plan.Baseline), "slots")
		}
		// The headline acceptance number: on the circuit-sharing workload
		// the planned iteration must be strictly cheaper than serialized
		// per-phase reconfiguration.
		cp, err := core.Compiler{Topology: torus, Scheduler: schedule.Combined{}}.Compile(ringAR)
		check(err)
		plan, err := cp.PlanOverlap(rc)
		check(err)
		if plan.Total >= plan.Baseline {
			check(fmt.Errorf("overlap/ring-allreduce64: planned %d slots does not beat the %d-slot full-reconfiguration baseline", plan.Total, plan.Baseline))
		}
	}

	// Multi-phase serving: one pipelined /session stream against the same
	// phase sequence issued as independent /compile calls (fresh names per
	// iteration so neither path hits the artifact cache). Two workloads: the
	// ring all-reduce, where after round one every phase is byte-identical
	// and the session skips the compile entirely (the amortization headline
	// — asserted to win in full mode, after a one-shot check that the
	// session's schedules really are the ones the N compiles return), and
	// p3m, where every phase differs and the session pays a compile plus
	// candidate pricing per boundary (the honest overhead row).
	{
		coll, err := collective.RingAllReduce(64, 64)
		check(err)
		ringAR := coll.Program(1)
		ringAR.Phases = ringAR.Phases[:8]
		p3mPhases, err := apps.P3M(32)
		check(err)
		p3m := core.Program{Name: "p3m-32"}
		for _, ph := range p3mPhases {
			p3m.Phases = append(p3m.Phases, core.Phase{Name: ph.Name, Messages: ph.Messages})
		}
		svc, err := service.New(service.Config{Topology: torus})
		check(err)
		ts := httptest.NewServer(svc)
		c := &client.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
		ctx := context.Background()
		for _, w := range []struct {
			name string
			prog core.Program
		}{
			{"ring-allreduce64", ringAR},
			{"p3m64", p3m},
		} {
			doc := trace.FromProgram(w.prog, 64)
			perPhaseDocs := func(n int) []trace.Document {
				docs := make([]trace.Document, len(doc.Phases))
				for i := range doc.Phases {
					docs[i] = trace.Document{
						Name:   fmt.Sprintf("%s/%d/%d", doc.Name, n, i),
						PEs:    doc.PEs,
						Phases: []trace.Phase{doc.Phases[i]},
					}
				}
				return docs
			}
			// One untimed pass proving the session serves byte-identical
			// schedules to what N independent compiles return.
			sessRes, err := c.Session(ctx, doc, client.Options{}, nil)
			check(err)
			for i, d := range perPhaseDocs(0) {
				_, res, err := c.Compile(ctx, d, client.Options{})
				check(err)
				if !reflect.DeepEqual(sessRes.Phases[i].Result.Configs, res.Phases[0].Configs) {
					check(fmt.Errorf("service/session/%s: phase %d schedule differs from its independent compile", w.name, i))
				}
			}
			check(report.Run("service/session/"+w.name, func() error {
				res, err := c.Session(ctx, doc, client.Options{}, nil)
				if err != nil {
					return err
				}
				if len(res.Phases) != len(doc.Phases) {
					return fmt.Errorf("session served %d phases, want %d", len(res.Phases), len(doc.Phases))
				}
				return nil
			}))
			n := 0
			check(report.Run("service/compile-per-phase/"+w.name, func() error {
				n++
				for i, d := range perPhaseDocs(n) {
					if _, _, err := c.Compile(ctx, d, client.Options{}); err != nil {
						return fmt.Errorf("phase %d: %w", i, err)
					}
				}
				return nil
			}))
		}
		ts.Close()
		svc.Close()
		if !*quickFlag {
			sess, ok1 := report.LastResult("service/session/ring-allreduce64")
			perPhase, ok2 := report.LastResult("service/compile-per-phase/ring-allreduce64")
			if !ok1 || !ok2 {
				check(fmt.Errorf("session benchmark rows missing"))
			}
			if sess.NsPerOp >= perPhase.NsPerOp {
				check(fmt.Errorf("/session (%.0f ns) not faster than %d independent /compile calls (%.0f ns)",
					sess.NsPerOp, len(ringAR.Phases), perPhase.NsPerOp))
			}
		}
	}

	// Fault-masked recompilation through the daemon, on the paper's p3m64
	// trace with a single failed link: with a schedule store the daemon
	// rebases the stored healthy schedules onto the mask (the delta path);
	// without one every request schedules the masked view from scratch. Fresh
	// program names defeat the artifact cache so each iteration really
	// recompiles.
	{
		phases, err := apps.P3M(32)
		check(err)
		prog := core.Program{Name: "p3m-32"}
		for _, ph := range phases {
			prog.Phases = append(prog.Phases, core.Phase{Name: ph.Name, Messages: ph.Messages})
		}
		doc := trace.FromProgram(prog, 64)
		mask := service.FaultMask{Links: []int{3}}
		ctx := context.Background()
		for _, mode := range []struct {
			name  string
			store bool
		}{
			{"service/recompile-full/p3m64", false},
			{"service/recompile-delta/p3m64", true},
		} {
			cfg := service.Config{Topology: torus}
			if mode.store {
				dir, err := os.MkdirTemp("", "ccbench-store-*")
				check(err)
				defer os.RemoveAll(dir)
				cfg.StoreDir = dir
			}
			svc, err := service.New(cfg)
			check(err)
			ts := httptest.NewServer(svc)
			c := &client.Client{BaseURL: ts.URL, HTTPClient: ts.Client()}
			if mode.store {
				// The healthy compile seeds the base store the delta path
				// rebases from.
				_, _, err := c.Compile(ctx, doc, client.Options{})
				check(err)
			}
			n := 0
			check(report.Run(mode.name, func() error {
				n++
				d := doc
				d.Name = fmt.Sprintf("p3m-32-mask-%d", n)
				_, res, err := c.Recompile(ctx, d, mask, client.Options{})
				if err == nil && res.MaxDegree < 1 {
					return fmt.Errorf("degenerate recompile result")
				}
				return err
			}))
			ts.Close()
			svc.Close()
		}

		// The same two recompile paths with the protocol stripped away: the
		// HTTP rows above pay a shared JSON-parse/encode/transport floor on
		// both sides that compresses their ratio; these rows isolate what
		// the compiler itself does per request. Full runs fault.Recompile
		// (schedule from scratch on the masked view, lower, verify) per
		// static phase; delta rebases each phase's stored healthy schedule
		// (delta.Recompile, then the same lowering and light-trace check the
		// service performs).
		{
			failset := fault.NewSet()
			failset.FailLink(3)
			masked := fault.NewMasked(torus, failset)
			var phaseReqs []request.Set
			var bases []*schedule.Result
			for _, ph := range prog.Phases {
				reqs := ph.Requests()
				base, err := schedule.Combined{}.Schedule(torus, reqs)
				check(err)
				phaseReqs = append(phaseReqs, reqs)
				bases = append(bases, base)
			}
			check(report.Run("fault/recompile-full/p3m64", func() error {
				for i := range phaseReqs {
					if _, _, err := fault.Recompile(masked, phaseReqs[i], nil); err != nil {
						return fmt.Errorf("phase %d: %w", i, err)
					}
				}
				return nil
			}))
			patched := 0
			check(report.Run("fault/recompile-delta/p3m64", func() error {
				patched = 0
				for i := range phaseReqs {
					res, st, err := delta.Recompile(masked, bases[i], phaseReqs[i], delta.Options{})
					if err != nil {
						return fmt.Errorf("phase %d: %w", i, err)
					}
					if st.Patched {
						patched++
					}
					sp, err := switchprog.Compile(res)
					if err != nil {
						return fmt.Errorf("phase %d: %w", i, err)
					}
					if _, err := optics.NewTracer(sp).VerifySchedule(res.Slot); err != nil {
						return fmt.Errorf("phase %d: %w", i, err)
					}
				}
				return nil
			}))
			if patched == 0 {
				check(fmt.Errorf("delta recompile never patched: every phase fell back to full scheduling"))
			}
		}
	}

	// Sweep wall clock: 16 open-loop trials, serial vs the full pool. Quick
	// mode shrinks the trial count; the JSON records whichever ran.
	trials := 16
	if *quickFlag {
		trials = 4
	}
	// Always measure a multi-worker rung even on one core (it can at best
	// break even there, which the JSON then records honestly).
	workerCounts := []int{1, 4}
	if n := runtime.GOMAXPROCS(0); n > 4 {
		workerCounts = append(workerCounts, n)
	}
	for _, workers := range workerCounts {
		w := workers
		check(report.RunSweep("sweep/openloop64", w, trials, func() error {
			return sim.Sweep(trials, w, 1996, func(trial int, rng *rand.Rand) error {
				msgs, err := sim.OpenLoop(rng, sim.OpenLoopConfig{Nodes: 64, MessagesPerNode: 2, Flits: 2, MeanGap: 400})
				if err != nil {
					return err
				}
				s, err := sim.NewSimulator(torus, sim.DefaultParams(2))
				if err != nil {
					return err
				}
				var res sim.DynamicResult
				return s.RunInto(msgs, &res)
			})
		}))
	}

	print(report)
	if *outFlag != "-" {
		data, err := json.MarshalIndent(report, "", "  ")
		check(err)
		check(os.WriteFile(*outFlag, append(data, '\n'), 0o644))
		fmt.Printf("\nwrote %s\n", *outFlag)
	}
}

func print(r *perf.Report) {
	fmt.Printf("ccbench: %s, GOMAXPROCS=%d, quick=%v\n\n", r.GoVersion, r.GOMAXPROCS, r.Quick)
	w := tabwriter.NewWriter(os.Stdout, 4, 0, 2, ' ', tabwriter.AlignRight)
	fmt.Fprintln(w, "benchmark\titers\tns/op\tB/op\tallocs/op\t")
	for _, b := range r.Benchmarks {
		fmt.Fprintf(w, "%s\t%d\t%.0f\t%.0f\t%.1f\t\n", b.Name, b.Iterations, b.NsPerOp, b.BytesPerOp, b.AllocsPerOp)
	}
	check(w.Flush())
	if len(r.Sweeps) > 0 {
		fmt.Println()
		fmt.Fprintln(w, "sweep\tworkers\ttrials\twall ms\t")
		for _, s := range r.Sweeps {
			fmt.Fprintf(w, "%s\t%d\t%d\t%.2f\t\n", s.Name, s.Workers, s.Trials, s.WallMs)
		}
		check(w.Flush())
	}
}

func check(err error) {
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccbench:", err)
		os.Exit(1)
	}
}
