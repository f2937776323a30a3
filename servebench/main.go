// Command servebench is the serving benchmark of the compile daemon. It runs
// the real serving code in one process — service.New (plus cluster.NewNode
// on cluster-forward) behind http.Servers on an in-memory net.Pipe network,
// called through internal/service/client by two closed-loop clients — and
// prints the end-to-end metrics, checking every answer after the timed
// window. With --trace 1 it prints the per-layer metrics instead: counts
// from a timed window's daemon counters, spans from a traced replay of the
// same seeded requests.
//
//	go run . --workload warm-hit --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cluster"
	"repro/internal/service"
	"repro/internal/service/client"
	"repro/internal/stats"
	"repro/internal/store"
)

// defaultSeed and heldOutSeed are the seeds the smoke test runs; the
// held-out one was never used while the benchmark was tuned.
const (
	defaultSeed = 1
	heldOutSeed = 7919
)

// setupReps is how many times a run sets the deployment up; setup_s is
// their median and the last one serves.
const setupReps = 5

type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	// requests, when > 0, makes each client send exactly this many
	// requests per window instead of running for seconds; the smoke test
	// sets it, and setups, to keep its runs short and exactly repeatable.
	requests int
	setups   int
	dir      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var opt options
	var traceFlag int
	fs.StringVar(&opt.workload, "workload", warmHit, "workload: "+strings.Join(workloads, ", "))
	fs.Uint64Var(&opt.seed, "seed", defaultSeed, "workload seed")
	fs.Float64Var(&opt.seconds, "seconds", 20, "length of the measured window in seconds (split between the counted and the traced window with --trace 1)")
	fs.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics")
	fs.StringVar(&opt.dir, "dir", ".bench_build", "directory for schedule stores and span dumps")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	opt.trace, opt.setups = traceFlag == 1, setupReps
	if (traceFlag != 0 && traceFlag != 1) || opt.seconds <= 0 || fs.NArg() > 0 {
		fmt.Fprintln(stderr, "servebench: want --trace 0|1, --seconds > 0 and no positional arguments")
		return 2
	}
	res, err := execute(opt, stdout)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "servebench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// Units of every metric; endToEnd and perLayer fix which a run prints.
var units = map[string]string{
	"throughput_rps": "req/s", "latency_p50_us": "us", "latency_p99_us": "us",
	"first_phase_p50_us": "us", "program_slots": "slots", "setup_s": "s", "live_heap_mb": "MiB",
	"error_ratio": "ratio",

	"client.self_us": "us", "transport.self_us": "us", "service.handler_us": "us",
	"service.unattributed_us": "us", "trace.read_us": "us", "service.key_us": "us",
	"service.encode_us": "us", "client.decode_us": "us", "network.routes_us": "us",
	"schedule.conflict_graph_us": "us", "schedule.coloring_us": "us", "schedule.aapc_us": "us",
	"schedule.combined_us": "us", "schedule.degree_slack": "count", "switchprog.compile_us": "us",
	"sim.run_compiled_us": "us", "core.compile_us": "us", "core.choose_us": "us",
	"delta.recompile_us": "us", "store.get_us": "us", "store.decode_us": "us", "store.put_us": "us",
	"service.new_ms": "ms", "service.queue_wait_p50_us": "us",
	"service.queue_wait_p99_us": "us", "cluster.owners_us": "us", "cluster.peer_roundtrip_us": "us",
	"cluster.owner_handler_us": "us", "cache.hit_ratio": "ratio", "cache.evictions_per_op": "count/op",
	"store.puts_per_op": "count/op", "store.hits_per_op": "count/op", "store.warm_loaded": "count",
	"delta.patch_ratio": "ratio", "session.keep_ratio": "ratio", "session.patch_ratio": "ratio",
	"session.recompile_ratio": "ratio", "session.pipelined_ratio": "ratio",
	"cluster.forward_ratio": "ratio", "cluster.forward_errors": "count",
	"go.allocs_per_op": "count/op", "go.bytes_per_op": "B/op", "go.gc_cycles_per_kop": "count/kop",
	"request.bytes_per_op": "B/op", "artifact.bytes_per_op": "B/op", "tracing.overhead_ratio": "ratio",
}

var endToEnd = []string{"throughput_rps", "latency_p50_us", "latency_p99_us", "first_phase_p50_us",
	"program_slots", "setup_s", "live_heap_mb"}

// perLayer lists the traced run's metrics. error_ratio is here rather than
// end to end because it reads 0 on a correct run.
var perLayer = []string{"client.self_us", "transport.self_us", "service.handler_us",
	"service.unattributed_us", "trace.read_us", "service.key_us", "service.encode_us",
	"client.decode_us", "network.routes_us", "schedule.conflict_graph_us", "schedule.coloring_us",
	"schedule.aapc_us", "schedule.combined_us", "schedule.degree_slack", "switchprog.compile_us",
	"sim.run_compiled_us", "core.compile_us", "core.choose_us", "delta.recompile_us",
	"store.get_us", "store.decode_us", "store.put_us", "service.new_ms", "service.queue_wait_p50_us", "service.queue_wait_p99_us", "cluster.owners_us",
	"cluster.peer_roundtrip_us", "cluster.owner_handler_us", "cache.hit_ratio",
	"cache.evictions_per_op", "store.puts_per_op", "store.hits_per_op", "store.warm_loaded",
	"delta.patch_ratio", "session.keep_ratio", "session.patch_ratio", "session.recompile_ratio",
	"session.pipelined_ratio", "cluster.forward_ratio", "cluster.forward_errors",
	"go.allocs_per_op", "go.bytes_per_op", "go.gc_cycles_per_kop", "request.bytes_per_op",
	"artifact.bytes_per_op", "tracing.overhead_ratio", "error_ratio"}

func execute(opt options, out io.Writer) (*result, error) {
	if err := os.MkdirAll(opt.dir, 0o755); err != nil {
		return nil, err
	}
	b, err := newBench(opt)
	if err != nil {
		return nil, err
	}
	ctx := context.Background()
	fmt.Fprintf(out, "servebench workload=%s seed=%d seconds=%g trace=%t clients=%d setups=%d\n",
		opt.workload, opt.seed, opt.seconds, opt.trace, numClients, opt.setups)
	fmt.Fprintf(out, "host: %s\n", hostLine(opt.dir))
	refBefore := referenceSpeed(250 * time.Millisecond)

	var setups, news []float64
	var d *deployment
	defer func() {
		if d != nil {
			d.close()
		}
	}()
	for rep := 0; rep < opt.setups; rep++ {
		if d != nil {
			d.close()
			d = nil
		}
		if d, err = b.deploy(ctx, rep, nil); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, d.setupDur.Seconds())
		news = append(news, float64(d.newDur.Microseconds())/1e3)
	}

	dur := time.Duration(opt.seconds * float64(time.Second))
	if opt.trace {
		dur /= 2
	}
	before, err := d.counters(ctx)
	if err != nil {
		return nil, err
	}
	sp, err := newSpill(filepath.Join(opt.dir, fmt.Sprintf("replies-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer sp.close()
	tot0, steal0, _ := cpuTimes()
	wins, elapsed := d.runWindow(ctx, b, dur, opt.requests, sp)
	tot1, steal1, _ := cpuTimes()
	after, err := d.counters(ctx)
	if err != nil {
		return nil, err
	}
	if !opt.trace {
		d.finish(ctx, b, wins)
	}
	// What the daemons retain is the heap they leave behind when closed;
	// the benchmark's own inputs and kept replies are live at both reads.
	heapUp := heapAfterGC()
	d.close()
	d = nil
	heapDown := heapAfterGC()
	chk := b.check(wins, sp)

	var lat []time.Duration
	var laterPhases int
	var reqBytes, respBytes int64
	res := &result{Metrics: make(map[string]metric)}
	for _, w := range wins {
		for _, s := range w.samples {
			lat = append(lat, s.lat)
		}
		res.Attempted += w.attempted
		res.Failed += w.failed
		laterPhases += w.laterPhases
		reqBytes, respBytes = reqBytes+w.reqBytes, respBytes+w.respBytes
		for _, e := range w.errs {
			fmt.Fprintln(out, "error:", e)
		}
	}
	res.Failed += chk.failed
	for _, e := range chk.errs {
		fmt.Fprintln(out, "check:", e)
	}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	ops := float64(len(lat))
	st := segmentStats(wins, elapsed)
	all := map[string]float64{
		"throughput_rps":     st.rps,
		"latency_p50_us":     st.p50,
		"latency_p99_us":     st.p99,
		"first_phase_p50_us": st.first,
		"program_slots":      chk.slots,
		"setup_s":            median(setups),
		"live_heap_mb":       (float64(heapUp) - float64(heapDown)) / (1 << 20),
		"error_ratio":        float64(res.Failed) / float64(max(res.Attempted, 1)),
	}
	fmt.Fprintf(out, "window: %d completed in %.3fs; %d attempted in all; setup reps %v s\n", len(lat), elapsed.Seconds(), res.Attempted, setups)
	fmt.Fprintf(out, "heap MiB: %.3f with the daemons up, %.3f after closing them\n", float64(heapUp)/(1<<20), float64(heapDown)/(1<<20))
	fmt.Fprintf(out, "whole window: %.1f req/s; latency us: p10 %.0f p25 %.0f p50 %.0f p75 %.0f p90 %.0f p99 %.0f mean %.0f\n",
		ops/elapsed.Seconds(), quantile(lat, 0.1), quantile(lat, 0.25), quantile(lat, 0.5),
		quantile(lat, 0.75), quantile(lat, 0.9), quantile(lat, 0.99), meanDur(lat))
	for k, seg := range st.parts {
		fmt.Fprintf(out, "segment %d: %d requests, %.1f req/s, p50 %.0f us, p99 %.0f us, first phase p50 %.0f us\n",
			k, seg.n, seg.rps, seg.p50, seg.p99, seg.first)
		if seg.n < 1000 {
			fmt.Fprintf(out, "warning: segment %d's p99 rests on %d samples; it needs 1000 for ten beyond it\n", k, seg.n)
		}
	}

	names := endToEnd
	if opt.trace {
		names = perLayer
		counts(all, before, after, ops, laterPhases, reqBytes, respBytes)
		all["service.new_ms"] = median(news)
		if err := b.traced(ctx, opt, dur, st.p50, all); err != nil {
			return nil, err
		}
	} else {
		names = append(names, "error_ratio")
	}
	refAfter := referenceSpeed(250 * time.Millisecond)
	fmt.Fprintf(out, "host: steal=%.4f reference_before=%.0f/s reference_after=%.0f/s\n",
		stealShare(tot0, steal0, tot1, steal1), refBefore, refAfter)
	for _, n := range names {
		v := all[n]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		fmt.Fprintf(out, "%-28s %14.4f %s\n", n, v, units[n])
		if n != "error_ratio" || opt.trace {
			res.Metrics[n] = metric{Value: v, Unit: units[n]}
		}
	}
	return res, nil
}

// counts fills the per-layer counts: exact deltas of the entry daemon's
// /metrics and /cluster and of runtime.MemStats over the counted window.
func counts(m map[string]float64, before, after *counters, ops float64, laterPhases int, reqBytes, respBytes int64) {
	a, b := after.svc, before.svc
	per := func(x, y uint64) float64 { return float64(x-y) / math.Max(ops, 1) }
	ratio := func(x, y uint64) float64 {
		if y == 0 {
			return 0
		}
		return float64(x) / float64(y)
	}
	wait := histDelta(a.Queue.WaitUs, b.Queue.WaitUs)
	m["service.queue_wait_p50_us"] = float64(wait.Quantile(0.50))
	m["service.queue_wait_p99_us"] = float64(wait.Quantile(0.99))
	hits, misses := a.Cache.Hits-b.Cache.Hits, a.Cache.Misses-b.Cache.Misses
	m["cache.hit_ratio"] = ratio(hits, hits+misses)
	m["cache.evictions_per_op"] = per(a.Cache.Evictions, b.Cache.Evictions)
	m["store.puts_per_op"] = per(a.Store.Puts, b.Store.Puts)
	m["store.hits_per_op"] = per(a.Store.Hits, b.Store.Hits)
	m["store.warm_loaded"] = float64(a.Store.WarmLoaded)
	patched, full := a.Delta.Patched-b.Delta.Patched, a.Delta.Full-b.Delta.Full
	m["delta.patch_ratio"] = ratio(patched, patched+full)
	phases := a.Session.PhasesServed - b.Session.PhasesServed
	m["session.keep_ratio"] = ratio(a.Session.Keep-b.Session.Keep, phases)
	m["session.patch_ratio"] = ratio(a.Session.Patch-b.Session.Patch, phases)
	m["session.recompile_ratio"] = ratio(a.Session.Recompile-b.Session.Recompile, phases)
	m["session.pipelined_ratio"] = ratio(a.Session.PipelinedCompiles-b.Session.PipelinedCompiles, uint64(laterPhases))
	if after.cluster != nil {
		fa, fb := after.cluster.Metrics.Forward, before.cluster.Metrics.Forward
		m["cluster.forward_ratio"] = per(fa.Hits, fb.Hits)
		m["cluster.forward_errors"] = float64(fa.Errors - fb.Errors)
	}
	m["go.allocs_per_op"] = per(after.mem.Mallocs, before.mem.Mallocs)
	m["go.bytes_per_op"] = per(after.mem.TotalAlloc, before.mem.TotalAlloc)
	m["go.gc_cycles_per_kop"] = 1000 * per(uint64(after.mem.NumGC), uint64(before.mem.NumGC))
	m["request.bytes_per_op"] = float64(reqBytes) / math.Max(ops, 1)
	m["artifact.bytes_per_op"] = float64(respBytes) / math.Max(ops, 1)
}

// traced sets up a fresh deployment with the span wrappers, replays the same
// seeded requests through it, replays each request's layer calls, and fills
// the span metrics.
func (b *bench) traced(ctx context.Context, opt options, dur time.Duration, untracedP50 float64, m map[string]float64) error {
	t := newTracer()
	d, err := b.deploy(ctx, opt.setups, t)
	if err != nil {
		return fmt.Errorf("traced setup: %w", err)
	}
	defer d.close()
	start, err := d.counters(ctx)
	if err != nil {
		return err
	}
	rp := &replayer{t: t, topo: d.topo, name: b.topo, alg: b.alg, deltaBound: start.svc.Delta.Bound}
	if b.opt.workload == clusterForward {
		rp.ring = cluster.NewRing(nodeURLs(), cluster.DefaultVNodes)
	}
	if d.storeDir != "" {
		putDir := d.storeDir + "-replay"
		defer os.RemoveAll(putDir)
		if rp.bases, err = store.Open(d.storeDir, store.Options{}); err != nil {
			return err
		}
		if rp.puts, err = store.Open(putDir, store.Options{}); err != nil {
			return err
		}
		steps, err := b.warmupSteps()
		if err != nil {
			return err
		}
		if err := rp.mirrorIndex(steps); err != nil {
			return err
		}
	}
	for _, c := range d.clients {
		c.replay = rp
	}
	sp, err := newSpill(filepath.Join(opt.dir, fmt.Sprintf("traced-replies-%d", os.Getpid())))
	if err != nil {
		return err
	}
	defer sp.close()
	wins, elapsed := d.runWindow(ctx, b, dur, opt.requests, sp)
	for _, w := range wins {
		if w.failed > 0 {
			return fmt.Errorf("traced window: %d failed: %v", w.failed, w.errs)
		}
	}
	for name, v := range layerStats(t.spans) {
		m[name] = v
	}
	m["schedule.degree_slack"] = mean(rp.slackAll())
	if untracedP50 > 0 {
		m["tracing.overhead_ratio"] = segmentStats(wins, elapsed).p50/untracedP50 - 1
	}
	return writeSpans(filepath.Join(opt.dir, fmt.Sprintf("spans-%s-seed%d.ndjson", opt.workload, opt.seed)), t.spans)
}

// segments is the number of equal-time parts of the timed window. Each
// time-based end-to-end metric is the median of its values over the parts,
// so host CPU steal confined to one part does not move it; three is the
// fewest parts whose median sets one aside.
const segments = 3

// segment is one part's throughput, latency quantiles (us) and count.
type segment struct {
	n                    int
	rps, p50, p99, first float64
}

// windowStats holds the medians over the segments and the segments.
type windowStats struct {
	segment
	parts []segment
}

// segmentStats splits the timed requests by completion time into the
// window's segments and takes the median of each metric over them.
func segmentStats(wins []*window, elapsed time.Duration) windowStats {
	lat := make([][]time.Duration, segments)
	first := make([][]time.Duration, segments)
	for _, w := range wins {
		for _, s := range w.samples {
			k := min(int(int64(s.end)*segments/int64(elapsed)), segments-1)
			lat[k], first[k] = append(lat[k], s.lat), append(first[k], s.first)
		}
	}
	var st windowStats
	var rps, p50, p99, fp []float64
	for k := range lat {
		seg := segment{n: len(lat[k]), rps: float64(len(lat[k])) / (elapsed.Seconds() / segments),
			p50: quantile(lat[k], 0.50), p99: quantile(lat[k], 0.99), first: quantile(first[k], 0.50)}
		st.parts = append(st.parts, seg)
		rps, p50, p99, fp = append(rps, seg.rps), append(p50, seg.p50), append(p99, seg.p99), append(fp, seg.first)
	}
	st.rps, st.p50, st.p99, st.first = median(rps), median(p50), median(p99), median(fp)
	return st
}

// heapAfterGC is the heap in use once garbage, sync.Pool contents
// included, is collected.
func heapAfterGC() uint64 {
	runtime.GC()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	return mem.HeapAlloc
}

// histDelta is the distribution of the samples observed between two
// snapshots of one histogram.
func histDelta(after, before stats.HistSnapshot) stats.HistSnapshot {
	prev := make(map[int64]uint64, len(before.Buckets))
	for _, bk := range before.Buckets {
		prev[bk.Le] = bk.Count
	}
	out := stats.HistSnapshot{Count: after.Count - before.Count, Sum: after.Sum - before.Sum, Max: after.Max}
	for _, bk := range after.Buckets {
		if c := bk.Count - prev[bk.Le]; c > 0 {
			out.Buckets = append(out.Buckets, stats.HistBucket{Le: bk.Le, Count: c})
		}
	}
	return out
}

// quantile is the nearest-rank quantile of durations, in microseconds.
func quantile(ds []time.Duration, p float64) float64 {
	if len(ds) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	k := int(math.Ceil(p*float64(len(s)))) - 1
	k = min(max(k, 0), len(s)-1)
	return float64(s[k].Nanoseconds()) / 1e3
}

func meanDur(ds []time.Duration) float64 {
	var sum time.Duration
	for _, d := range ds {
		sum += d
	}
	return float64(sum.Microseconds()) / math.Max(float64(len(ds)), 1)
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// checkResult is the outcome of the after-window answer checks.
type checkResult struct {
	failed int
	errs   []string
	slots  float64 // mean total_slots over the fixed program set
}

// check verifies every distinct reply of the window (client.Verify or
// client.VerifySession), compares each group's replies across clients, and
// averages the plans' predicted slots over the fixed program set.
func (b *bench) check(wins []*window, sp *spill) checkResult {
	var out checkResult
	fail := func(n int, err error) {
		out.failed += n
		if len(out.errs) < 5 {
			out.errs = append(out.errs, err.Error())
		}
	}
	groups := make(map[int]*reply)
	sizes := make(map[int]int)
	for _, w := range wins {
		for g, r := range w.groups {
			sizes[g] += w.counts[g]
			if prev, ok := groups[g]; ok {
				if !sameReply(prev, r) {
					fail(w.counts[g], fmt.Errorf("%s: clients got different replies", r.job.doc.Name))
				}
				continue
			}
			groups[g] = r
		}
	}
	slots, distinct := 0.0, 0
	for g, r := range groups {
		slots += float64(r.slots)
		distinct++
		if err := verify(r); err != nil {
			fail(sizes[g], err)
		}
	}
	err := sp.each(func(ref spillRef, raw []byte) {
		j, err := b.job(ref.client, ref.index)
		if err == nil {
			err = verify(&reply{job: j, raw: raw, slots: ref.slots})
		}
		if err != nil {
			fail(1, err)
			return
		}
		if j.inSet {
			slots += float64(ref.slots)
			distinct++
		}
	})
	if err != nil {
		fail(len(sp.refs), err)
	}
	if distinct > 0 {
		out.slots = slots / float64(distinct)
	}
	return out
}

// verify proves one reply correct against its trace.
func verify(r *reply) error {
	if !r.job.session {
		var res service.Result
		if err := json.Unmarshal(r.raw, &res); err != nil {
			return fmt.Errorf("%s: decoding artifact: %w", r.job.doc.Name, err)
		}
		return client.Verify(r.job.doc, &res)
	}
	sres, err := parseSession(r.raw)
	if err != nil {
		return fmt.Errorf("%s: %w", r.job.doc.Name, err)
	}
	return client.VerifySession(r.job.doc, sres)
}

// parseSession decodes a captured /session stream.
func parseSession(raw []byte) (*client.SessionResult, error) {
	out := &client.SessionResult{}
	dec := json.NewDecoder(strings.NewReader(string(raw)))
	for {
		var c service.SessionChunk
		if err := dec.Decode(&c); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decoding session stream: %w", err)
		}
		switch c.Type {
		case service.SessionChunkHeader:
			out.Header = c
		case service.SessionChunkPhase:
			out.Phases = append(out.Phases, c)
		case service.SessionChunkDone:
			out.Trailer = c
		default:
			return nil, fmt.Errorf("session chunk %q", c.Type)
		}
	}
	return out, nil
}
