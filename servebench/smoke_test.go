package main

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// TestSmoke runs every workload briefly, twice per seed on the default and
// the held-out seed, and checks that each run prints every metric with its
// unit, fails nothing, takes its intended path, and repeats its plan and
// its daemon counts exactly.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload four times per seed")
	}
	// Counts that must repeat exactly; timings, queue waits, allocation
	// counts and the pipelining ratio depend on scheduling and may not.
	exact := []string{"cache.hit_ratio", "cache.evictions_per_op", "store.puts_per_op",
		"store.hits_per_op", "store.warm_loaded", "delta.patch_ratio", "session.keep_ratio",
		"session.patch_ratio", "session.recompile_ratio", "cluster.forward_ratio",
		"cluster.forward_errors", "request.bytes_per_op", "schedule.degree_slack"}
	dir := t.TempDir()
	for _, w := range workloads {
		for _, seed := range []uint64{defaultSeed, heldOutSeed} {
			t.Run(fmt.Sprintf("%s/seed%d", w, seed), func(t *testing.T) {
				var e2e, layer [2]*result
				for i := range e2e {
					e2e[i] = smokeRun(t, dir, w, seed, 0)
					layer[i] = smokeRun(t, dir, w, seed, 1)
				}
				if a, b := e2e[0].Metrics["program_slots"].Value, e2e[1].Metrics["program_slots"].Value; a != b {
					t.Errorf("program_slots %v then %v", a, b)
				}
				for _, name := range exact {
					if a, b := layer[0].Metrics[name].Value, layer[1].Metrics[name].Value; a != b {
						t.Errorf("%s %v then %v", name, a, b)
					}
				}
				m := layer[0].Metrics
				value := func(name string) float64 { return m[name].Value }
				switch w {
				case warmHit:
					if value("cache.hit_ratio") != 1 {
						t.Errorf("warm-hit cache.hit_ratio = %v, want 1", value("cache.hit_ratio"))
					}
				case coldCompile:
					if value("cache.hit_ratio") != 0 {
						t.Errorf("cold-compile cache.hit_ratio = %v, want 0", value("cache.hit_ratio"))
					}
				case clusterForward:
					if value("cluster.forward_ratio") != 1 {
						t.Errorf("cluster-forward cluster.forward_ratio = %v, want 1", value("cluster.forward_ratio"))
					}
				case sessionStore:
					for _, name := range []string{"store.puts_per_op", "store.hits_per_op", "session.keep_ratio"} {
						if value(name) <= 0 {
							t.Errorf("session-store %s = %v, want > 0", name, value(name))
						}
					}
				}
			})
		}
	}
}

// smokeRequests is how many timed requests each client sends per window.
const smokeRequests = 24

// smokeRun runs one short fixed-count run and checks its output.
func smokeRun(t *testing.T, dir, workload string, seed uint64, trace int) *result {
	t.Helper()
	var out bytes.Buffer
	opt := options{workload: workload, seed: seed, seconds: 1, trace: trace == 1, requests: smokeRequests, setups: 1, dir: dir}
	res, err := execute(opt, &out)
	if err != nil {
		t.Fatalf("%s trace=%d: %v\n%s", workload, trace, err, out.String())
	}
	// Untraced runs also send the untimed requests that complete the
	// fixed program set.
	want := numClients * smokeRequests
	if trace == 0 {
		b, err := newBench(opt)
		if err != nil {
			t.Fatal(err)
		}
		want = len(b.passJobs())
		for c := 0; c < numClients; c++ {
			want += max(smokeRequests, b.setLen(c))
		}
	}
	if !res.Correct || res.Failed != 0 || res.Attempted != want {
		t.Fatalf("%s trace=%d: correct=%v attempted=%d (want %d) failed=%d\n%s", workload, trace, res.Correct, res.Attempted, want, res.Failed, out.String())
	}
	names := endToEnd
	if trace == 1 {
		names = perLayer
	}
	if len(res.Metrics) != len(names) {
		t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(names))
	}
	for _, name := range names {
		got, ok := res.Metrics[name]
		if !ok || got.Unit != units[name] {
			t.Errorf("metric %s: got %+v, want unit %q", name, got, units[name])
		}
	}
	// error_ratio is printed, with its unit, on every run.
	printed := false
	for _, l := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "error_ratio" && f[2] == units["error_ratio"] {
			printed = f[1] == "0.0000"
		}
	}
	if !printed {
		t.Errorf("error_ratio not printed as 0")
	}
	return res
}
