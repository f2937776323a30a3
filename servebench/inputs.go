package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"repro/internal/apps"
	"repro/internal/collective"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/redist"
	"repro/internal/request"
	"repro/internal/sim"
	"repro/internal/trace"
)

// Every input is a pure function of (seed, stream name, index): streams with
// different names never share draws, so warm-up and store-history inputs
// are disjoint from the timed requests.

const pes = 64 // the 8×8 torus

// rngFor returns the random stream named stream under seed.
func rngFor(seed uint64, stream string, index int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d", stream, index)
	return rand.New(rand.NewSource(int64(splitmix(seed ^ h.Sum64()))))
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// flits converts an element count to flits, as the paper's models do.
func flits(elements int) int {
	f := (elements + apps.FlitElements - 1) / apps.FlitElements
	if f < 1 {
		f = 1
	}
	return f
}

// Message counts of the Table 2 generator on 64 PEs range from a single
// permutation to all-to-all.
const (
	minMessages = pes
	maxMessages = pes * (pes - 1)
)

// redistDocs draws count single-phase programs from the paper's Table 2
// generator (a random block-cyclic redistribution of a 64×64×64 array over
// 64 PEs). The generator's message counts cluster at a few values, and the
// median of its own distribution falls between two clusters, so a plain
// sample would put the median request in one cluster or the other by seed.
// Instead it draws eight candidates per program and, for targets spaced
// log-uniformly over the whole range, keeps the unused candidate nearest
// each target: every seed gets the same size mix. keep, when non-nil,
// filters candidates first.
func redistDocs(seed uint64, stream string, count int, keep func(trace.Document) bool) ([]trace.Document, error) {
	rng := rngFor(seed, stream, 0)
	var cands []trace.Document
	for i := 0; i < 8*count; i++ {
		pat, _, _, err := redist.RandomRedistribution(rng, [3]int{64, 64, 64}, pes)
		if err != nil {
			return nil, err
		}
		msgs := make([]trace.Message, len(pat.Reqs))
		for j, r := range pat.Reqs {
			msgs[j] = trace.Message{Src: int(r.Src), Dst: int(r.Dst), Flits: flits(pat.Volume[r])}
		}
		doc := trace.Document{
			Name:   fmt.Sprintf("%s-%d", stream, i),
			PEs:    pes,
			Phases: []trace.Phase{{Name: "redistribute", Messages: msgs}},
		}
		if keep == nil || keep(doc) {
			cands = append(cands, doc)
		}
	}
	if len(cands) < count {
		return nil, fmt.Errorf("inputs: %s: only %d of %d candidates usable", stream, len(cands), count)
	}
	size := func(d trace.Document) float64 { return math.Log(float64(len(d.Phases[0].Messages))) }
	used := make([]bool, len(cands))
	out := make([]trace.Document, count)
	for j := range out {
		target := math.Log(minMessages) + (float64(j)+0.5)/float64(count)*math.Log(maxMessages/minMessages)
		best := -1
		for i, c := range cands {
			if !used[i] && (best < 0 || math.Abs(size(c)-target) < math.Abs(size(cands[best])-target)) {
				best = i
			}
		}
		used[best] = true
		out[j] = cands[best]
	}
	return out, nil
}

// repeatCopies is how many differently sized programs of each repeat kind
// a seed draws; P3M-32 has one size.
const repeatCopies = 4

// repeatDocs returns the iterative programs /session serves from exact
// stored bases: the paper's FFT and P3M-32 phase sequences, ring and tree
// all-reduce, and pipeline point-to-point. Their circuit patterns are fixed;
// the seed draws their message sizes (and the pipeline's microbatch count).
func repeatDocs(seed uint64, stream string) ([]trace.Document, error) {
	rng := rngFor(seed, stream, 0)
	// between draws log-uniformly from the middle fifth of the k-th of
	// repeatCopies equal slices of [lo, hi], so the copies of each kind
	// always span the whole range. The largest copies dominate the mean of
	// the plans' predicted slots; drawn across whole slices they moved it
	// by 20% between seeds.
	between := func(lo, hi, k int) int {
		f := (float64(k) + 0.4 + 0.2*rng.Float64()) / repeatCopies
		return int(float64(lo) * math.Pow(float64(hi)/float64(lo), f))
	}
	var docs []trace.Document
	addPhases := func(name string, phases []apps.Phase, err error) error {
		if err != nil {
			return err
		}
		prog := core.Program{Name: name}
		for _, ph := range phases {
			prog.Phases = append(prog.Phases, core.Phase{Name: ph.Name, Messages: ph.Messages})
		}
		docs = append(docs, trace.FromProgram(prog, pes))
		return nil
	}
	addColl := func(name string, c collective.Collective, err error) error {
		if err != nil {
			return err
		}
		prog := c.Program(apps.FlitElements)
		prog.Name = name
		docs = append(docs, trace.FromProgram(prog, pes))
		return nil
	}
	p3m, err := apps.P3M(32)
	if err := addPhases(stream+"-p3m32", p3m, err); err != nil {
		return nil, err
	}
	for k := 0; k < repeatCopies; k++ {
		fft, err := apps.FFT(between(1<<12, 1<<18, k), pes)
		if err := addPhases(fmt.Sprintf("%s-fft-%d", stream, k), fft, err); err != nil {
			return nil, err
		}
		c, err := collective.RingAllReduce(pes, between(1<<12, 1<<18, k))
		if err := addColl(fmt.Sprintf("%s-ring-%d", stream, k), c, err); err != nil {
			return nil, err
		}
		c, err = collective.TreeAllReduce(pes, between(1<<8, 1<<14, k))
		if err := addColl(fmt.Sprintf("%s-tree-%d", stream, k), c, err); err != nil {
			return nil, err
		}
		c, err = collective.PipelineP2P(16, between(4, 24, k), between(1<<10, 1<<16, k))
		if err := addColl(fmt.Sprintf("%s-pipe-%d", stream, k), c, err); err != nil {
			return nil, err
		}
	}
	return docs, nil
}

// moeParents is the number of parent gates MoE steps drift from: one per
// layer of a model, served round-robin.
const moeParents = 8

// moeStep is step index of an MoE top-2 all-to-all stream: a dispatch and
// its mirrored combine. The step keeps its parent gate's expert choices for
// most ranks and draws a fresh gate seed for 2–8 of them, so each step is
// new to the daemon yet near a stored base.
func moeStep(seed uint64, stream string, index int) (trace.Document, error) {
	rng := rngFor(seed, stream, index)
	elements := 512 + rng.Intn(8192-512+1)
	parentSeed := splitmix(seed ^ uint64(0x6d6f65+index%moeParents))
	parent, err := collective.MoEAllToAll(pes, 2, elements, parentSeed)
	if err != nil {
		return trace.Document{}, err
	}
	gate, err := collective.MoEAllToAll(pes, 2, elements, rng.Uint64())
	if err != nil {
		return trace.Document{}, err
	}
	drifted := make(map[network.NodeID]bool)
	for _, r := range rng.Perm(pes)[:2+rng.Intn(7)] {
		drifted[network.NodeID(r)] = true
	}
	var dispatch request.Set
	for _, q := range parent.Rounds[0] {
		if !drifted[q.Src] {
			dispatch = append(dispatch, q)
		}
	}
	for _, q := range gate.Rounds[0] {
		if drifted[q.Src] {
			dispatch = append(dispatch, q)
		}
	}
	dispatch = dispatch.Sorted()
	combine := make(request.Set, len(dispatch))
	for i, q := range dispatch {
		combine[i] = request.Request{Src: q.Dst, Dst: q.Src}
	}
	combine = combine.Sorted()
	prog := core.Program{Name: fmt.Sprintf("%s-%d", stream, index)}
	for _, ph := range []struct {
		name string
		set  request.Set
	}{{"moe dispatch", dispatch}, {"moe combine", combine}} {
		msgs := make([]sim.Message, len(ph.set))
		for i, q := range ph.set {
			msgs[i] = sim.Message{Src: int(q.Src), Dst: int(q.Dst), Flits: flits(elements)}
		}
		prog.Phases = append(prog.Phases, core.Phase{Name: ph.name, Messages: msgs})
	}
	return trace.FromProgram(prog, pes), nil
}

// renamed returns doc under another program name; phases are shared.
func renamed(doc trace.Document, name string) trace.Document {
	doc.Name = name
	return doc
}

// permutation returns a seeded order of 0..n-1.
func permutation(seed uint64, stream string, n int) []int {
	return rngFor(seed, stream, 0).Perm(n)
}
