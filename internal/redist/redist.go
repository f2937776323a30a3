// Package redist implements block-cyclic data distributions of a 3-D array
// and computes the interprocessor communication generated when an array is
// redistributed between two distributions — the Table 2 workload and the
// P3M patterns of the paper.
//
// A dimension distributed as p:block(s) assigns index x to processor
// coordinate (x/s) mod p. A dimension written ":" is not distributed
// (p = 1). Processor coordinates are linearized row-major into PE ranks, so
// a (4,4,4) grid and a (1,1,64) grid both address the same 64 PEs.
package redist

import (
	"fmt"
	"math/rand"

	"repro/internal/network"
	"repro/internal/request"
)

// DimDist is the distribution of one array dimension: P processors with
// block size B. P == 1 means the dimension is not distributed.
type DimDist struct {
	P int
	B int
}

// Dist is a block-cyclic distribution of a 3-D array over a 3-D processor
// grid. The grid dimensions multiply to the total PE count.
type Dist struct {
	Dims [3]DimDist
}

// NewDist builds a distribution and validates it against the array shape:
// every processor count and block size must be positive.
func NewDist(dims [3]DimDist) (Dist, error) {
	for i, d := range dims {
		if d.P < 1 {
			return Dist{}, fmt.Errorf("redist: dimension %d has %d processors", i, d.P)
		}
		if d.B < 1 {
			return Dist{}, fmt.Errorf("redist: dimension %d has block size %d", i, d.B)
		}
	}
	return Dist{Dims: dims}, nil
}

// Procs returns the total number of processors in the grid.
func (d Dist) Procs() int { return d.Dims[0].P * d.Dims[1].P * d.Dims[2].P }

// Owner returns the PE rank owning array element idx.
func (d Dist) Owner(idx [3]int) int {
	c0 := (idx[0] / d.Dims[0].B) % d.Dims[0].P
	c1 := (idx[1] / d.Dims[1].B) % d.Dims[1].P
	c2 := (idx[2] / d.Dims[2].B) % d.Dims[2].P
	return (c0*d.Dims[1].P+c1)*d.Dims[2].P + c2
}

// String renders the distribution in the paper's (p:block(s), ...) notation.
func (d Dist) String() string {
	part := func(dd DimDist) string {
		if dd.P == 1 {
			return ":"
		}
		return fmt.Sprintf("%d:block(%d)", dd.P, dd.B)
	}
	return fmt.Sprintf("(%s, %s, %s)", part(d.Dims[0]), part(d.Dims[1]), part(d.Dims[2]))
}

// Pattern is a redistribution communication pattern: the connection
// requests plus the number of array elements each connection carries.
type Pattern struct {
	Reqs   request.Set
	Volume map[request.Request]int
}

// TotalElements returns the number of elements that change owner.
func (p Pattern) TotalElements() int {
	sum := 0
	for _, v := range p.Volume {
		sum += v
	}
	return sum
}

// Redistribute computes the communication pattern that moves an array of
// the given shape from distribution `from` to distribution `to`. The two
// grids must address the same number of PEs. Per-dimension transfer-count
// matrices are combined by the product rule (ownership factorizes across
// dimensions), so the cost is O(shape[0]+shape[1]+shape[2]) scans plus one
// pass over the nonzero (source, destination) coordinate combinations.
func Redistribute(shape [3]int, from, to Dist) (Pattern, error) {
	if from.Procs() != to.Procs() {
		return Pattern{}, fmt.Errorf("redist: grids address %d and %d PEs", from.Procs(), to.Procs())
	}
	for i, n := range shape {
		if n < 1 {
			return Pattern{}, fmt.Errorf("redist: dimension %d has extent %d", i, n)
		}
	}
	// counts[i][cs*to.P+cd] = number of indices x in dimension i owned by
	// source coordinate cs under `from` and destination coordinate cd under
	// `to`. Dense per-dimension matrices (the coordinate spaces are tiny)
	// iterate in index order, so Reqs comes out in one canonical order on
	// every run — map iteration here used to scramble it, which leaked
	// run-to-run jitter into every downstream scheduler and simulator.
	var counts [3][]int
	for i := 0; i < 3; i++ {
		fd, td := from.Dims[i], to.Dims[i]
		counts[i] = make([]int, fd.P*td.P)
		for x := 0; x < shape[i]; x++ {
			cs := (x / fd.B) % fd.P
			cd := (x / td.B) % td.P
			counts[i][cs*td.P+cd]++
		}
	}
	pat := Pattern{Volume: make(map[request.Request]int)}
	for k0, n0 := range counts[0] {
		if n0 == 0 {
			continue
		}
		for k1, n1 := range counts[1] {
			if n1 == 0 {
				continue
			}
			for k2, n2 := range counts[2] {
				if n2 == 0 {
					continue
				}
				s0, d0 := k0/to.Dims[0].P, k0%to.Dims[0].P
				s1, d1 := k1/to.Dims[1].P, k1%to.Dims[1].P
				s2, d2 := k2/to.Dims[2].P, k2%to.Dims[2].P
				src := (s0*from.Dims[1].P+s1)*from.Dims[2].P + s2
				dst := (d0*to.Dims[1].P+d1)*to.Dims[2].P + d2
				if src == dst {
					continue
				}
				r := request.Request{Src: network.NodeID(src), Dst: network.NodeID(dst)}
				if _, seen := pat.Volume[r]; !seen {
					pat.Reqs = append(pat.Reqs, r)
				}
				pat.Volume[r] += n0 * n1 * n2
			}
		}
	}
	return pat, nil
}

// RandomDist draws a random block-cyclic distribution of an array with the
// given shape over `procs` PEs, following the paper's Table 2 recipe: the
// processor count of each dimension is a random power-of-two factorization
// of `procs`, and each block size is a random power of two small enough
// that every processor of the dimension owns a part of the array
// (B * P <= extent).
func RandomDist(rng *rand.Rand, shape [3]int, procs int) (Dist, error) {
	if procs <= 0 || procs&(procs-1) != 0 {
		return Dist{}, fmt.Errorf("redist: processor count %d not a power of two", procs)
	}
	logP := 0
	for 1<<logP < procs {
		logP++
	}
	// Random composition of logP into three parts, rejecting assignments
	// where some dimension cannot host its processors (P > extent).
	for {
		a := rng.Intn(logP + 1)
		b := rng.Intn(logP + 1 - a)
		parts := [3]int{a, b, logP - a - b}
		ok := true
		var dims [3]DimDist
		for i := 0; i < 3; i++ {
			p := 1 << parts[i]
			if p > shape[i] {
				ok = false
				break
			}
			maxB := shape[i] / p // largest block size that keeps every PE non-empty
			// Draw a power-of-two block size in [1, maxB].
			choices := 0
			for 1<<choices <= maxB {
				choices++
			}
			dims[i] = DimDist{P: p, B: 1 << rng.Intn(choices)}
		}
		if !ok {
			continue
		}
		return NewDist(dims)
	}
}

// RandomRedistribution draws a random source/destination distribution pair
// and returns the resulting pattern, redrawing when the redistribution
// produces no communication at all (identical distributions).
func RandomRedistribution(rng *rand.Rand, shape [3]int, procs int) (Pattern, Dist, Dist, error) {
	for {
		from, err := RandomDist(rng, shape, procs)
		if err != nil {
			return Pattern{}, Dist{}, Dist{}, err
		}
		to, err := RandomDist(rng, shape, procs)
		if err != nil {
			return Pattern{}, Dist{}, Dist{}, err
		}
		pat, err := Redistribute(shape, from, to)
		if err != nil {
			return Pattern{}, Dist{}, Dist{}, err
		}
		if len(pat.Reqs) == 0 {
			continue
		}
		return pat, from, to, nil
	}
}
