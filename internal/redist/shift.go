package redist

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/request"
)

// ShiftPattern computes the communication generated by a shifted
// shared-array reference: a data-parallel statement in which the PE owning
// element idx reads element idx+off (e.g. A[i] = f(A[i+1]) in a stencil).
// The owner of idx+off must send that element to the owner of idx, for
// every idx where both indices are inside the (non-periodic) array bounds.
//
// This is the "shared array reference" pattern class of the paper's Table 4
// (GS, P3M 5): with a 1-D block distribution and off = ±1 it yields exactly
// the neighboring-PE boundary exchange.
func ShiftPattern(shape [3]int, d Dist, off [3]int) (Pattern, error) {
	for i, n := range shape {
		if n < 1 {
			return Pattern{}, fmt.Errorf("redist: dimension %d has extent %d", i, n)
		}
		if off[i] <= -n || off[i] >= n {
			return Pattern{}, fmt.Errorf("redist: shift %d exceeds extent %d in dimension %d", off[i], n, i)
		}
	}
	// counts[i][{cs,cd}] = #indices x with x and x+off[i] in range, where
	// the sender coordinate cs owns x+off[i] and the receiver cd owns x.
	var counts [3]map[[2]int]int
	for i := 0; i < 3; i++ {
		counts[i] = make(map[[2]int]int)
		dd := d.Dims[i]
		for x := 0; x < shape[i]; x++ {
			xs := x + off[i]
			if xs < 0 || xs >= shape[i] {
				continue
			}
			cs := (xs / dd.B) % dd.P
			cd := (x / dd.B) % dd.P
			counts[i][[2]int{cs, cd}]++
		}
	}
	pat := Pattern{Volume: make(map[request.Request]int)}
	for k0, n0 := range counts[0] {
		for k1, n1 := range counts[1] {
			for k2, n2 := range counts[2] {
				src := (k0[0]*d.Dims[1].P+k1[0])*d.Dims[2].P + k2[0]
				dst := (k0[1]*d.Dims[1].P+k1[1])*d.Dims[2].P + k2[1]
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
