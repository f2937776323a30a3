package redist

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/request"
)

// RedistributeBrute computes the same pattern by enumerating every array
// element; it exists to cross-check Redistribute in tests.
func RedistributeBrute(shape [3]int, from, to Dist) (Pattern, error) {
	if from.Procs() != to.Procs() {
		return Pattern{}, fmt.Errorf("redist: grids address %d and %d PEs", from.Procs(), to.Procs())
	}
	pat := Pattern{Volume: make(map[request.Request]int)}
	for x := 0; x < shape[0]; x++ {
		for y := 0; y < shape[1]; y++ {
			for z := 0; z < shape[2]; z++ {
				idx := [3]int{x, y, z}
				src, dst := from.Owner(idx), to.Owner(idx)
				if src == dst {
					continue
				}
				r := request.Request{Src: network.NodeID(src), Dst: network.NodeID(dst)}
				if _, seen := pat.Volume[r]; !seen {
					pat.Reqs = append(pat.Reqs, r)
				}
				pat.Volume[r]++
			}
		}
	}
	return pat, nil
}

// ShiftPatternBrute computes the same pattern by enumerating every array
// element; it exists to cross-check ShiftPattern in tests.
func ShiftPatternBrute(shape [3]int, d Dist, off [3]int) (Pattern, error) {
	pat := Pattern{Volume: make(map[request.Request]int)}
	for x := 0; x < shape[0]; x++ {
		for y := 0; y < shape[1]; y++ {
			for z := 0; z < shape[2]; z++ {
				xs, ys, zs := x+off[0], y+off[1], z+off[2]
				if xs < 0 || xs >= shape[0] || ys < 0 || ys >= shape[1] || zs < 0 || zs >= shape[2] {
					continue
				}
				src := d.Owner([3]int{xs, ys, zs})
				dst := d.Owner([3]int{x, y, z})
				if src == dst {
					continue
				}
				r := request.Request{Src: network.NodeID(src), Dst: network.NodeID(dst)}
				if _, seen := pat.Volume[r]; !seen {
					pat.Reqs = append(pat.Reqs, r)
				}
				pat.Volume[r]++
			}
		}
	}
	return pat, nil
}
