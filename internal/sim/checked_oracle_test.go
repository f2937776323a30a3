package sim

import (
	"fmt"

	"repro/internal/network"
	"repro/internal/request"
	"repro/internal/schedule"
)

// circuitQueue carries the messages of one compiled circuit in start order;
// a circuit moves one flit per opportunity, so same-circuit messages
// serialize.
type circuitQueue struct {
	slot int
	msgs []int // indices into the message slice, ordered by Start
}

// RunCompiledChecked simulates a compiled TDM phase like RunCompiled while
// physically checking the data plane: in every slot it walks the path of
// every transmitting circuit and asserts that no directed link carries two
// flits at once and that no PE injects or ejects twice. RunCompiled trusts
// the schedule (it was validated at compile time); this variant re-verifies
// it at "runtime", which is how the test suite catches a scheduler bug that
// slips through static validation. It is O(path length) slower per flit,
// and lives in a test file: no binary runs it.
func RunCompiledChecked(res *schedule.Result, msgs []Message) (*CompiledResult, error) {
	k := res.Degree()
	if k == 0 {
		return nil, fmt.Errorf("sim: empty schedule")
	}
	t := res.Topology
	paths := make(map[request.Request]network.Path)
	byCircuit := make(map[request.Request]*circuitQueue)
	total := 0
	for i, m := range msgs {
		if err := m.validate(); err != nil {
			return nil, err
		}
		r := request.Request{Src: nodeID(m.Src), Dst: nodeID(m.Dst)}
		q, ok := byCircuit[r]
		if !ok {
			u, scheduled := res.Slot[r]
			if !scheduled {
				return nil, fmt.Errorf("sim: message %d->%d has no circuit in the compiled schedule", m.Src, m.Dst)
			}
			p, err := t.Route(r.Src, r.Dst)
			if err != nil {
				return nil, err
			}
			paths[r] = p
			q = &circuitQueue{slot: u}
			byCircuit[r] = q
		}
		q.msgs = append(q.msgs, i)
		total += m.Flits
	}
	type entry struct {
		r request.Request
		q *circuitQueue
	}
	queues := make([]entry, 0, len(byCircuit))
	for r, q := range byCircuit {
		queues = append(queues, entry{r, q})
	}

	remaining := make([]int, len(msgs))
	for i, m := range msgs {
		remaining[i] = m.Flits
	}
	finish := make([]int, len(msgs))
	last := 0
	linkBusy := make([]int, t.NumLinks()) // slot stamp of last use
	injBusy := make(map[network.NodeID]int)
	ejBusy := make(map[network.NodeID]int)
	for i := range linkBusy {
		linkBusy[i] = -1
	}
	for tme := 0; total > 0; tme++ {
		for _, e := range queues {
			q := e.q
			if len(q.msgs) == 0 || tme%k != q.slot {
				continue
			}
			i := q.msgs[0]
			if msgs[i].Start > tme {
				continue
			}
			// Physical check: occupy the circuit for this slot.
			if s, ok := injBusy[e.r.Src]; ok && s == tme {
				return nil, fmt.Errorf("sim: PE %d injects twice in slot %d", e.r.Src, tme)
			}
			if s, ok := ejBusy[e.r.Dst]; ok && s == tme {
				return nil, fmt.Errorf("sim: PE %d ejects twice in slot %d", e.r.Dst, tme)
			}
			injBusy[e.r.Src] = tme
			ejBusy[e.r.Dst] = tme
			for _, l := range paths[e.r].Links {
				if linkBusy[l] == tme {
					return nil, fmt.Errorf("sim: link %d carries two flits in slot %d (schedule conflict)", l, tme)
				}
				linkBusy[l] = tme
			}
			remaining[i]--
			total--
			if remaining[i] == 0 {
				finish[i] = tme + 1
				if tme+1 > last {
					last = tme + 1
				}
				q.msgs = q.msgs[1:]
			}
		}
	}
	return &CompiledResult{Time: last, Degree: k, Finish: finish}, nil
}
