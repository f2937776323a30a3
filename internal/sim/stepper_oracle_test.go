package sim

// The slot-stepping compiled-communication engine, kept verbatim (modulo
// renames) as the differential-testing oracle for the closed-form
// CompiledSim in compiled.go. It walks the TDM frame one slot at a time and
// moves one flit per started circuit in its slot, so it is derived from
// the data-plane rule itself rather than from the finish-time formula.
// FuzzCompiledSim and TestCompiledSimMatchesStepper hold the two engines
// equal on Finish, Time, Degree and the flits RunUntil leaves undelivered.

import (
	"fmt"

	"repro/internal/request"
	"repro/internal/schedule"
)

// stepperSim is a reusable engine for the compiled-communication data
// plane. Like Simulator it owns flat preallocated arrays — per-circuit
// message queues, per-slot circuit groups, remaining-flit counters — so
// repeated runs reuse the same storage. Messages of one circuit serialize
// in start order; a TDM circuit moves one flit in its slot of every frame,
// a WDM circuit one flit every slot.
//
// A stepperSim is NOT safe for concurrent use; give each sweep worker its
// own.
type stepperSim struct {
	idx       map[request.Request]int32 // circuit index per (src, dst)
	slots     []int32                   // per circuit: assigned TDM slot
	qhead     []int32                   // per circuit: head index into order
	qend      []int32                   // per circuit: end index (exclusive)
	order     []int32                   // message indices grouped by circuit, start-ordered
	remaining []int32                   // per message: flits still to deliver
	slotOff   []int32                   // per TDM slot: offset into slotCircuits
	slotCirc  []int32                   // circuit ids grouped by slot
	counts    []int32                   // scratch for the grouping counting sorts
}

// newStepperSim returns an empty reusable compiled-communication engine.
func newStepperSim() *stepperSim {
	return &stepperSim{idx: make(map[request.Request]int32)}
}

// RunInto is Run with a caller-owned result; out and every internal buffer
// are reused across calls.
func (cs *stepperSim) RunInto(res *schedule.Result, msgs []Message, mode Mode, out *CompiledResult) error {
	_, err := cs.runBounded(res, msgs, mode, -1, out)
	return err
}

// RunUntil is RunInto stopped at the start of slot stop: only slots
// 0..stop-1 execute. It returns the per-message flit counts still
// undelivered when the clock hit stop (all zeros if the pattern finished
// early); messages with remaining flits have Finish == 0. This is the
// partial-progress primitive of fault recovery: a failure at slot T is
// simulated by running the healthy schedule until T, recompiling, and
// re-running the remainders on the degraded schedule.
//
// The returned slice is freshly allocated when any message is unfinished
// (nil when the phase completed), so callers may keep it across further
// runs of the engine.
func (cs *stepperSim) RunUntil(res *schedule.Result, msgs []Message, mode Mode, stop int, out *CompiledResult) ([]int, error) {
	if stop < 0 {
		return nil, fmt.Errorf("sim: negative stop slot %d", stop)
	}
	total, err := cs.runBounded(res, msgs, mode, stop, out)
	if err != nil {
		return nil, err
	}
	if total == 0 {
		return nil, nil
	}
	rem := make([]int, len(msgs))
	for i := range msgs {
		rem[i] = int(cs.remaining[i])
	}
	return rem, nil
}

// runBounded is the engine shared by RunInto (limit < 0: run to completion)
// and RunUntil (limit >= 0: run slots [0, limit)). It returns the number of
// flits still undelivered.
func (cs *stepperSim) runBounded(res *schedule.Result, msgs []Message, mode Mode, limit int, out *CompiledResult) (int, error) {
	k := res.Degree()
	if k == 0 {
		return 0, fmt.Errorf("sim: empty schedule")
	}

	// Assign a dense circuit index to every distinct (src, dst) and count
	// the messages per circuit.
	clear(cs.idx)
	cs.slots = cs.slots[:0]
	total := 0
	cs.remaining = grow(cs.remaining, len(msgs))
	cs.counts = grow(cs.counts, len(msgs))
	circuitOf := cs.counts // per message: its circuit
	for i, m := range msgs {
		if err := m.validate(); err != nil {
			return 0, err
		}
		r := request.Request{Src: nodeID(m.Src), Dst: nodeID(m.Dst)}
		c, ok := cs.idx[r]
		if !ok {
			u, scheduled := res.Slot[r]
			if !scheduled {
				return 0, fmt.Errorf("sim: message %d->%d has no circuit in the compiled schedule", m.Src, m.Dst)
			}
			c = int32(len(cs.slots))
			cs.slots = append(cs.slots, int32(u))
			cs.idx[r] = c
		}
		circuitOf[i] = c
		cs.remaining[i] = int32(m.Flits)
		total += m.Flits
	}
	nc := len(cs.slots)

	// Group message indices by circuit (counting sort keeps input order,
	// i.e. the grouping is stable), then order each circuit's window by
	// Start with an in-place stable insertion sort — windows are short and
	// already sorted in the common all-start-at-zero workloads.
	cs.qhead = grow(cs.qhead, nc+1)
	cs.qend = grow(cs.qend, nc)
	cs.order = grow(cs.order, len(msgs))
	for c := 0; c <= nc; c++ {
		cs.qhead[c] = 0
	}
	for _, c := range circuitOf[:len(msgs)] {
		cs.qhead[c]++
	}
	off := int32(0)
	for c := 0; c < nc; c++ {
		n := cs.qhead[c]
		cs.qhead[c] = off
		off += n
	}
	for i := range msgs {
		c := circuitOf[i]
		cs.order[cs.qhead[c]] = int32(i)
		cs.qhead[c]++
	}
	start := int32(0)
	for c := 0; c < nc; c++ {
		end := cs.qhead[c]
		cs.qend[c] = end
		w := cs.order[start:end]
		for i := 1; i < len(w); i++ {
			j := i
			for j > 0 && msgs[w[j-1]].Start > msgs[w[j]].Start {
				w[j-1], w[j] = w[j], w[j-1]
				j--
			}
		}
		cs.qhead[c] = start
		start = end
	}
	cs.qhead = cs.qhead[:nc]

	// Group circuits by TDM slot so each frame position scans only the
	// circuits that may move in it (in WDM mode every circuit moves every
	// slot and the grouping is bypassed).
	if mode == TDM {
		cs.slotOff = grow(cs.slotOff, k+1)
		cs.slotCirc = grow(cs.slotCirc, nc)
		for u := 0; u <= k; u++ {
			cs.slotOff[u] = 0
		}
		for _, u := range cs.slots {
			cs.slotOff[u]++
		}
		off = 0
		for u := 0; u < k; u++ {
			n := cs.slotOff[u]
			cs.slotOff[u] = off
			off += n
		}
		cs.slotOff[k] = off
		tmp := cs.slotOff
		for c, u := range cs.slots {
			cs.slotCirc[tmp[u]] = int32(c)
			tmp[u]++
		}
		// Restore the offsets shifted by the fill pass.
		for u := k; u > 0; u-- {
			cs.slotOff[u] = cs.slotOff[u-1]
		}
		cs.slotOff[0] = 0
	} else {
		cs.slotCirc = grow(cs.slotCirc, nc)
		for c := 0; c < nc; c++ {
			cs.slotCirc[c] = int32(c)
		}
	}

	if cap(out.Finish) < len(msgs) {
		out.Finish = make([]int, len(msgs))
	} else {
		out.Finish = out.Finish[:len(msgs)]
		for i := range out.Finish {
			out.Finish[i] = 0
		}
	}
	out.Degree = k
	last := 0
	for t := 0; total > 0 && (limit < 0 || t < limit); t++ {
		group := cs.slotCirc[:len(cs.slots)]
		if mode == TDM {
			u := t % k
			group = cs.slotCirc[cs.slotOff[u]:cs.slotOff[u+1]]
		}
		for _, c := range group {
			h := cs.qhead[c]
			if h == cs.qend[c] {
				continue
			}
			i := cs.order[h]
			if msgs[i].Start > t {
				continue
			}
			cs.remaining[i]--
			total--
			if cs.remaining[i] == 0 {
				out.Finish[i] = t + 1 // delivered at the end of slot t
				if t+1 > last {
					last = t + 1
				}
				cs.qhead[c] = h + 1
			}
		}
	}
	out.Time = last
	return total, nil
}
