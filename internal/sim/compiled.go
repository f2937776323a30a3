package sim

import (
	"fmt"
	"sync"

	"repro/internal/schedule"
)

// CompiledResult reports a compiled-communication run.
type CompiledResult struct {
	// Time is the slot at which the last flit of the last message was
	// delivered (the pattern's communication time).
	Time int
	// Degree is the multiplexing degree of the compiled schedule.
	Degree int
	// Finish holds each message's delivery time, indexed like the input.
	Finish []int
}

// maxSlot caps every finish time the compiled engine prices: a message
// that would be delivered after slot 1<<40 is rejected instead of
// priced. The closed form costs nothing per slot, so the cap is not about
// time; it keeps every slot count far from int overflow. A served request
// body is at most 32 MiB and every phase needs a name and a message, so a
// program has fewer than 1<<20 phases and fewer than 1<<21 circuits per
// phase; per-phase sums such as total_slots, and products such as
// OverlapStall's prevComm*idle, therefore stay below 1<<62.
const maxSlot = 1 << 40

// CompiledSim is a reusable engine for the compiled-communication data
// plane. Under compiled communication every circuit owns its TDM slot and
// never contends, so delivery times are settled at compile time: the
// engine groups messages by circuit and prices each one in closed form,
// O(messages) whatever the degree, flit counts or start times. Messages of
// one circuit serialize in start order; a TDM circuit moves one flit in
// its slot of every frame, a WDM circuit one flit every slot. The engine
// reads the schedule's Configs (not its Slot index) and finds each
// message's circuit by bucketing both sides by source, with no hashing, in
// O(messages + scheduled requests + nodes). It owns flat preallocated
// arrays, so repeated runs reuse the same storage.
//
// A CompiledSim is NOT safe for concurrent use; give each sweep worker its
// own.
type CompiledSim struct {
	reqStart []int32 // per source: end of its window of reqDst/reqSlot
	reqDst   []int32 // scheduled requests bucketed by source, in config order
	reqSlot  []int32 // their TDM slots; a representative's holds its pair's last
	msgStart []int32 // per source: end of its window of msgOrder
	msgOrder []int32 // message indices bucketed by source
	rep      []int32 // per destination: the representative request of (s, d) while s resolves, else -1
	circOf   []int32 // per request: circuit+1 of the pair it represents, 0 before first use

	slots     []int32 // per circuit: assigned TDM slot
	qend      []int32 // per circuit: end of its window of order
	order     []int32 // message indices grouped by circuit, start-ordered
	circuitOf []int32 // per message: its circuit (its pair's representative request, -1 if none, while circuits resolves)
	remaining []int   // per message: flits undelivered at RunUntil's stop
}

// NewCompiledSim returns an empty reusable compiled-communication engine.
func NewCompiledSim() *CompiledSim { return new(CompiledSim) }

// Run executes the compiled data plane into a fresh result.
func (cs *CompiledSim) Run(res *schedule.Result, msgs []Message, mode Mode) (*CompiledResult, error) {
	out := &CompiledResult{}
	if err := cs.RunInto(res, msgs, mode, out); err != nil {
		return nil, err
	}
	return out, nil
}

// grow reslices an int32 buffer to n, reallocating only when capacity is
// exceeded.
func grow(buf []int32, n int) []int32 {
	if cap(buf) < n {
		return make([]int32, n)
	}
	return buf[:n]
}

// growZero is grow with every element zeroed.
func growZero(buf []int32, n int) []int32 {
	buf = grow(buf, n)
	clear(buf)
	return buf
}

// RunInto is Run with a caller-owned result; out and every internal buffer
// are reused across calls.
func (cs *CompiledSim) RunInto(res *schedule.Result, msgs []Message, mode Mode, out *CompiledResult) error {
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
func (cs *CompiledSim) RunUntil(res *schedule.Result, msgs []Message, mode Mode, stop int, out *CompiledResult) ([]int, error) {
	if stop < 0 {
		return nil, fmt.Errorf("sim: negative stop slot %d", stop)
	}
	unfinished, err := cs.runBounded(res, msgs, mode, stop, out)
	if err != nil {
		return nil, err
	}
	if unfinished == 0 {
		return nil, nil
	}
	return append([]int(nil), cs.remaining[:len(msgs)]...), nil
}

// runBounded is the engine shared by RunInto (limit < 0: run to completion)
// and RunUntil (limit >= 0: cut the timeline at the start of slot limit).
// It returns the number of messages still unfinished at limit; under a
// limit, cs.remaining holds every message's undelivered flits.
//
// Each circuit's messages are priced in start order. A message's first
// flit moves in the first slot t >= max(start, previous finish on the
// circuit) with t = u (mod K) — u is the circuit's TDM slot; WDM has K = 1,
// u = 0 — and every further flit one frame later, so the message is
// delivered at the end of slot t + (flits-1)*K.
func (cs *CompiledSim) runBounded(res *schedule.Result, msgs []Message, mode Mode, limit int, out *CompiledResult) (int, error) {
	k := res.Degree()
	if k == 0 {
		return 0, fmt.Errorf("sim: empty schedule")
	}

	if err := cs.circuits(res, msgs); err != nil {
		return 0, err
	}
	nc := len(cs.slots)

	// Group message indices by circuit with a counting sort, which keeps
	// input order within a circuit; afterwards cs.qend[c] ends circuit c's
	// window of cs.order and the previous circuit's end starts it.
	cs.qend = grow(cs.qend, nc)
	cs.order = grow(cs.order, len(msgs))
	clear(cs.qend)
	for _, c := range cs.circuitOf {
		cs.qend[c]++
	}
	off := int32(0)
	for c, n := range cs.qend {
		cs.qend[c] = off
		off += n
	}
	for i, c := range cs.circuitOf {
		cs.order[cs.qend[c]] = int32(i)
		cs.qend[c]++
	}

	if cap(out.Finish) < len(msgs) {
		out.Finish = make([]int, len(msgs))
	} else {
		out.Finish = out.Finish[:len(msgs)]
	}
	if limit >= 0 {
		if cap(cs.remaining) < len(msgs) {
			cs.remaining = make([]int, len(msgs))
		}
		cs.remaining = cs.remaining[:len(msgs)]
	}
	frame := k
	if mode == WDM {
		frame = 1
	}
	last, unfinished := 0, 0
	begin := int32(0)
	for c, end := range cs.qend {
		w := cs.order[begin:end]
		begin = end
		// Order the window by Start with a stable insertion sort: windows
		// are short, and already sorted when every message starts at 0.
		for i := 1; i < len(w); i++ {
			for j := i; j > 0 && msgs[w[j-1]].Start > msgs[w[j]].Start; j-- {
				w[j-1], w[j] = w[j], w[j-1]
			}
		}
		u := int(cs.slots[c]) // in WDM, frame 1 makes every slot the circuit's
		free := 0             // the slot after the circuit's previous message
		for _, i := range w {
			m := msgs[i]
			t := max(m.Start, free)
			if t < maxSlot {
				t += (u - t%frame + frame) % frame
			}
			// Both tests run before the product, so neither can overflow.
			if t >= maxSlot || m.Flits-1 > (maxSlot-1-t)/frame {
				return 0, fmt.Errorf("sim: message %d->%d (start %d, %d flits) would finish after the %d-slot cap", m.Src, m.Dst, m.Start, m.Flits, maxSlot)
			}
			free = t + (m.Flits-1)*frame + 1
			if limit < 0 || free <= limit {
				out.Finish[i] = free
				last = max(last, free)
				if limit >= 0 {
					cs.remaining[i] = 0
				}
				continue
			}
			// Cut short: only the flits of slots t, t+frame, ... before
			// limit were delivered.
			out.Finish[i] = 0
			cs.remaining[i] = m.Flits - max(0, (limit-t+frame-1)/frame)
			unfinished++
		}
	}
	out.Degree = k
	out.Time = last
	return unfinished, nil
}

// circuits numbers every distinct (src, dst) of msgs in order of first
// appearance, records each message's circuit in cs.circuitOf and each
// circuit's TDM slot in cs.slots — the last configuration that schedules
// the pair, as a Slot index built from Configs holds. Errors follow input
// order: the first message that is invalid or has no circuit is reported.
// No topology has a negative node, so a pair with a negative endpoint has
// no circuit.
func (cs *CompiledSim) circuits(res *schedule.Result, msgs []Message) error {
	nb := 0 // node bound: every scheduled endpoint is below it
	for _, c := range res.Configs {
		for _, q := range c {
			nb = max(nb, int(q.Src)+1, int(q.Dst)+1)
		}
	}
	// Bucket the scheduled requests by source, stably.
	cs.reqStart = growZero(cs.reqStart, nb+1)
	for _, c := range res.Configs {
		for _, q := range c {
			if q.Src >= 0 && q.Dst >= 0 {
				cs.reqStart[q.Src+1]++
			}
		}
	}
	for v := 1; v <= nb; v++ {
		cs.reqStart[v] += cs.reqStart[v-1]
	}
	nreq := int(cs.reqStart[nb])
	cs.reqDst, cs.reqSlot = grow(cs.reqDst, nreq), grow(cs.reqSlot, nreq)
	for k, c := range res.Configs {
		for _, q := range c {
			if q.Src >= 0 && q.Dst >= 0 {
				j := cs.reqStart[q.Src]
				cs.reqDst[j], cs.reqSlot[j] = int32(q.Dst), int32(k)
				cs.reqStart[q.Src]++
			}
		}
	}
	// Bucket the messages by source; those with an endpoint outside
	// [0, nb), self-loops included, have no circuit.
	cs.msgStart = growZero(cs.msgStart, nb+1)
	cs.circuitOf = grow(cs.circuitOf, len(msgs))
	bad := len(msgs) // first invalid message
	for i, m := range msgs {
		cs.circuitOf[i] = -1
		if bad == len(msgs) && m.validate() != nil {
			bad = i
		}
		if uint(m.Src) < uint(nb) && uint(m.Dst) < uint(nb) {
			cs.msgStart[m.Src+1]++
		}
	}
	for v := 1; v <= nb; v++ {
		cs.msgStart[v] += cs.msgStart[v-1]
	}
	cs.msgOrder = grow(cs.msgOrder, int(cs.msgStart[nb]))
	for i, m := range msgs {
		if uint(m.Src) < uint(nb) && uint(m.Dst) < uint(nb) {
			cs.msgOrder[cs.msgStart[m.Src]] = int32(i)
			cs.msgStart[m.Src]++
		}
	}
	// Resolve one source at a time on per-destination scratch: the first
	// request of each (s, d) represents the pair and takes its last slot.
	cs.rep = grow(cs.rep, nb)
	for d := range cs.rep {
		cs.rep[d] = -1
	}
	var rlo, mlo int32
	for s := 0; s < nb; s++ {
		reqs, mine := cs.reqDst[rlo:cs.reqStart[s]], cs.msgOrder[mlo:cs.msgStart[s]]
		base := rlo
		rlo, mlo = cs.reqStart[s], cs.msgStart[s]
		if len(mine) == 0 {
			continue
		}
		for j, d := range reqs {
			if cs.rep[d] < 0 {
				cs.rep[d] = base + int32(j)
			}
			cs.reqSlot[cs.rep[d]] = cs.reqSlot[base+int32(j)]
		}
		for _, i := range mine {
			cs.circuitOf[i] = cs.rep[msgs[i].Dst]
		}
		for _, d := range reqs {
			cs.rep[d] = -1
		}
	}
	// Number the circuits in input order.
	cs.circOf = growZero(cs.circOf, nreq)
	cs.slots = cs.slots[:0]
	for i, m := range msgs {
		if i == bad {
			return m.validate()
		}
		j := cs.circuitOf[i]
		if j < 0 {
			return fmt.Errorf("sim: message %d->%d has no circuit in the compiled schedule", m.Src, m.Dst)
		}
		if cs.circOf[j] == 0 {
			cs.slots = append(cs.slots, cs.reqSlot[j])
			cs.circOf[j] = int32(len(cs.slots))
		}
		cs.circuitOf[i] = cs.circOf[j] - 1
	}
	return nil
}

// RunCompiled prices a communication phase under compiled communication
// on a TDM network. The schedule must cover every message's (src, dst)
// pair; all circuits are established before slot 0 (the switch registers
// were loaded by compiled code), and a message whose connection was
// assigned TDM slot u delivers one flit at the end of every slot t with
// t mod K == u once the message has started. Messages sharing a circuit
// serialize in start order.
//
// No circuit ever contends, so every finish follows in closed form (a lone
// message starting at 0 finishes at u+1 + (flits-1)*K) and the run costs
// O(messages), not O(slots). The slot-stepping engine that derives the
// same times from the data-plane rule is kept in the tests as the
// differential oracle, next to RunCompiledChecked, which steps slots and
// checks links and ports physically.
func RunCompiled(res *schedule.Result, msgs []Message) (*CompiledResult, error) {
	return runPooled(res, msgs, TDM)
}

// RunCompiledWDM simulates the same compiled schedule on a
// wavelength-division multiplexed network: configuration k's circuits use
// wavelength k, so all configurations are active simultaneously and every
// circuit moves one flit per slot. The multiplexing degree then costs
// hardware (wavelengths) instead of time.
func RunCompiledWDM(res *schedule.Result, msgs []Message) (*CompiledResult, error) {
	return runPooled(res, msgs, WDM)
}

// enginePool keeps RunCompiled's engines, so a stream of runs reuses their
// arrays.
var enginePool = sync.Pool{New: func() any { return NewCompiledSim() }}

func runPooled(res *schedule.Result, msgs []Message, mode Mode) (*CompiledResult, error) {
	cs := enginePool.Get().(*CompiledSim)
	defer enginePool.Put(cs)
	return cs.Run(res, msgs, mode)
}

// CompiledTimeClosedForm predicts the finish time of a lone message with
// the given flit count on a TDM circuit in slot u of a degree-k schedule,
// starting at slot 0: the first flit completes at slot u+1 and each further
// flit costs one frame.
func CompiledTimeClosedForm(u, k, flits int) int {
	return u + 1 + (flits-1)*k
}
