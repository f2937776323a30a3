package sim

import (
	"fmt"

	"repro/internal/request"
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
// owns flat preallocated arrays (per-circuit message windows, per-message
// scratch), so repeated runs reuse the same storage.
//
// A CompiledSim is NOT safe for concurrent use; give each sweep worker its
// own.
type CompiledSim struct {
	idx       map[request.Request]int32 // circuit index per (src, dst)
	slots     []int32                   // per circuit: assigned TDM slot
	qend      []int32                   // per circuit: end of its window of order
	order     []int32                   // message indices grouped by circuit, start-ordered
	circuitOf []int32                   // per message: its circuit
	remaining []int                     // per message: flits undelivered at RunUntil's stop
}

// NewCompiledSim returns an empty reusable compiled-communication engine.
func NewCompiledSim() *CompiledSim {
	return &CompiledSim{idx: make(map[request.Request]int32)}
}

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

	// Assign a dense circuit index to every distinct (src, dst) and record
	// each message's circuit.
	clear(cs.idx)
	cs.slots = cs.slots[:0]
	cs.circuitOf = grow(cs.circuitOf, len(msgs))
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
		cs.circuitOf[i] = c
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
	return NewCompiledSim().Run(res, msgs, TDM)
}

// RunCompiledWDM simulates the same compiled schedule on a
// wavelength-division multiplexed network: configuration k's circuits use
// wavelength k, so all configurations are active simultaneously and every
// circuit moves one flit per slot. The multiplexing degree then costs
// hardware (wavelengths) instead of time.
func RunCompiledWDM(res *schedule.Result, msgs []Message) (*CompiledResult, error) {
	return NewCompiledSim().Run(res, msgs, WDM)
}

// CompiledTimeClosedForm predicts the finish time of a lone message with
// the given flit count on a TDM circuit in slot u of a degree-k schedule,
// starting at slot 0: the first flit completes at slot u+1 and each further
// flit costs one frame.
func CompiledTimeClosedForm(u, k, flits int) int {
	return u + 1 + (flits-1)*k
}
