package sim

// The pre-refactor dynamic-control simulator, kept verbatim (modulo
// renames) as the differential-testing oracle for the zero-allocation
// Simulator in simulator.go. It is the original container/heap + per-run
// allocation implementation: slower, but independently derived from the
// Section 4.1 protocol description. TestSimulatorMatchesOracle holds the
// two engines equal field-for-field across topology families, degrees and
// reservation variants; BenchmarkDynamicOracle preserves the "before"
// number of the refactor.

import (
	"container/heap"
	"fmt"
	"math/bits"

	"repro/internal/network"
)

type oracleEvent struct {
	time int
	kind int
	msg  int // message index
	hop  int // path hop index for the *_Hop kinds
	seq  int // tie-breaker for determinism
}

type oracleEventQueue []oracleEvent

func (q oracleEventQueue) Len() int { return len(q) }
func (q oracleEventQueue) Less(i, j int) bool {
	if q[i].time != q[j].time {
		return q[i].time < q[j].time
	}
	return q[i].seq < q[j].seq
}
func (q oracleEventQueue) Swap(i, j int) { q[i], q[j] = q[j], q[i] }
func (q *oracleEventQueue) Push(x any)   { *q = append(*q, x.(oracleEvent)) }
func (q *oracleEventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	*q = old[:n-1]
	return e
}

type oracleLinkState struct {
	free uint64
}

type oracleMsgState struct {
	links    []network.LinkID
	flits    int
	carried  uint64
	locked   []uint64
	lockTime []int
	attempts int
	slot     int
	abort    int
}

// runDynamicOracle executes the pre-refactor event loop.
func runDynamicOracle(top network.Topology, params Params, msgs []Message) (*DynamicResult, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	k := params.Degree
	fullMask := uint64(1)<<uint(k) - 1
	hopDelay := params.CtlHopDelay

	links := make([]oracleLinkState, top.NumLinks())
	for i := range links {
		links[i].free = fullMask
	}

	states := make([]oracleMsgState, len(msgs))
	queues := make(map[network.NodeID][]int) // per-source FIFO of message indices
	order := make([]network.NodeID, 0)
	for i, m := range msgs {
		if err := m.validate(); err != nil {
			return nil, err
		}
		p, err := top.Route(nodeID(m.Src), nodeID(m.Dst))
		if err != nil {
			return nil, fmt.Errorf("sim: message %d->%d: %w", m.Src, m.Dst, err)
		}
		states[i] = oracleMsgState{
			links:    p.Links,
			flits:    m.Flits,
			locked:   make([]uint64, len(p.Links)),
			lockTime: make([]int, len(p.Links)),
		}
		src := nodeID(m.Src)
		if _, ok := queues[src]; !ok {
			order = append(order, src)
		}
		queues[src] = append(queues[src], i)
	}

	var q oracleEventQueue
	seq := 0
	push := func(t, kind, msg, hop int) {
		heap.Push(&q, oracleEvent{time: t, kind: kind, msg: msg, hop: hop, seq: seq})
		seq++
	}
	for _, src := range order {
		head := queues[src][0]
		push(msgs[head].Start, evStart, head, 0)
	}

	res := &DynamicResult{Finish: make([]int, len(msgs))}
	remaining := len(msgs)
	startNext := func(t, msg int) {
		src := nodeID(msgs[msg].Src)
		fifo := queues[src]
		if len(fifo) == 0 || fifo[0] != msg {
			return
		}
		queues[src] = fifo[1:]
		if len(queues[src]) > 0 {
			next := queues[src][0]
			at := t
			if msgs[next].Start > at {
				at = msgs[next].Start
			}
			push(at, evStart, next, 0)
		}
	}

	var busyUntil []int
	if params.ShadowQueuing {
		busyUntil = make([]int, top.NumNodes())
	}

	for q.Len() > 0 {
		e := heap.Pop(&q).(oracleEvent)
		if e.time > params.MaxTime {
			res.TimedOut = true
			res.Time = params.MaxTime
			return res, nil
		}
		st := &states[e.msg]
		if busyUntil != nil {
			switch e.kind {
			case evResHop, evAckHop, evNackHop, evRelHop, evAbortHop:
				li := top.Link(st.links[e.hop])
				node := li.From
				if e.kind == evAckHop || e.kind == evNackHop {
					node = li.To
				}
				if busyUntil[node] > e.time {
					push(busyUntil[node], e.kind, e.msg, e.hop)
					continue
				}
				busyUntil[node] = e.time + hopDelay
			}
		}
		switch e.kind {
		case evStart:
			st.attempts++
			res.Attempts++
			st.carried = fullMask
			push(e.time+hopDelay, evResHop, e.msg, 0)

		case evResHop:
			l := &links[st.links[e.hop]]
			avail := l.free & st.carried
			if avail == 0 {
				res.Blocked++
				if e.hop == 0 {
					push(e.time+backoff(params.RetryBackoff, st.attempts, e.msg), evStart, e.msg, 0)
				} else {
					push(e.time+hopDelay, evNackHop, e.msg, e.hop-1)
				}
				continue
			}
			if params.Reservation == LockForward {
				l.free &^= avail
				st.locked[e.hop] = avail
				st.lockTime[e.hop] = e.time
			}
			st.carried = avail
			if e.hop == len(st.links)-1 {
				st.slot = bits.TrailingZeros64(st.carried)
				push(e.time+hopDelay, evAckHop, e.msg, e.hop)
			} else {
				push(e.time+hopDelay, evResHop, e.msg, e.hop+1)
			}

		case evNackHop:
			l := &links[st.links[e.hop]]
			l.free |= st.locked[e.hop]
			res.WastedChannelSlots += (e.time - st.lockTime[e.hop]) * bits.OnesCount64(st.locked[e.hop])
			st.locked[e.hop] = 0
			if e.hop == 0 {
				push(e.time+backoff(params.RetryBackoff, st.attempts, e.msg), evStart, e.msg, 0)
			} else {
				push(e.time+hopDelay, evNackHop, e.msg, e.hop-1)
			}

		case evAckHop:
			l := &links[st.links[e.hop]]
			sel := uint64(1) << uint(st.slot)
			if params.Reservation == LockBackward {
				if st.abort != abortIdle && e.hop == len(st.links)-1 {
					st.abort = abortAckHeld
					continue
				}
				if l.free&sel == 0 {
					res.Blocked++
					if e.hop+1 < len(st.links) {
						st.abort = abortWalking
						push(e.time+hopDelay, evAbortHop, e.msg, e.hop+1)
					}
					push(e.time+(e.hop+1)*hopDelay+backoff(params.RetryBackoff, st.attempts, e.msg), evStart, e.msg, 0)
					continue
				}
				l.free &^= sel
				st.locked[e.hop] = sel
				st.lockTime[e.hop] = e.time
			} else {
				released := st.locked[e.hop] &^ sel
				l.free |= released
				res.WastedChannelSlots += (e.time - st.lockTime[e.hop]) * bits.OnesCount64(released)
				st.locked[e.hop] = sel
			}
			if e.hop == 0 {
				var finish int
				if params.Mode == WDM {
					finish = e.time + st.flits
				} else {
					first := align(e.time, st.slot, k)
					finish = first + 1 + (st.flits-1)*k
				}
				push(finish, evDataDone, e.msg, 0)
			} else {
				push(e.time+hopDelay, evAckHop, e.msg, e.hop-1)
			}

		case evDataDone:
			res.UsefulChannelSlots += st.flits * len(st.links)
			res.Finish[e.msg] = e.time
			if e.time > res.Time {
				res.Time = e.time
			}
			remaining--
			push(e.time+hopDelay, evRelHop, e.msg, 0)
			startNext(e.time, e.msg)

		case evRelHop:
			l := &links[st.links[e.hop]]
			l.free |= st.locked[e.hop]
			res.HeldChannelSlots += (e.time - st.lockTime[e.hop]) * bits.OnesCount64(st.locked[e.hop])
			st.locked[e.hop] = 0
			if e.hop < len(st.links)-1 {
				push(e.time+hopDelay, evRelHop, e.msg, e.hop+1)
			}

		case evAbortHop:
			l := &links[st.links[e.hop]]
			l.free |= st.locked[e.hop]
			res.WastedChannelSlots += (e.time - st.lockTime[e.hop]) * bits.OnesCount64(st.locked[e.hop])
			st.locked[e.hop] = 0
			if e.hop < len(st.links)-1 {
				push(e.time+hopDelay, evAbortHop, e.msg, e.hop+1)
				continue
			}
			if st.abort == abortAckHeld {
				push(e.time, evAckHop, e.msg, e.hop)
			}
			st.abort = abortIdle
		}
	}
	if remaining != 0 {
		return nil, fmt.Errorf("sim: %d messages never completed (internal error)", remaining)
	}
	for i := range links {
		if links[i].free != fullMask {
			return nil, fmt.Errorf("sim: link %d leaked channels (free mask %b, want %b)",
				i, links[i].free, fullMask)
		}
	}
	return res, nil
}
