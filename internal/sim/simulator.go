package sim

import (
	"fmt"
	"math/bits"

	"repro/internal/network"
)

// event kinds of the dynamic-control simulation.
const (
	evStart    = iota // source begins (or retries) the head message's reservation
	evResHop          // reservation packet arrives at the entry of path hop i
	evAckHop          // acknowledgement packet finishes processing hop i (walking back)
	evNackHop         // negative ack walks back across hop i, unlocking
	evDataDone        // last flit delivered at destination
	evRelHop          // release packet frees hop i's channel
	evAbortHop        // backward-reservation ack race lost: unlock hop i walking up
	evFault           // a fault event fires (msg indexes the fault list, not a message)
)

// Message lifecycle states (simMsg.state). Waiting messages sit in their
// source's FIFO with no events in flight; active ones have protocol events
// pending; lost ones were disconnected by a fault and will never deliver.
const (
	stWaiting = iota
	stActive
	stDone
	stLost
)

// Abort-walk states of a message under LockBackward (simMsg.abort). A lost
// ack race sends an abort walk forward over the hops the ack had already
// claimed. Shadow queuing can hold that walk at busy switches until the
// retry's ack reaches the last hop; the ack then waits there until the walk
// has unlocked it, since locking first would overwrite (and leak) a lock the
// walk has yet to free.
const (
	abortIdle    = iota // no abort walk in flight
	abortWalking        // an abort walk is unlocking hops
	abortAckHeld        // ... and the retry's ack waits at the last hop
)

// event is one pending protocol action. Events order by (time, seq); seq is
// the global push counter, so ties replay in insertion order and every run
// of the same input is identical. gen snapshots the message's generation at
// push time: a fault that tears a message down bumps the generation, which
// cancels every event the torn-down attempt still had in flight.
type event struct {
	time int
	seq  int32
	kind int32
	msg  int32
	hop  int32
	gen  int32
}

// simMsg tracks one message through the protocol. The locked/lockTime
// slices are windows into the Simulator's flat per-hop buffers; links
// aliases the (immutable) cached route until a fault forces a reroute, after
// which they are message-owned.
type simMsg struct {
	links    []network.LinkID
	locked   []uint64
	lockTime []int
	flits    int
	carried  uint64 // slot mask carried by the reservation packet
	attempts int
	slot     int   // allocated TDM slot once acknowledged
	next     int32 // next queued message of the same source; -1 at the tail
	gen      int32 // bumped by fault teardown; stale events are discarded
	state    int8  // stWaiting / stActive / stDone / stLost
	abort    int8  // abortIdle / abortWalking / abortAckHeld
}

// Simulator is a reusable engine for the dynamic-control protocol of
// Section 4.1 (the same model Dynamic.Run exposes). It owns every piece of
// per-run state as flat preallocated arrays — link channel masks, per-hop
// lock buffers, the event heap — so that repeated runs on the same
// topology allocate nothing in steady state. That matters for the Table 4-5
// sweeps, which run the simulator thousands of times per parameter point.
//
// A Simulator is NOT safe for concurrent use; give each sweep worker its
// own (see Sweep).
type Simulator struct {
	top    network.Topology
	params Params

	fullMask uint64
	// Per-topology tables built once: upstream/downstream switch of each
	// link, avoiding interface calls in the hot loop.
	linkFrom []int32
	linkTo   []int32

	// Per-run state, reset at the top of RunInto.
	links      []uint64 // free-channel mask per directed link
	busyUntil  []int    // per-switch control processor (ShadowQueuing only)
	lastOf     []int32  // per-source FIFO tail while chaining messages
	failedMask []uint64 // failed-channel mask per link; nil until RunFaulted

	states   []simMsg
	locked   []uint64 // flat per-hop lock masks, windowed into states
	lockTime []int    // flat per-hop lock stamps, windowed into states

	heap []event // 4-ary min-heap ordered by (time, seq)
	seq  int32
}

// NewSimulator validates the parameters and builds a reusable simulator for
// the topology. The topology's link table is snapshotted; mutating the
// topology afterwards is not supported.
func NewSimulator(t network.Topology, p Params) (*Simulator, error) {
	if t == nil {
		return nil, fmt.Errorf("sim: nil topology")
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		top:      t,
		params:   p,
		fullMask: uint64(1)<<uint(p.Degree) - 1,
	}
	nl := t.NumLinks()
	nn := t.NumNodes()
	// The cold-start tables are cut from two slabs sized by the topology's
	// dimensions — one allocation per element type instead of one per table
	// — and the per-run buffers are pre-sized here too (hop windows to two
	// slots per link, heap and states to the node count), so a cold
	// construct-and-run pays a fixed handful of allocations and a reused
	// simulator none.
	i32 := make([]int32, 2*nl+nn)
	s.linkFrom = i32[:nl:nl]
	s.linkTo = i32[nl : 2*nl : 2*nl]
	s.lastOf = i32[2*nl:]
	for i := 0; i < nl; i++ {
		li := t.Link(network.LinkID(i))
		s.linkFrom[i] = int32(li.From)
		s.linkTo[i] = int32(li.To)
	}
	u64 := make([]uint64, 3*nl)
	s.links = u64[:nl:nl]
	s.locked = u64[nl : nl : 3*nl]
	s.lockTime = make([]int, 0, 2*nl)
	s.states = make([]simMsg, 0, nn)
	s.heap = make([]event, 0, 2*nn)
	if p.ShadowQueuing {
		s.busyUntil = make([]int, nn)
	}
	return s, nil
}

// Params returns the parameters the simulator was built with.
func (s *Simulator) Params() Params { return s.params }

// Run executes the protocol for the given messages into a fresh result.
func (s *Simulator) Run(msgs []Message) (*DynamicResult, error) {
	res := &DynamicResult{}
	if err := s.RunInto(msgs, res); err != nil {
		return nil, err
	}
	return res, nil
}

// RunInto is Run with a caller-owned result: res (including its Finish
// slice) is reset and reused, so a steady-state loop of RunInto calls on
// one Simulator performs no heap allocation.
func (s *Simulator) RunInto(msgs []Message, res *DynamicResult) error {
	return s.run(msgs, nil, res)
}

// run is the shared engine behind RunInto and RunFaulted.
func (s *Simulator) run(msgs []Message, faults []FaultEvent, res *DynamicResult) error {
	k := s.params.Degree
	hopDelay := s.params.CtlHopDelay
	s.reset(len(msgs))
	resetResult(res, len(msgs))

	// Per-message state: routes come from the shared route cache (paths are
	// pure functions of the topology), lock buffers are windows of two flat
	// arrays sized to the total hop count.
	if cap(s.states) < len(msgs) {
		s.states = make([]simMsg, len(msgs))
	} else {
		s.states = s.states[:len(msgs)]
	}
	totalHops := 0
	for i, m := range msgs {
		if err := m.validate(); err != nil {
			return err
		}
		p, err := network.CachedRoute(s.top, nodeID(m.Src), nodeID(m.Dst))
		if err != nil {
			return fmt.Errorf("sim: message %d->%d: %w", m.Src, m.Dst, err)
		}
		st := &s.states[i]
		st.links = p.Links
		st.flits = m.Flits
		st.carried = 0
		st.attempts = 0
		st.slot = 0
		st.next = -1
		st.gen = 0
		st.state = stWaiting
		st.abort = abortIdle
		totalHops += len(p.Links)
	}
	if cap(s.locked) < totalHops {
		s.locked = make([]uint64, totalHops)
		s.lockTime = make([]int, totalHops)
	} else {
		s.locked = s.locked[:totalHops]
		s.lockTime = s.lockTime[:totalHops]
	}
	for i := range s.locked {
		s.locked[i] = 0 // lockTime is always written before a locked hop is read
	}
	off := 0
	for i := range s.states {
		st := &s.states[i]
		n := len(st.links)
		st.locked = s.locked[off : off+n : off+n]
		st.lockTime = s.lockTime[off : off+n : off+n]
		off += n
	}

	// Faults go on the heap before any message event: a fault at slot T
	// outranks every same-slot protocol action, so the failure is visible to
	// everything that fires at T.
	if len(faults) > 0 {
		if len(s.failedMask) < len(s.links) {
			s.failedMask = make([]uint64, len(s.links))
		}
		for i, f := range faults {
			if int(f.Link) < 0 || int(f.Link) >= len(s.links) {
				return fmt.Errorf("sim: fault %d: link %d out of range [0, %d)", i, f.Link, len(s.links))
			}
			if f.Slot < 0 {
				return fmt.Errorf("sim: fault %d: negative slot %d", i, f.Slot)
			}
			if f.Slot > s.params.MaxTime {
				continue // can never affect the run; skip to avoid a spurious timeout
			}
			s.push(f.Slot, evFault, int32(i), 0)
		}
	}

	// Chain each source's messages into a FIFO (input order, the paper's
	// single-queue head-of-line model) and kick off every head.
	for i, m := range msgs {
		if last := s.lastOf[m.Src]; last < 0 {
			s.states[i].state = stActive
			s.push(m.Start, evStart, int32(i), 0)
		} else {
			s.states[last].next = int32(i)
		}
		s.lastOf[m.Src] = int32(i)
	}

	remaining := len(msgs)
	for len(s.heap) > 0 {
		e := s.pop()
		if e.time > s.params.MaxTime {
			res.TimedOut = true
			res.Time = s.params.MaxTime
			return nil
		}
		if e.kind == evFault {
			s.applyFault(faults[e.msg], e.time, msgs, res, &remaining)
			continue
		}
		st := &s.states[e.msg]
		if e.gen != st.gen {
			continue // this attempt was torn down by a fault
		}
		if s.busyUntil != nil {
			switch e.kind {
			case evResHop, evAckHop, evNackHop, evRelHop, evAbortHop:
				// Backward-moving packets are served by the downstream switch.
				l := st.links[e.hop]
				node := s.linkFrom[l]
				if e.kind == evAckHop || e.kind == evNackHop {
					node = s.linkTo[l]
				}
				if s.busyUntil[node] > e.time {
					s.push(s.busyUntil[node], int(e.kind), e.msg, e.hop)
					continue
				}
				s.busyUntil[node] = e.time + hopDelay
			}
		}
		switch e.kind {
		case evStart:
			st.attempts++
			res.Attempts++
			st.carried = s.fullMask
			s.push(e.time+hopDelay, evResHop, e.msg, 0)

		case evResHop:
			l := &s.links[st.links[e.hop]]
			avail := *l & st.carried
			if avail == 0 {
				// Blocked: unlock everything reserved so far on the way
				// back and retry after a backoff.
				res.Blocked++
				if e.hop == 0 {
					s.push(e.time+backoff(s.params.RetryBackoff, st.attempts, int(e.msg)), evStart, e.msg, 0)
				} else {
					s.push(e.time+hopDelay, evNackHop, e.msg, e.hop-1)
				}
				continue
			}
			if s.params.Reservation == LockForward {
				*l &^= avail
				st.locked[e.hop] = avail
				st.lockTime[e.hop] = e.time
			}
			st.carried = avail
			if int(e.hop) == len(st.links)-1 {
				// Destination reached: select the lowest carried channel
				// and acknowledge backward.
				st.slot = bits.TrailingZeros64(st.carried)
				s.push(e.time+hopDelay, evAckHop, e.msg, e.hop)
			} else {
				s.push(e.time+hopDelay, evResHop, e.msg, e.hop+1)
			}

		case evNackHop:
			l := &s.links[st.links[e.hop]]
			*l |= s.alive(st.links[e.hop], st.locked[e.hop])
			res.WastedChannelSlots += (e.time - st.lockTime[e.hop]) * bits.OnesCount64(st.locked[e.hop])
			st.locked[e.hop] = 0
			if e.hop == 0 {
				s.push(e.time+backoff(s.params.RetryBackoff, st.attempts, int(e.msg)), evStart, e.msg, 0)
			} else {
				s.push(e.time+hopDelay, evNackHop, e.msg, e.hop-1)
			}

		case evAckHop:
			l := &s.links[st.links[e.hop]]
			sel := uint64(1) << uint(st.slot)
			if s.params.Reservation == LockBackward {
				if st.abort != abortIdle && int(e.hop) == len(st.links)-1 {
					st.abort = abortAckHeld // re-issued by the walk's last hop
					continue
				}
				// The reservation only observed availability; the ack must
				// win the channel now and can lose the race to a
				// competitor that acked first.
				if *l&sel == 0 {
					res.Blocked++ // ack race lost (backward locking)
					// Unlock the hops this ack already claimed (above the
					// failure point) and tell the source to retry; nothing
					// below this hop was ever locked.
					if int(e.hop)+1 < len(st.links) {
						st.abort = abortWalking
						s.push(e.time+hopDelay, evAbortHop, e.msg, e.hop+1)
					}
					s.push(e.time+(int(e.hop)+1)*hopDelay+backoff(s.params.RetryBackoff, st.attempts, int(e.msg)), evStart, e.msg, 0)
					continue
				}
				*l &^= sel
				st.locked[e.hop] = sel
				st.lockTime[e.hop] = e.time
			} else {
				// Release the locked-but-not-selected channels of this
				// hop; the selected channel stays allocated to the
				// circuit.
				released := st.locked[e.hop] &^ sel
				*l |= s.alive(st.links[e.hop], released)
				res.WastedChannelSlots += (e.time - st.lockTime[e.hop]) * bits.OnesCount64(released)
				st.locked[e.hop] = sel
			}
			if e.hop == 0 {
				// Ack reached the source: transmit. Under TDM one flit
				// completes in the circuit's slot of every frame; under
				// WDM the circuit owns a full-rate wavelength.
				var finish int
				if s.params.Mode == WDM {
					finish = e.time + st.flits
				} else {
					first := align(e.time, st.slot, k)
					finish = first + 1 + (st.flits-1)*k
				}
				s.push(finish, evDataDone, e.msg, 0)
			} else {
				s.push(e.time+hopDelay, evAckHop, e.msg, e.hop-1)
			}

		case evDataDone:
			res.UsefulChannelSlots += st.flits * len(st.links)
			res.Finish[e.msg] = e.time
			if e.time > res.Time {
				res.Time = e.time
			}
			remaining--
			st.state = stDone
			// Free the circuit hop by hop and let the source proceed with
			// its next message.
			s.push(e.time+hopDelay, evRelHop, e.msg, 0)
			s.startSuccessor(st, e.time, msgs)

		case evRelHop:
			l := &s.links[st.links[e.hop]]
			*l |= s.alive(st.links[e.hop], st.locked[e.hop])
			res.HeldChannelSlots += (e.time - st.lockTime[e.hop]) * bits.OnesCount64(st.locked[e.hop])
			st.locked[e.hop] = 0
			if int(e.hop) < len(st.links)-1 {
				s.push(e.time+hopDelay, evRelHop, e.msg, e.hop+1)
			}

		case evAbortHop:
			l := &s.links[st.links[e.hop]]
			*l |= s.alive(st.links[e.hop], st.locked[e.hop])
			res.WastedChannelSlots += (e.time - st.lockTime[e.hop]) * bits.OnesCount64(st.locked[e.hop])
			st.locked[e.hop] = 0
			if int(e.hop) < len(st.links)-1 {
				s.push(e.time+hopDelay, evAbortHop, e.msg, e.hop+1)
				continue
			}
			if st.abort == abortAckHeld {
				s.push(e.time, evAckHop, e.msg, e.hop)
			}
			st.abort = abortIdle
		}
	}
	if remaining != 0 {
		return fmt.Errorf("sim: %d messages never completed (internal error)", remaining)
	}
	// Conservation invariant: after every circuit is torn down, every
	// surviving virtual channel of every link must be free again. A leak
	// here would mean the protocol lost track of a lock.
	for i := range s.links {
		want := s.fullMask
		if s.failedMask != nil {
			want &^= s.failedMask[i]
		}
		if s.links[i] != want {
			return fmt.Errorf("sim: link %d leaked channels (free mask %b, want %b)",
				i, s.links[i], want)
		}
	}
	return nil
}

// alive masks out a link's failed channels from a lock mask being returned
// to the free pool; failed channels simply vanish rather than becoming
// allocatable again.
func (s *Simulator) alive(l network.LinkID, mask uint64) uint64 {
	if s.failedMask == nil {
		return mask
	}
	return mask &^ s.failedMask[l]
}

// startSuccessor activates the next queued message of st's source FIFO,
// skipping messages a fault has already declared lost.
func (s *Simulator) startSuccessor(st *simMsg, at int, msgs []Message) {
	next := st.next
	for next >= 0 && s.states[next].state == stLost {
		next = s.states[next].next
	}
	if next < 0 {
		return
	}
	if msgs[next].Start > at {
		at = msgs[next].Start
	}
	s.states[next].state = stActive
	s.push(at, evStart, next, 0)
}

// reset restores the per-run arrays, pre-sizing the event heap from the
// message count (a message generates a handful of events at a time; two
// heap slots per message covers every workload in the suite without
// regrowth).
func (s *Simulator) reset(numMsgs int) {
	for i := range s.links {
		s.links[i] = s.fullMask
	}
	for i := range s.lastOf {
		s.lastOf[i] = -1
	}
	if s.busyUntil != nil {
		for i := range s.busyUntil {
			s.busyUntil[i] = 0
		}
	}
	for i := range s.failedMask {
		s.failedMask[i] = 0
	}
	if want := 2 * numMsgs; cap(s.heap) < want {
		s.heap = make([]event, 0, want)
	} else {
		s.heap = s.heap[:0]
	}
	s.seq = 0
}

// resetResult clears a caller-owned result for reuse, growing Finish only
// when the message count does.
func resetResult(res *DynamicResult, numMsgs int) {
	if cap(res.Finish) < numMsgs {
		res.Finish = make([]int, numMsgs)
	} else {
		res.Finish = res.Finish[:numMsgs]
		for i := range res.Finish {
			res.Finish[i] = 0
		}
	}
	res.Time = 0
	res.Attempts = 0
	res.Blocked = 0
	res.TimedOut = false
	res.UsefulChannelSlots = 0
	res.HeldChannelSlots = 0
	res.WastedChannelSlots = 0
	res.Lost = 0
	res.Rerouted = 0
	res.FaultAborts = 0
}

// push inserts an event into the 4-ary heap. A 4-ary layout halves the
// tree depth of the binary heap.Interface version it replaced and, being
// monomorphic, needs no interface boxing per event.
func (s *Simulator) push(t, kind int, msg, hop int32) {
	var gen int32
	if kind != evFault {
		gen = s.states[msg].gen
	}
	e := event{time: t, seq: s.seq, kind: int32(kind), msg: msg, hop: hop, gen: gen}
	s.seq++
	h := append(s.heap, e)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if h[p].time < e.time || (h[p].time == e.time && h[p].seq < e.seq) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = e
	s.heap = h
}

// pop removes and returns the minimum event.
func (s *Simulator) pop() event {
	h := s.heap
	top := h[0]
	last := h[len(h)-1]
	h = h[:len(h)-1]
	if n := len(h); n > 0 {
		i := 0
		for {
			c := i<<2 + 1
			if c >= n {
				break
			}
			end := c + 4
			if end > n {
				end = n
			}
			m := c
			for j := c + 1; j < end; j++ {
				if h[j].time < h[m].time || (h[j].time == h[m].time && h[j].seq < h[m].seq) {
					m = j
				}
			}
			if h[m].time > last.time || (h[m].time == last.time && h[m].seq > last.seq) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = last
	}
	s.heap = h
	return top
}
