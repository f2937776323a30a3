package sim

import (
	"math/bits"

	"repro/internal/network"
)

// FaultEvent is a permanent failure injected into a dynamic run: at slot
// Slot, the channels in Mask of link Link go dark (Mask == 0 means the whole
// link). Faults are link-centric at this level; internal/fault expands node
// failures into the incident link set before handing a plan to the
// simulator.
type FaultEvent struct {
	Slot int
	Link network.LinkID
	Mask uint64
}

// RunFaulted runs the dynamic protocol with mid-run fault injection. It is
// RunInto plus a fault timeline: when a fault fires, channels vanish from
// the free pool, circuits and reservations crossing the dead resource are
// torn down, and their messages retry — over a surviving detour if the
// deterministic route died, or not at all (Lost) if no surviving path
// exists. The run is deterministic for a fixed (msgs, faults) input: faults
// fire before same-slot protocol events, in input order.
//
// The degradation the dynamic protocol pays appears in the result as
// FaultAborts (torn-down attempts), Rerouted (detoured messages), Lost
// (disconnected messages, Finish == 0), and in the usual contention
// metrics, which now reflect the thinner surviving network.
func (s *Simulator) RunFaulted(msgs []Message, faults []FaultEvent, res *DynamicResult) error {
	return s.run(msgs, faults, res)
}

// blockedLink is the BFS avoid-predicate for fault rerouting: only links
// with every channel failed are unusable; partially-failed links still
// route at reduced capacity.
func (s *Simulator) blockedLink(li network.LinkInfo) bool {
	return s.failedMask[li.ID] == s.fullMask
}

// applyFault makes a fault permanent: it removes the failed channels from
// the free pool and tears down every message whose current attempt touches
// the dead resource — in-flight events are cancelled by bumping the
// message's generation, surviving locked channels return to the pool, and
// the message either restarts (same route if it survives, else a BFS detour
// over the surviving links) or is declared lost when the failure
// disconnects its endpoints. Messages already delivered keep draining their
// release chain; the alive() guard drops their failed channels on the way.
func (s *Simulator) applyFault(f FaultEvent, now int, msgs []Message, res *DynamicResult, remaining *int) {
	mask := f.Mask & s.fullMask
	if f.Mask == 0 {
		mask = s.fullMask
	}
	newly := mask &^ s.failedMask[f.Link]
	if newly == 0 {
		return
	}
	s.failedMask[f.Link] |= newly
	s.links[f.Link] &^= newly

	hopDelay := s.params.CtlHopDelay
	for i := range s.states {
		st := &s.states[i]
		if st.state == stDone || st.state == stLost {
			continue
		}
		// A message is affected if its route crosses a fully-dead link (it
		// can never complete on that route) or if it holds a lock on a
		// now-failed channel (its circuit or reservation just broke).
		routeDead := false
		hit := false
		for h, lk := range st.links {
			fm := s.failedMask[lk]
			if fm == 0 {
				continue
			}
			if fm == s.fullMask {
				routeDead = true
			}
			if st.locked[h]&fm != 0 {
				hit = true
			}
		}
		if !routeDead && !hit {
			continue
		}
		// Tear down the current attempt: cancel its in-flight events and
		// return the surviving locked channels to the pool.
		st.gen++
		st.abort = abortIdle
		for h, lk := range st.links {
			if st.locked[h] == 0 {
				continue
			}
			s.links[lk] |= st.locked[h] &^ s.failedMask[lk]
			res.WastedChannelSlots += (now - st.lockTime[h]) * bits.OnesCount64(st.locked[h])
			st.locked[h] = 0
		}
		if st.state == stActive {
			res.FaultAborts++
		}
		if routeDead {
			p, err := network.BFSRoute(s.top, nodeID(msgs[i].Src), nodeID(msgs[i].Dst), s.blockedLink)
			if err != nil {
				// Disconnected: the message can never be delivered.
				wasActive := st.state == stActive
				st.state = stLost
				res.Lost++
				*remaining--
				if wasActive {
					s.startSuccessor(st, now+hopDelay, msgs)
				}
				continue
			}
			st.links = p.Links
			st.locked = make([]uint64, len(p.Links))
			st.lockTime = make([]int, len(p.Links))
			res.Rerouted++
		}
		if st.state == stActive {
			at := now + hopDelay
			if msgs[i].Start > at {
				at = msgs[i].Start
			}
			s.push(at, evStart, int32(i), 0)
		}
	}
}
