package service

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/delta"
	"repro/internal/schedule"
)

// This file is the multi-phase /session serving path. A client posts a
// phase sequence (a plain trace.Document, like /compile) and the daemon
// streams one NDJSON chunk per phase: while the client is still reading
// phase i's chunk, the producer is already resolving phase i+1 — nearest-
// base store lookup plus the core keep/patch/recompile decision — so the
// compile of the next phase pipelines with the serving of the current one.
//
// The per-boundary state (the running schedule, its communication time, a
// live delta.Session holding the colored schedule) lives in the producer
// goroutine only; one session occupies exactly one worker-pool slot for
// its whole duration, so admission control applies to sessions the same
// way it applies to single compiles.

// sessionDeltaBound effectively disables delta's degree-quality gate for
// the patch *candidate*: the cost model arbitrates quality itself (a bad
// patch loses on simulated communication time), and keeping the candidate
// a pure patch keeps /session byte-identical to core.ChooseSchedule's
// stateless delta.Patch.
const sessionDeltaBound = 1e9

// handleSession serves POST /session.
func (s *Server) handleSession(w http.ResponseWriter, r *http.Request) {
	const endpoint = "session"
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		s.writeError(w, endpoint, http.StatusMethodNotAllowed, fmt.Errorf("service: %s requires POST", endpoint))
		return
	}
	start := time.Now()
	body, bodyErr := readBody(w, r)
	p, err := s.parse(r, body, bodyErr, false)
	if err != nil {
		s.writeError(w, endpoint, http.StatusBadRequest, err)
		return
	}

	// Lookahead-1 channel: the producer may finish compiling phase i+1
	// while phase i's chunk still sits unflushed — deeper lookahead would
	// only hold schedules alive without making the stream faster.
	ch := make(chan sessionMsg, 1)
	// flushed is the index of the last phase chunk written to the client;
	// the producer reads it to detect that it started a compile while the
	// consumer was still serving the previous phase.
	var flushed atomic.Int64
	flushed.Store(-1)

	if err := s.pool.TrySubmit(p.tenant, func() {
		defer close(ch)
		s.runSession(p, ch, &flushed)
	}); err != nil {
		s.rejected(w, endpoint, p, err)
		return
	}

	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	writeChunk := func(c SessionChunk) {
		_ = enc.Encode(c)
		if flusher != nil {
			flusher.Flush()
		}
	}
	writeChunk(SessionChunk{
		Type:      SessionChunkHeader,
		Key:       p.key,
		Program:   p.prog.Name,
		PEs:       p.pes,
		Topology:  p.topoName,
		Scheduler: p.schedName,
		Phases:    len(p.prog.Phases),
	})
	failed := false
	var trailer *SessionChunk
	for c := range ch {
		if c.err != nil {
			writeChunk(SessionChunk{Type: SessionChunkError, Error: c.err.Error()})
			failed = true
			break
		}
		writeChunk(c.chunk)
		if c.chunk.Type == SessionChunkPhase {
			flushed.Store(int64(c.chunk.Index))
		} else if c.chunk.Type == SessionChunkDone {
			trailer = &c.chunk
		}
	}
	if failed {
		// Drain so the producer never blocks on a dead channel.
		for range ch {
		}
		s.metrics.observeFailure(endpoint, p.tenant, false)
		return
	}
	if trailer != nil {
		hidden := trailer.SerializedSlots - trailer.TotalSlots
		s.metrics.observeSession(trailer.Decisions, trailer.PipelinedCompiles, hidden, time.Since(start))
	}
}

// sessionMsg is what the producer hands the consumer: a chunk to write, or
// the error that ends the stream.
type sessionMsg struct {
	chunk SessionChunk
	err   error
}

// runSession is the producer: it walks the phase sequence, resolves each
// phase's recompile candidate through the store, runs the keep/patch/
// recompile decision against the running schedule, and emits one chunk per
// phase plus the trailer.
func (s *Server) runSession(p *parsedRequest, ch chan<- sessionMsg, flushed *atomic.Int64) {
	emit := func(c SessionChunk, err error) {
		ch <- sessionMsg{c, err}
	}
	rc := s.reconfig
	var prev *schedule.Result
	prevComm := 0
	// The live colored schedule producing patch candidates. It is
	// re-anchored whenever the decision did not serve its output (the
	// session structure then holds a schedule the network never loaded).
	var patchSess *delta.Session
	sessHolds := (*schedule.Result)(nil)
	decisions := make(map[string]int, 3)
	pipelined := 0
	totalSlots, serializedSlots, baselineSlots := 0, 0, 0
	for i, ph := range p.prog.Phases {
		if i > 0 && flushed.Load() < int64(i-1) {
			// The previous phase's chunk is not on the wire yet: this
			// compile overlaps serving it.
			pipelined++
		}
		var ev core.BoundaryEval
		var cacheState string
		if prev != nil && !ph.Dynamic && core.SameMessages(ph.Messages, p.prog.Phases[i-1].Messages) {
			// Unchanged phase: keep the running schedule outright, no
			// candidate resolution. This is the amortization an iterative
			// program buys from a session — N identical phases, one compile.
			ev = core.KeepUnchanged(prev, prevComm, rc)
			cacheState = CacheUnchanged
		} else {
			if s.compileHook != nil {
				s.compileHook(p.key)
			}
			scratch, state, err := s.resolvePhase(p, p.topo, ph)
			if err != nil {
				emit(SessionChunk{}, compileError{fmt.Errorf("phase %q on %s: %w", ph.Name, p.topoName, err)})
				return
			}
			cacheState = state
			var patched *schedule.Result
			if prev != nil && !ph.Dynamic && core.PatchWorthwhile(prev, ph.Requests()) {
				if patchSess == nil || sessHolds != prev {
					patchSess, err = delta.NewSession(p.topo, prev, delta.Options{Bound: sessionDeltaBound, Scheduler: p.scheduler})
					if err != nil {
						patchSess = nil
					}
				}
				if patchSess != nil {
					if res, st, err := patchSess.Recompile(ph.Requests()); err == nil {
						sessHolds = res
						if st.Patched {
							patched = res
						}
					} else {
						patchSess = nil
					}
				}
			}
			ev, err = core.ChooseFrom(prev, prevComm, ph.Messages, scratch, patched, rc)
			if err != nil {
				emit(SessionChunk{}, compileError{fmt.Errorf("phase %q: %w", ph.Name, err)})
				return
			}
		}
		decisions[string(ev.Decision)]++
		totalSlots += ev.Stall + ev.Comm
		serializedSlots += ev.SerializedStall + ev.Comm
		baselineSlots += ev.Baseline
		res := phaseResult(ph, ev.Schedule, ev.Comm)
		emit(SessionChunk{
			Type:            SessionChunkPhase,
			Index:           i,
			Decision:        string(ev.Decision),
			Cache:           cacheState,
			Stall:           ev.Stall,
			Hidden:          ev.Hidden,
			SerializedStall: ev.SerializedStall,
			Result:          &res,
		}, nil)
		prev, prevComm = ev.Schedule, ev.Comm
	}
	emit(SessionChunk{
		Type:              SessionChunkDone,
		TotalSlots:        totalSlots,
		SerializedSlots:   serializedSlots,
		BaselineSlots:     baselineSlots,
		Reconfigurations:  len(p.prog.Phases),
		PipelinedCompiles: pipelined,
		Decisions:         decisions,
	}, nil)
}
