package service

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"repro/internal/jsonwire"
	"repro/internal/stats"
)

// This file defines the JSON wire contract of the compile service. The
// request body of /compile and /recompile is a plain internal/trace
// Document — the same file a user feeds ccrun — so `curl --data-binary
// @prog.json /compile` works with no wrapping. Everything else rides in
// query parameters: topology, alg, and (for /recompile) the fault mask.

// Pair is one scheduled connection, serialized compactly as [src, dst].
type Pair [2]int

var errPair = errors.New("service: a pair must be [int,int]")

// UnmarshalJSON decodes exactly [src,dst] without reflection, by the rules
// DecodeResponse parses configs with: JSON whitespace around every token,
// two integers in int's range and nothing else; null is a no-op, as
// encoding/json treats it for an array.
func (p *Pair) UnmarshalJSON(b []byte) error {
	d := jsonwire.NewDecoder(b)
	v := *p
	if decodePair(&d, &v) != nil || d.End() != nil {
		return errPair
	}
	*p = v
	return nil
}

func decodePair(d *jsonwire.Decoder, p *Pair) error {
	if d.Null() {
		return nil
	}
	if err := d.Array(); err != nil {
		return err
	}
	for k := range p {
		if ok, err := d.Elem(k); err != nil || !ok {
			return errPair
		}
		n, err := d.Int()
		if err != nil {
			return err
		}
		p[k] = n
	}
	if more, err := d.Elem(2); err != nil || more {
		return errPair
	}
	return nil
}

// PhaseResult is the compiled artifact of one phase.
type PhaseResult struct {
	Name    string `json:"name"`
	Dynamic bool   `json:"dynamic,omitempty"`
	// Fallback marks a phase served by the predetermined AAPC configuration
	// set rather than a pattern-specific schedule.
	Fallback  bool   `json:"fallback,omitempty"`
	Algorithm string `json:"algorithm"`
	Degree    int    `json:"degree"`
	// PredictedSlots is the simulated communication time of the phase's
	// messages on the compiled schedule (excluding reconfiguration).
	PredictedSlots int `json:"predicted_slots"`
	// Configs is the connection schedule: Configs[k] lists the circuits
	// established during TDM slot k of every frame.
	Configs [][]Pair `json:"configs"`
}

// FaultMask names the failed resources a /recompile request masks out.
type FaultMask struct {
	Links []int `json:"links,omitempty"`
	Nodes []int `json:"nodes,omitempty"`
}

// Empty reports whether the mask fails nothing.
func (m FaultMask) Empty() bool { return len(m.Links) == 0 && len(m.Nodes) == 0 }

// Result is the full compiled communication plan for one trace document.
type Result struct {
	Program   string `json:"program"`
	PEs       int    `json:"pes"`
	Topology  string `json:"topology"`
	Scheduler string `json:"scheduler"`
	// Faults echoes the mask a /recompile applied; omitted for /compile.
	Faults    *FaultMask `json:"faults,omitempty"`
	MaxDegree int        `json:"max_degree"`
	// Reconfigurations is the number of network reconfigurations one
	// iteration of the program performs (one per phase boundary).
	Reconfigurations int `json:"reconfigurations"`
	// TotalSlots is the predicted communication time of one iteration
	// including register reload and barrier costs.
	TotalSlots int           `json:"total_slots"`
	Phases     []PhaseResult `json:"phases"`
}

// Response is the envelope of /compile and /recompile replies. Result is
// kept as raw JSON so a cache hit returns the byte-identical artifact the
// cold compile produced.
type Response struct {
	// Key is the content hash the artifact is cached under.
	Key string `json:"key"`
	// Cache reports how the request was served: "miss" (this request
	// compiled), "hit" (served from the in-memory cache), "store" (read
	// back from the persistent schedule store), or "coalesced" (shared an
	// in-flight compile of the same key).
	Cache  string          `json:"cache"`
	Result json.RawMessage `json:"result"`
}

// Cache states reported in Response.Cache. CacheUnchanged appears only in
// /session phase chunks: the phase's message list is identical to the
// previous phase's, so the running schedule was kept without resolving a
// recompile candidate at all. CachePeer marks an artifact resolved by
// forwarding the request to the key's cluster owner instead of compiling
// locally (internal/cluster).
const (
	CacheMiss      = "miss"
	CacheHit       = "hit"
	CacheStore     = "store"
	CacheCoalesced = "coalesced"
	CacheUnchanged = "unchanged"
	CachePeer      = "peer"
)

// SessionChunk is one line of the /session NDJSON stream. The server
// writes a "session" header, one "phase" chunk per phase — in order, each
// flushed as soon as its compile(i) finished, while compile(i+1) is already
// running — and a "done" trailer. A mid-stream failure ends the stream with
// an "error" chunk (the HTTP status is already 200 by then).
type SessionChunk struct {
	Type string `json:"type"`

	// Header fields ("session").
	Key       string `json:"key,omitempty"`
	Program   string `json:"program,omitempty"`
	PEs       int    `json:"pes,omitempty"`
	Topology  string `json:"topology,omitempty"`
	Scheduler string `json:"scheduler,omitempty"`
	Phases    int    `json:"phases,omitempty"`

	// Phase fields ("phase"). Decision is the keep/patch/recompile choice;
	// Cache reports how the recompile candidate was resolved ("hit" for a
	// stored schedule reused verbatim, "patched" for a nearest-base delta,
	// "miss" for a full compile). Stall/Hidden/SerializedStall are the
	// overlap accounting of the phase's reconfiguration in slots.
	Index           int          `json:"index,omitempty"`
	Decision        string       `json:"decision,omitempty"`
	Cache           string       `json:"cache,omitempty"`
	Stall           int          `json:"stall,omitempty"`
	Hidden          int          `json:"hidden,omitempty"`
	SerializedStall int          `json:"serialized_stall,omitempty"`
	Result          *PhaseResult `json:"result,omitempty"`

	// Trailer fields ("done"). TotalSlots is the overlap-aware iteration
	// time of the served plan; SerializedSlots the same plan with
	// serialized register loading; PipelinedCompiles counts phases whose
	// compile began before the previous phase's chunk was flushed.
	TotalSlots        int            `json:"total_slots,omitempty"`
	SerializedSlots   int            `json:"serialized_slots,omitempty"`
	BaselineSlots     int            `json:"baseline_slots,omitempty"`
	Reconfigurations  int            `json:"reconfigurations,omitempty"`
	PipelinedCompiles int            `json:"pipelined_compiles,omitempty"`
	Decisions         map[string]int `json:"decisions,omitempty"`

	// Error field ("error").
	Error string `json:"error,omitempty"`
}

// SessionChunk.Type values.
const (
	SessionChunkHeader = "session"
	SessionChunkPhase  = "phase"
	SessionChunkDone   = "done"
	SessionChunkError  = "error"
)

// CachePatched is the per-phase cache state of a /session phase resolved by
// patching the nearest stored base (the other states reuse the Response
// constants).
const CachePatched = "patched"

// The JSON names of each type's fields, in field order.
var (
	responseFields    = jsonwire.NewFields("key", "cache", "result")
	resultFields      = jsonwire.NewFields("program", "pes", "topology", "scheduler", "faults", "max_degree", "reconfigurations", "total_slots", "phases")
	phaseResultFields = jsonwire.NewFields("name", "dynamic", "fallback", "algorithm", "degree", "predicted_slots", "configs")
	faultMaskFields   = jsonwire.NewFields("links", "nodes")
	chunkFields       = jsonwire.NewFields("type", "key", "program", "pes", "topology", "scheduler", "phases",
		"index", "decision", "cache", "stall", "hidden", "serialized_stall", "result",
		"total_slots", "serialized_slots", "baseline_slots", "reconfigurations", "pipelined_compiles", "decisions", "error")
)

// configScratch holds the buffers a phase's configs decode through before
// they are copied into one backing array.
type configScratch struct {
	pairs []Pair
	ends  []int // per config, its end in pairs; -1 for null
}

var configPool = sync.Pool{New: func() any { return new(configScratch) }}

// DecodeResponse decodes a /compile or /recompile reply and its result in
// one pass. It accepts, and produces, what json.Unmarshal into a Response
// and then of its Result into a Result would: unknown fields are skipped,
// and only the last "result" is decoded. Response.Result is the result's
// exact bytes and aliases data.
func DecodeResponse(data []byte) (Response, Result, error) {
	d := jsonwire.NewDecoder(data)
	sc := configPool.Get().(*configScratch)
	defer configPool.Put(sc)
	var resp Response
	var res Result
	var resErr error
	err := d.Struct(&responseFields, func(i int, _ []byte) error {
		switch i {
		case 0:
			return d.StringInto(&resp.Key)
		case 1:
			return d.StringInto(&resp.Cache)
		case 2:
			// A result that does not decode fails the reply only if no
			// later "result" replaces it, but bad syntax fails it at once.
			m := d.Mark()
			res = Result{}
			if resErr = decodeResult(&d, &res, sc); resErr != nil {
				d.Rewind(m)
				if err := d.Skip(); err != nil {
					return err
				}
			}
			resp.Result = d.Since(m)
			return nil
		}
		return d.Skip()
	})
	if err == nil {
		err = d.End()
	}
	if err == nil && resp.Result == nil {
		err = errors.New("no result")
	}
	if err == nil {
		err = resErr
	}
	if err != nil {
		return Response{}, Result{}, fmt.Errorf("service: decoding response: %w", err)
	}
	return resp, res, nil
}

// DecodeSessionChunk decodes one line of a /session stream as
// json.Unmarshal into a SessionChunk would.
func DecodeSessionChunk(line []byte) (SessionChunk, error) {
	d := jsonwire.NewDecoder(line)
	sc := configPool.Get().(*configScratch)
	defer configPool.Put(sc)
	var c SessionChunk
	err := d.Struct(&chunkFields, func(i int, _ []byte) error {
		switch i {
		case 0:
			return d.StringInto(&c.Type)
		case 1:
			return d.StringInto(&c.Key)
		case 2:
			return d.StringInto(&c.Program)
		case 3:
			return d.IntInto(&c.PEs)
		case 4:
			return d.StringInto(&c.Topology)
		case 5:
			return d.StringInto(&c.Scheduler)
		case 6:
			return d.IntInto(&c.Phases)
		case 7:
			return d.IntInto(&c.Index)
		case 8:
			return d.StringInto(&c.Decision)
		case 9:
			return d.StringInto(&c.Cache)
		case 10:
			return d.IntInto(&c.Stall)
		case 11:
			return d.IntInto(&c.Hidden)
		case 12:
			return d.IntInto(&c.SerializedStall)
		case 13:
			if d.Null() {
				c.Result = nil
				return nil
			}
			if c.Result == nil {
				c.Result = new(PhaseResult)
			}
			return decodePhaseResult(&d, c.Result, sc)
		case 14:
			return d.IntInto(&c.TotalSlots)
		case 15:
			return d.IntInto(&c.SerializedSlots)
		case 16:
			return d.IntInto(&c.BaselineSlots)
		case 17:
			return d.IntInto(&c.Reconfigurations)
		case 18:
			return d.IntInto(&c.PipelinedCompiles)
		case 19:
			return decodeCounts(&d, &c.Decisions)
		case 20:
			return d.StringInto(&c.Error)
		}
		return d.Skip()
	})
	if err == nil {
		err = d.End()
	}
	if err != nil {
		return SessionChunk{}, fmt.Errorf("service: decoding session chunk: %w", err)
	}
	return c, nil
}

func decodeResult(d *jsonwire.Decoder, r *Result, sc *configScratch) error {
	return d.Struct(&resultFields, func(i int, _ []byte) error {
		switch i {
		case 0:
			return d.StringInto(&r.Program)
		case 1:
			return d.IntInto(&r.PEs)
		case 2:
			return d.StringInto(&r.Topology)
		case 3:
			return d.StringInto(&r.Scheduler)
		case 4:
			if d.Null() {
				r.Faults = nil
				return nil
			}
			if r.Faults == nil {
				r.Faults = new(FaultMask)
			}
			return decodeFaultMask(d, r.Faults)
		case 5:
			return d.IntInto(&r.MaxDegree)
		case 6:
			return d.IntInto(&r.Reconfigurations)
		case 7:
			return d.IntInto(&r.TotalSlots)
		case 8:
			return jsonwire.Slice(d, &r.Phases, nil, func(d *jsonwire.Decoder, ph *PhaseResult) error {
				return decodePhaseResult(d, ph, sc)
			})
		}
		return d.Skip()
	})
}

func decodeFaultMask(d *jsonwire.Decoder, m *FaultMask) error {
	return d.Struct(&faultMaskFields, func(i int, _ []byte) error {
		switch i {
		case 0:
			return jsonwire.Slice(d, &m.Links, nil, (*jsonwire.Decoder).IntInto)
		case 1:
			return jsonwire.Slice(d, &m.Nodes, nil, (*jsonwire.Decoder).IntInto)
		}
		return d.Skip()
	})
}

func decodePhaseResult(d *jsonwire.Decoder, ph *PhaseResult, sc *configScratch) error {
	return d.Struct(&phaseResultFields, func(i int, _ []byte) error {
		switch i {
		case 0:
			return d.StringInto(&ph.Name)
		case 1:
			return d.BoolInto(&ph.Dynamic)
		case 2:
			return d.BoolInto(&ph.Fallback)
		case 3:
			return d.StringInto(&ph.Algorithm)
		case 4:
			return d.IntInto(&ph.Degree)
		case 5:
			return d.IntInto(&ph.PredictedSlots)
		case 6:
			return decodeConfigs(d, &ph.Configs, sc)
		}
		return d.Skip()
	})
}

// decodeConfigs reads a phase's configs into one backing array of pairs,
// each config a capped window of it, so an append to one config
// reallocates instead of overwriting the next. A repeated "configs" key
// decodes over the first, element by element, as encoding/json's does.
func decodeConfigs(d *jsonwire.Decoder, cfgs *[][]Pair, sc *configScratch) error {
	if *cfgs != nil {
		return jsonwire.Slice(d, cfgs, nil, func(d *jsonwire.Decoder, c *[]Pair) error {
			return jsonwire.Slice(d, c, nil, decodePair)
		})
	}
	if d.Null() {
		return nil
	}
	if err := d.Array(); err != nil {
		return err
	}
	pairs, ends := sc.pairs[:0], sc.ends[:0]
	for n := 0; ; n++ {
		ok, err := d.Elem(n)
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if d.Null() {
			ends = append(ends, -1)
			continue
		}
		if err := d.Array(); err != nil {
			return err
		}
		for m := 0; ; m++ {
			ok, err := d.Elem(m)
			if err != nil {
				return err
			}
			if !ok {
				break
			}
			pairs = append(pairs, Pair{})
			if err := decodePair(d, &pairs[len(pairs)-1]); err != nil {
				return err
			}
		}
		ends = append(ends, len(pairs))
	}
	sc.pairs, sc.ends = pairs, ends
	out := make([][]Pair, len(ends))
	backing := append([]Pair(nil), pairs...)
	a := 0
	for k, e := range ends {
		switch {
		case e < 0: // null
		case e == a:
			out[k] = []Pair{}
		default:
			out[k] = backing[a:e:e]
			a = e
		}
	}
	*cfgs = out
	return nil
}

// decodeCounts reads an object of integers into a map, merging into the
// map already there as encoding/json does.
func decodeCounts(d *jsonwire.Decoder, m *map[string]int) error {
	if d.Null() {
		*m = nil
		return nil
	}
	if err := d.Object(); err != nil {
		return err
	}
	if *m == nil {
		*m = make(map[string]int)
	}
	for n := 0; ; n++ {
		key, ok, err := d.Member(n)
		if err != nil || !ok {
			return err
		}
		k, v := string(key), 0
		if err := d.IntInto(&v); err != nil {
			return err
		}
		(*m)[k] = v
	}
}

// ErrorBody is the JSON shape of every non-2xx reply.
type ErrorBody struct {
	Error string `json:"error"`
}

// EndpointMetrics is the per-endpoint counter block of /metrics.
type EndpointMetrics struct {
	Requests uint64 `json:"requests"`
	// Hits counts in-memory (LRU) cache hits; StoreHits counts requests
	// served by reading the persistent schedule store — separated so an
	// operator can tell warm memory from warm disk.
	Hits      uint64 `json:"hits"`
	StoreHits uint64 `json:"store_hits"`
	// PeerHits counts requests resolved by forwarding to the key's cluster
	// owner rather than compiling locally; zero outside cluster mode.
	PeerHits  uint64 `json:"peer_hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Rejected  uint64 `json:"rejected"`
	Errors    uint64 `json:"errors"`
	// LatencyUs is the end-to-end handler latency distribution in
	// microseconds, successful requests only.
	LatencyUs stats.HistSnapshot `json:"latency_us"`
}

// CacheMetrics reports the schedule cache's state.
type CacheMetrics struct {
	Entries  int    `json:"entries"`
	Capacity int    `json:"capacity"`
	Hits     uint64 `json:"hits"`
	// DigestHits counts the hits that were byte-identical repeats of an
	// earlier request, served without decoding it; a subset of Hits.
	DigestHits uint64 `json:"digest_hits"`
	Misses     uint64 `json:"misses"`
	Evictions  uint64 `json:"evictions"`
}

// StoreMetrics reports the persistent schedule store's state; all-zero
// (with Enabled false) when the daemon runs without -store-dir.
type StoreMetrics struct {
	Enabled     bool   `json:"enabled"`
	Entries     int    `json:"entries"`
	Bytes       int64  `json:"bytes"`
	Puts        uint64 `json:"puts"`
	Hits        uint64 `json:"hits"`
	Misses      uint64 `json:"misses"`
	Quarantined uint64 `json:"quarantined"`
	// WarmLoaded is how many stored artifacts the daemon preloaded into
	// the LRU at boot.
	WarmLoaded int `json:"warm_loaded"`
	// EvictionWrites counts LRU evictions written through to the store.
	EvictionWrites uint64 `json:"eviction_writes"`
}

// DeltaMetrics reports the incremental recompiler's activity. With a store,
// every static phase the daemon resolves counts in exactly one of
// ScheduleHits, Patched and Full; without one, none of them moves.
type DeltaMetrics struct {
	// Bound is the configured degree-quality gate.
	Bound float64 `json:"bound"`
	// ScheduleHits counts phases served verbatim from a stored schedule.
	ScheduleHits uint64 `json:"schedule_hits"`
	// Patched counts phases served by an accepted incremental patch
	// (including a stored base rebased onto a fault mask); Full counts
	// phases scheduled from scratch, because no base was usable or its
	// patch was rejected.
	Patched uint64 `json:"patched"`
	Full    uint64 `json:"full"`
}

// SessionMetrics reports the multi-phase /session pipeline's activity.
type SessionMetrics struct {
	// Sessions counts completed session streams; PhasesServed the phase
	// chunks they delivered.
	Sessions     uint64 `json:"sessions"`
	PhasesServed uint64 `json:"phases_served"`
	// Keep/Patch/Recompile count the per-boundary decisions.
	Keep      uint64 `json:"keep"`
	Patch     uint64 `json:"patch"`
	Recompile uint64 `json:"recompile"`
	// PipelinedCompiles counts phase compiles that began before the
	// previous phase's chunk had been written to the client — the direct
	// evidence that compile(i+1) overlaps serve(i).
	PipelinedCompiles uint64 `json:"pipelined_compiles"`
	// HiddenSlots accumulates reconfiguration slots hidden under
	// communication across all served phases.
	HiddenSlots uint64 `json:"hidden_slots"`
}

// QueueMetrics reports the worker pool's state.
type QueueMetrics struct {
	Workers  int   `json:"workers"`
	Capacity int   `json:"capacity"`
	Depth    int   `json:"depth"`
	InFlight int64 `json:"in_flight"`
	// WaitUs is the admission→worker-pickup delay distribution in
	// microseconds across all classes — the queue delay the weighted fair
	// scheduler shapes (per-class copies live in ClassMetrics).
	WaitUs stats.HistSnapshot `json:"wait_us"`
}

// ClassMetrics is one QoS class's block in /metrics: its scheduling
// weight, serving counters, queue state and wait distribution, and its
// cache/store partition usage. Hits count responses served warm (memory,
// store, or peer); Misses count pipeline compiles (including coalesced
// followers).
type ClassMetrics struct {
	Weight   int    `json:"weight"`
	Requests uint64 `json:"requests"`
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Rejected uint64 `json:"rejected"`
	Errors   uint64 `json:"errors"`

	QueueDepth    int                `json:"queue_depth"`
	QueueCapacity int                `json:"queue_capacity"`
	QueueWaitUs   stats.HistSnapshot `json:"queue_wait_us"`
	LatencyUs     stats.HistSnapshot `json:"latency_us"`

	CacheEntries   int    `json:"cache_entries"`
	CacheCapacity  int    `json:"cache_capacity"`
	CacheEvictions uint64 `json:"cache_evictions"`
	// Store usage of the class's partition; StoreEvictions counts entries
	// removed by the class's own quota GC (never another class's).
	StoreEntries   int    `json:"store_entries"`
	StoreBytes     int64  `json:"store_bytes"`
	StoreEvictions uint64 `json:"store_evictions"`
}

// MetricsSnapshot is the /metrics document.
type MetricsSnapshot struct {
	UptimeSeconds float64        `json:"uptime_seconds"`
	Topology      string         `json:"topology"`
	Scheduler     string         `json:"scheduler"`
	Cache         CacheMetrics   `json:"cache"`
	Store         StoreMetrics   `json:"store"`
	Delta         DeltaMetrics   `json:"delta"`
	Session       SessionMetrics `json:"session"`
	Queue         QueueMetrics   `json:"queue"`
	// QoS maps each admission class to its serving, queue and quota state.
	QoS       map[string]ClassMetrics    `json:"qos"`
	Endpoints map[string]EndpointMetrics `json:"endpoints"`
}
