package service

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"sort"
	"strconv"

	"repro/internal/core"
	"repro/internal/request"
	"repro/internal/sim"
)

// The oracles below are the canonical program and the keys as the service
// computed them before one pass built both: sort.Slice over a copy of each
// phase, a triple copy per phase, and a sorted copy of the triples fed to
// SHA-256 a field at a time. FuzzProgramKey holds the service to them.

// oracleCanonicalProgram sorts every phase's messages by (src, dst, start,
// flits) in a copy.
func oracleCanonicalProgram(prog core.Program) core.Program {
	out := core.Program{Name: prog.Name, Phases: make([]core.Phase, len(prog.Phases))}
	for i, ph := range prog.Phases {
		msgs := append([]sim.Message(nil), ph.Messages...)
		sort.Slice(msgs, func(a, b int) bool {
			x, y := msgs[a], msgs[b]
			if x.Src != y.Src {
				return x.Src < y.Src
			}
			if x.Dst != y.Dst {
				return x.Dst < y.Dst
			}
			if x.Start != y.Start {
				return x.Start < y.Start
			}
			return x.Flits < y.Flits
		})
		out.Phases[i] = core.Phase{Name: ph.Name, Messages: msgs, Dynamic: ph.Dynamic}
	}
	return out
}

// oracleProgramKey hashes a program's per-phase pattern keys and
// attributes.
func oracleProgramKey(prog core.Program, pes int, topoName, schedName, faultsParam string) string {
	h := sha256.New()
	var scratch [8]byte
	writeStr := func(str string) {
		n := len(str)
		for i := 0; i < 8; i++ {
			scratch[i] = byte(n >> (8 * i))
		}
		h.Write(scratch[:])
		h.Write([]byte(str))
	}
	writeStr("ccomm-program-v1")
	writeStr(prog.Name)
	writeStr(strconv.Itoa(pes))
	writeStr(strconv.Itoa(len(prog.Phases)))
	for _, ph := range prog.Phases {
		triples := make([]request.Triple, len(ph.Messages))
		for i, m := range ph.Messages {
			triples[i] = request.Triple{Src: m.Src, Dst: m.Dst, Flits: m.Flits, Start: m.Start}
		}
		writeStr(oraclePatternKey(triples, topoName,
			"alg="+schedName,
			"faults="+faultsParam,
			"phase="+ph.Name,
			"dynamic="+strconv.FormatBool(ph.Dynamic),
		))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// oracleCanonicalTriples returns a sorted copy of the triples.
func oracleCanonicalTriples(ts []request.Triple) []request.Triple {
	out := make([]request.Triple, len(ts))
	copy(out, ts)
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Src != b.Src {
			return a.Src < b.Src
		}
		if a.Dst != b.Dst {
			return a.Dst < b.Dst
		}
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		return a.Flits < b.Flits
	})
	return out
}

// oraclePatternKey is request.PatternKey: a SHA-256 over the canonically
// ordered triples, the topology name and the parameters, each length- or
// count-prefixed.
func oraclePatternKey(triples []request.Triple, topology string, params ...string) string {
	h := sha256.New()
	var buf [8]byte
	writeInt := func(v int) {
		binary.LittleEndian.PutUint64(buf[:], uint64(int64(v)))
		h.Write(buf[:])
	}
	writeStr := func(s string) {
		writeInt(len(s))
		h.Write([]byte(s))
	}
	writeStr("ccomm-pattern-v1")
	writeStr(topology)
	writeInt(len(params))
	for _, p := range params {
		writeStr(p)
	}
	canon := oracleCanonicalTriples(triples)
	writeInt(len(canon))
	for _, t := range canon {
		writeInt(t.Src)
		writeInt(t.Dst)
		writeInt(t.Flits)
		writeInt(t.Start)
	}
	return hex.EncodeToString(h.Sum(nil))
}
