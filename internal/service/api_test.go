package service

import (
	"encoding/json"
	"strconv"
	"testing"
)

// FuzzPairUnmarshal runs Pair's hand-written decoder against encoding/json
// decoding into [2]int. On input encoding/json accepts, the two agree, or
// the new decoder rejects an input that is not exactly two integers (a
// shorter or longer array, a fraction). null leaves the pair as it was.
// Input that is not JSON is always rejected, and a rejection writes nothing.
func FuzzPairUnmarshal(f *testing.F) {
	for _, seed := range []string{
		`[1,2]`, " [ -3 ,\t4 ]\n", `null`, ` null `, `[0,-0]`,
		`[9223372036854775807,-9223372036854775808]`, `[9223372036854775808,0]`,
		`[1]`, `[1,2,3]`, `[]`, `[1.0,2]`, `[1e2,2]`, `[01,2]`, `[-,2]`,
		`[null,1]`, `[[1],2]`, `"[1,2]"`, `{}`, `[1,2]x`, `nul`, `nullnull`,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		sentinel := Pair{7, -9}
		got := sentinel
		err := got.UnmarshalJSON(b)
		if err != nil && got != sentinel {
			t.Fatalf("%q: rejected but wrote %v", b, got)
		}
		if !json.Valid(b) {
			if err == nil {
				t.Fatalf("%q is not JSON but decoded to %v", b, got)
			}
			return
		}
		want := [2]int(sentinel)
		stdErr := json.Unmarshal(b, &want)
		switch {
		case err == nil && stdErr != nil:
			t.Fatalf("%q: decoded to %v, encoding/json rejects it: %v", b, got, stdErr)
		case err == nil && [2]int(got) != want:
			t.Fatalf("%q: decoded to %v, encoding/json to %v", b, got, want)
		case err != nil && stdErr == nil && twoInts(b):
			t.Fatalf("%q: rejected two integers encoding/json decodes to %v: %v", b, want, err)
		}
	})
}

// twoInts reports whether b is a JSON array of exactly two integer
// literals in int's range.
func twoInts(b []byte) bool {
	var elems []json.RawMessage
	if json.Unmarshal(b, &elems) != nil || len(elems) != 2 {
		return false
	}
	for _, e := range elems {
		if _, err := strconv.ParseInt(string(e), 10, strconv.IntSize); err != nil {
			return false
		}
	}
	return true
}
