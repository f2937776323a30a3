package jsonwire

import (
	"encoding/json"
	"strings"
	"testing"
)

// TestSkipDepth: Skip and Compact check nesting as encoding/json's scanner
// does, which accepts 10000 open brackets and rejects 10001, counting those
// of the enclosing values too.
func TestSkipDepth(t *testing.T) {
	fields := NewFields("known")
	for _, depth := range []int{maxDepth - 1, maxDepth, maxDepth + 1} {
		nested := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		for _, text := range []string{nested, `{"unknown":` + nested + `}`} {
			d := NewDecoder([]byte(text))
			var err error
			if text[0] == '[' {
				err = d.Skip()
			} else {
				err = d.Struct(&fields, func(int, []byte) error { return d.Skip() })
			}
			if err == nil {
				err = d.End()
			}
			valid := json.Valid([]byte(text))
			if (err == nil) != valid {
				t.Errorf("depth %d in %.12q: error %v, json.Valid %v", depth, text, err, valid)
			}
			if _, err := Compact(nil, []byte(text)); (err == nil) != valid {
				t.Errorf("depth %d in %.12q: Compact error %v, json.Valid %v", depth, text, err, valid)
			}
		}
	}
}

// TestFieldsFold: keys match field names exactly or under encoding/json's
// case folding, and nothing else matches.
func TestFieldsFold(t *testing.T) {
	f := NewFields("src", "kind", "messages")
	for key, want := range map[string]int{
		"src": 0, "SRC": 0, "sRc": 0, "ſrc": 0, "kind": 1, "KIND": 1, "\u212aind": 1,
		"meſſageſ": 2, "MESSAGES": 2, "srcx": -1, "sr": -1, "": -1, "ſ": -1,
		strings.Repeat("s", 100): -1,
	} {
		if got := f.Index([]byte(key)); got != want {
			t.Errorf("%q: field %d, want %d", key, got, want)
		}
	}
}
