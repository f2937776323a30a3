package trace

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// decodeSeeds are the inputs where a hand-written decoder most easily
// parts from encoding/json.
var decodeSeeds = []string{
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	// Case-insensitive keys, the Kelvin sign and the long s included.
	`{"NAME":"p","Pes":4,"pHaSeS":[{"Name":"a","DYNAMIC":true,"Messages":[{"SRC":0,"Dst":1,"FLITS":2,"START":3}]}]}`,
	"{\"name\":\"p\",\"pes\":4,\"phases\":[{\"name\":\"a\",\"meſſageſ\":[{\"ſrc\":0,\"dst\":1,\"flits\":2}]}]}",
	"{\"name\":\"p\",\"pes\":4,\"phases\":[{\"name\":\"a\",\"messages\":[{\"src\":0,\"dst\":1,\"flits\":2,\"\u212aey\":1}]}]}",
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	// Unknown fields, at every level.
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}],"extra":1}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","x":null,"messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2,"":1}]}]}`,
	// Duplicates: last wins, and a repeated list merges into the first.
	`{"name":"d","name":"e","pes":4,"pes":8,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":1,"flits":3}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2,"start":5},{"src":2,"dst":3,"flits":1}],"messages":[{"src":1,"dst":2}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2},{"src":2,"dst":3,"flits":1}],"messages":[null],"messages":[null,null]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}],"messages":[],"messages":[null]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}],"phases":[{"dynamic":true}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}],"phases":null}`,
	// null leaves a field as it was.
	`{"name":"p","pes":4,"pes":null,"phases":[{"name":"a","dynamic":null,"messages":[{"src":0,"dst":1,"flits":2,"start":null}]}]}`,
	`null`, ` null `, `{"name":null,"pes":2,"phases":[null]}`,
	// Integers only, within int's range.
	`{"name":"p","pes":4.0,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":1e2}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":-0,"dst":1,"flits":9223372036854775807,"start":0}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":9223372036854775808}]}]}`,
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":-9223372036854775808}]}]}`,
	`{"name":"p","pes":04,"phases":[]}`, `{"name":"p","pes":"4","phases":[]}`, `{"name":"p","pes":true}`,
	// Strings: escapes, surrogate pairs, lone surrogates, invalid UTF-8,
	// and what the encoder escapes.
	`{"name":"\u0000😀\ud83dA\ude00x","pes":4,"phases":[{"name":"\t\/\"\\\b\f\n\r","messages":[{"src":2,"dst":3,"flits":1}]}]}`,
	"{\"name\":\"a<b&c>\u2028\u2029\xff\xc3\",\"pes\":4,\"phases\":[{\"name\":\"\xed\xa0\x80\",\"messages\":[{\"src\":2,\"dst\":3,\"flits\":1}]}]}",
	`{"name":"\x","pes":4}`, "{\"name\":\"a\x01\",\"pes\":4}", `{"name":"\ud83d\u12","pes":4}`,
	// Syntax.
	`{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2},]}]}`,
	`{"name":"p","pes":4,}`, `{`, ``, ` `, `[]`, `"doc"`, `{"name":"p" "pes":4}`, `{"name":"p","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]`,
	// Data after the document.
	`{"name":"t","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}{"again":true}`,
	`{"name":"t","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]} garbage`,
	"{\"name\":\"t\",\"pes\":4,\"phases\":[{\"name\":\"a\",\"messages\":[{\"src\":0,\"dst\":1,\"flits\":2}]}]} \r\n\t",
}

// trailingData reports whether data holds a complete JSON value followed by
// something other than whitespace: the one input the oracle accepts and
// Decode must not.
func trailingData(data []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(data))
	var v json.RawMessage
	if dec.Decode(&v) != nil {
		return false
	}
	rest := data[dec.InputOffset():]
	return len(bytes.TrimLeft(rest, " \t\r\n")) > 0
}

// FuzzDecode holds Decode to the encoding/json oracle: both accept or both
// reject (apart from data after the document, which only Decode rejects),
// accepted documents are deeply equal, and AppendJSON writes the bytes
// json.Encoder writes for them.
func FuzzDecode(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := Decode(data)
		want, werr := oracleRead(bytes.NewReader(data))
		if werr == nil && trailingData(data) {
			if err == nil {
				t.Fatalf("%q: accepted data after the document", data)
			}
			return
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: Decode error %v, encoding/json error %v", data, err, werr)
		}
		if err != nil {
			return
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded\n%#v\nencoding/json decoded\n%#v", data, got, want)
		}
		var enc bytes.Buffer
		if err := json.NewEncoder(&enc).Encode(got); err != nil {
			t.Fatal(err)
		}
		if b := AppendJSON(nil, got); !bytes.Equal(b, enc.Bytes()) {
			t.Fatalf("%q: AppendJSON wrote\n%s\njson.Encoder wrote\n%s", data, b, enc.Bytes())
		}
	})
}

// TestReadRejectsTrailingData: a second document or stray bytes after the
// first are an error, where encoding/json's Decoder stopped at the first
// value and served it; trailing whitespace is still fine.
func TestReadRejectsTrailingData(t *testing.T) {
	doc := `{"name":"t","pes":4,"phases":[{"name":"a","messages":[{"src":0,"dst":1,"flits":2}]}]}`
	for _, tail := range []string{`{"again":true}`, doc, "garbage", " x", "]"} {
		if _, err := Read(strings.NewReader(doc + tail)); err == nil {
			t.Errorf("accepted the document followed by %q", tail)
		}
		if _, err := oracleRead(strings.NewReader(doc + tail)); err != nil {
			t.Errorf("the oracle rejected the document followed by %q: %v", tail, err)
		}
	}
	if _, err := Read(strings.NewReader(doc + " \n\t\r")); err != nil {
		t.Errorf("rejected trailing whitespace: %v", err)
	}
}
