package service

import (
	"encoding/json"
	"reflect"
	"testing"
)

// replySeeds are /compile replies and /session lines at the places a
// hand-written decoder most easily parts from encoding/json.
var replySeeds = []string{
	`{"key":"ab","cache":"hit","result":{"program":"p","pes":4,"topology":"torus-2x2","scheduler":"combined","max_degree":1,"reconfigurations":1,"total_slots":3,"phases":[{"name":"a","algorithm":"aapc","degree":1,"predicted_slots":2,"configs":[[[0,1],[2,3]]]}]}}`,
	`{"key":"ab","cache":"miss","result":{"program":"a<b&c>\u2028\u0000","faults":{"links":[3,1],"nodes":[]},"phases":[{"name":"x","dynamic":true,"fallback":true,"configs":[[[0,1]],[],null,[[1,0],null]]}]}}`,
	// Case-insensitive keys, escaped keys, the Kelvin sign and the long s.
	"{\"KEY\":\"ab\",\"Cache\":\"hit\",\"ReSuLt\":{\"\\u0070rogram\":\"p\",\"\u017Fcheduler\":\"s\",\"PHASES\":[{\"CONFIGS\":[[[1,2]]]}]}}",
	"{\"\u212Aey\":\"ab\",\"result\":{}}",
	// Unknown fields, skipped at every level.
	`{"key":"ab","extra":[{"deep":[1,2.5e3,true,null,"s"]}],"result":{"x":{},"phases":[{"y":-0.1,"configs":[]}]}}`,
	`{"key":"ab","extra":[[[[[[[[]]]]]]]],"result":null}`,
	// Duplicates: the last "result" wins and is decoded alone.
	`{"key":"ab","result":{"phases":[{"name":"a","configs":[[[0,1],[2,3]]]}]},"result":{"pes":2}}`,
	`{"key":"ab","result":{"pes":"bad"},"result":{"pes":2}}`,
	`{"key":"ab","result":{"pes":2},"result":{"pes":"bad"}}`,
	`{"key":"ab","result":{"pes":2},"result":{"pes":[}}`,
	`{"result":{"phases":[{"configs":[[[0,1],[2,3]],[[4,5]]],"configs":[[null,[6,7]],[[8,9],[1,1]]]}],"phases":[{"configs":[[null]]}]}}`,
	`{"result":{"faults":{"links":[1,2]},"faults":{"links":[null]},"faults":null}}`,
	// null leaves a field as it was.
	`{"key":"ab","key":null,"cache":null,"result":{"pes":4,"pes":null,"phases":null}}`,
	`null`, `{}`, `{"key":"ab"}`, `{"result":null}`,
	// Integers only, pairs exactly two of them.
	`{"result":{"pes":2.0}}`, `{"result":{"pes":1e2}}`, `{"result":{"pes":9223372036854775808}}`,
	`{"result":{"phases":[{"configs":[[[0,1,2]]]}]}}`, `{"result":{"phases":[{"configs":[[[0]]]}]}}`,
	`{"result":{"phases":[{"configs":[[[0.0,1]]]}]}}`, `{"result":{"phases":[{"configs":[[{"a":1}]]}]}}`,
	// Strings.
	`{"key":"\ud83d\ude00\ud83d","cache":"\u00e9\/","result":{"program":"\ud800\udc00\udc00"}}`,
	"{\"key\":\"\xff\xfe\",\"result\":{}}",
	// Syntax and trailing data.
	`{"key":"ab","result":{}}{"key":"cd"}`, `{"key":"ab","result":{}} x`, `{"key":"ab","result":{}}  ` + "\n",
	`{"key":"ab",}`, `{"key":"ab","result":{"phases":[1,]}}`, `[`, ``, `"s"`, `{"key":01}`,
	// /session chunks.
	`{"type":"session","key":"ab","program":"p","pes":64,"topology":"torus-8x8","scheduler":"combined","phases":3}`,
	`{"type":"phase","index":1,"decision":"patch","cache":"patched","stall":3,"hidden":2,"serialized_stall":5,"result":{"name":"a","algorithm":"combined","degree":2,"predicted_slots":9,"configs":[[[0,1]],[[1,0]]]}}`,
	`{"type":"phase","result":{"name":"a"},"result":{"degree":2},"result":null,"result":{"configs":[]}}`,
	`{"type":"done","total_slots":10,"serialized_slots":12,"baseline_slots":20,"reconfigurations":2,"pipelined_compiles":1,"decisions":{"keep":1,"patch":null},"decisions":{"recompile":2}}`,
	`{"type":"done","decisions":{},"decisions":null}`, `{"type":"done","decisions":[]}`,
	`{"type":"error","error":"boom","ERROR":"late"}`,
}

// FuzzDecodeResponse holds DecodeResponse to json.Unmarshal of a Response
// and then of its Result, and DecodeSessionChunk to json.Unmarshal of a
// SessionChunk: they accept and reject alike, and what they accept decodes
// to equal values, Response.Result holding the bytes the RawMessage holds.
func FuzzDecodeResponse(f *testing.F) {
	for _, s := range replySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		resp, res, err := DecodeResponse(data)
		var wantResp Response
		var wantRes Result
		werr := json.Unmarshal(data, &wantResp)
		if werr == nil {
			werr = json.Unmarshal(wantResp.Result, &wantRes)
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: DecodeResponse error %v, encoding/json error %v", data, err, werr)
		}
		if err == nil && (!reflect.DeepEqual(resp, wantResp) || !reflect.DeepEqual(res, wantRes)) {
			t.Fatalf("%q: decoded\n%#v\n%#v\nencoding/json decoded\n%#v\n%#v", data, resp, res, wantResp, wantRes)
		}

		chunk, err := DecodeSessionChunk(data)
		var wantChunk SessionChunk
		werr = json.Unmarshal(data, &wantChunk)
		if (err == nil) != (werr == nil) {
			t.Fatalf("%q: DecodeSessionChunk error %v, encoding/json error %v", data, err, werr)
		}
		if err == nil && !reflect.DeepEqual(chunk, wantChunk) {
			t.Fatalf("%q: decoded chunk\n%#v\nencoding/json decoded\n%#v", data, chunk, wantChunk)
		}
	})
}

// TestConfigsAreCapped: configs share one backing array, so appending to
// one must not write into the next.
func TestConfigsAreCapped(t *testing.T) {
	_, res, err := DecodeResponse([]byte(`{"key":"k","cache":"hit","result":{"phases":[{"configs":[[[0,1]],[[2,3]]]}]}}`))
	if err != nil {
		t.Fatal(err)
	}
	cfgs := res.Phases[0].Configs
	_ = append(cfgs[0], Pair{9, 9})
	if cfgs[1][0] != (Pair{2, 3}) {
		t.Fatalf("appending to config 0 overwrote config 1: %v", cfgs[1])
	}
}
