package server

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/metalog"
)

// keyReparses is what the result and plan caches rest on: the key of an
// accepted pattern is itself a pattern, with the same key and an equal body
// — so two texts that share a key share a parse.
func keyReparses(t *testing.T, pat metalog.Pattern) {
	t.Helper()
	again, err := metalog.ParsePattern(pat.Key)
	if err != nil {
		t.Fatalf("key %q of an accepted pattern does not parse: %v", pat.Key, err)
	}
	if again.Key != pat.Key || !reflect.DeepEqual(again.Body, pat.Body) {
		t.Fatalf("key %q parses to another pattern (key %q)", pat.Key, again.Key)
	}
}

// FuzzDecodeQuery exercises the /query request decoder — the surface raw
// client bytes cross before any worker slot is taken. The contract under
// fuzzing: decodeQueryRequest either returns a request or a typed apiError
// with a status and a code; it never panics, whatever the JSON shape or the
// MetaLog inside it (the MetaLog parser itself is additionally fuzzed by
// internal/metalog's FuzzParse). make fuzz-smoke gives this a short budget.
func FuzzDecodeQuery(f *testing.F) {
	seeds := []string{
		`{"query":"(x: Business; businessName: n) [: CONTROLS] (y: Business), x != y"}`,
		`{"query":"(x: Business)","limit":10}`,
		`{"query":""}`,
		`{"query":"((("}`,
		`{"query":"(x: Business)","limit":-5}`,
		`{"query":"(x: Business)","nope":true}`,
		`{"query":"(x: Business)"} trailing`,
		`{"query`,
		`[1,2,3]`,
		`null`,
		`"just a string"`,
		`{"query":"(x: B) ([: E])+ (y: B)"}`,
		`{"query":"(x: B; p: v), v > 1, v < "}`,
		`{"query":"` + strings.Repeat("(x: A),", 200) + `(y: B)"}`,
		"\xff\xfe{\"query\":\"(x: A)\"}",
		`{"limit":9223372036854775807,"query":"(x: A)"}`,
		// What the key must keep and what it must drop: blanks inside a
		// string constant, layout and a comment between tokens.
		`{"query":"(x: E; name: \"A  B\") % two blanks\n\t[: R]-  (y), x != y, c > -1e-3"}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, aerr := decodeQueryRequest(data)
		if (req == nil) == (aerr == nil) {
			t.Fatalf("decoder must return exactly one of request/error: req=%v err=%v", req, aerr)
		}
		if aerr != nil {
			if aerr.Status < 400 || aerr.Status > 599 {
				t.Fatalf("error status out of range: %d", aerr.Status)
			}
			if aerr.Code == "" {
				t.Fatal("error with empty code")
			}
			return
		}
		if req.Query == "" || req.Limit < 0 {
			t.Fatalf("decoder accepted invalid request: %+v", req)
		}
		keyReparses(t, req.pattern)
	})
}

// FuzzDecodeMutation exercises the /mutate request decoder — raw client
// bytes that become graph mutations. The contract: decodeMutateRequest
// either returns a non-empty batch of structurally valid ops or a typed
// apiError; it never panics. Deep validation (ref resolution, duplicate
// handles) is deliberately out of scope here — it runs in overlay.Apply
// against live state, and its failures must also never tear the serving
// snapshot (TestChaosMutateSweep). make fuzz-smoke gives this a short
// budget.
func FuzzDecodeMutation(f *testing.F) {
	seeds := []string{
		`{"ops":[{"op":"add_node","name":"h","labels":["Business"],"props":{"fiscalCode":{"kind":"string","str":"c"}}}]}`,
		`{"ops":[{"op":"add_edge","from":{"id":1},"to":{"name":"h"},"label":"OWNS","props":{"percentage":{"kind":"float","float":0.5}}}]}`,
		`{"ops":[{"op":"remove_node","node":{"id":3}}]}`,
		`{"ops":[{"op":"remove_edge","edge":7}]}`,
		`{"ops":[{"op":"set_node_prop","node":{"id":3},"key":"name","value":{"kind":"string","str":"x"}}]}`,
		`{"ops":[{"op":"set_node_prop","node":{"id":3},"key":"name"}]}`,
		`{"ops":[{"op":"del_node_prop","node":{"id":3},"key":"name"}]}`,
		`{"ops":[{"op":"add_label","node":{"id":3},"label":"Bank"}]}`,
		`{"ops":[{"op":"explode"}]}`,
		`{"ops":[]}`,
		`{"ops":[{"op":"add_node","props":{"k":{"kind":"complex"}}}]}`,
		`{"ops":[{"op":"add_node","props":{"k":{"kind":"int","int":9223372036854775807}}}]}`,
		`{"ops":null}`,
		`{"ops":[{"op":"add_node"},{"op":"add_node"}]} trailing`,
		`{"op":[{}]}`,
		`[]`,
		`null`,
		"\xff\xfe{\"ops\":[]}",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ops, aerr := decodeMutateRequest(data)
		if (ops == nil) == (aerr == nil) {
			t.Fatalf("decoder must return exactly one of batch/error: ops=%v err=%v", ops, aerr)
		}
		if aerr != nil {
			if aerr.Status < 400 || aerr.Status > 599 {
				t.Fatalf("error status out of range: %d", aerr.Status)
			}
			if aerr.Code == "" {
				t.Fatal("error with empty code")
			}
			return
		}
		if len(ops) == 0 || len(ops) > maxMutateOps {
			t.Fatalf("decoder accepted invalid batch size %d", len(ops))
		}
		for i, op := range ops {
			switch op.Kind {
			case "add_node", "add_edge", "remove_node", "remove_edge",
				"set_node_prop", "del_node_prop", "add_label":
			default:
				t.Fatalf("op %d: unvalidated kind %q", i, op.Kind)
			}
		}
	})
}

// FuzzExplain exercises the /explain request decoder with the same contract
// as FuzzDecodeQuery: any client bytes produce either a request or a typed
// apiError, never a panic, before the planner or a worker slot is touched.
// make fuzz-smoke gives this a short budget.
func FuzzExplain(f *testing.F) {
	seeds := []string{
		`{"query":"(x: Business; businessName: n) [: CONTROLS] (y: Business), x != y"}`,
		`{"query":"(x: Business)","run":true}`,
		`{"query":"(x: Business)","run":false}`,
		`{"query":""}`,
		`{"query":"((("}`,
		`{"query":"(x: Business)","limit":10}`,
		`{"run":true}`,
		`{"query":"(x: B) ([: E])+ (y: B)","run":true}`,
		`{"query`,
		`[1,2,3]`,
		`null`,
		`{"query":"` + strings.Repeat("(x: A),", 200) + `(y: B)"}`,
		"\xff\xfe{\"query\":\"(x: A)\"}",
		`{"query":"(x: E; name: \"A  B\") % two blanks\n\t[: R]-  (y), x != y, c > -1e-3","run":true}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, aerr := decodeExplainRequest(data)
		if (req == nil) == (aerr == nil) {
			t.Fatalf("decoder must return exactly one of request/error: req=%v err=%v", req, aerr)
		}
		if aerr != nil {
			if aerr.Status < 400 || aerr.Status > 599 {
				t.Fatalf("error status out of range: %d", aerr.Status)
			}
			if aerr.Code == "" {
				t.Fatal("error with empty code")
			}
			return
		}
		if req.Query == "" {
			t.Fatalf("decoder accepted invalid request: %+v", req)
		}
		keyReparses(t, req.pattern)
	})
}
