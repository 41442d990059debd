package api

import (
	"bytes"
	"encoding/json"
	"net/http/httptest"
	"testing"
)

// FuzzDecodeJSON checks the request-body decoder of every JSON route: it never
// panics, and a body it accepts is one valid JSON document, so trailing data
// of any shape, a stray closing '}' or ']' included, is refused.
func FuzzDecodeJSON(f *testing.F) {
	for _, seed := range []string{
		`{"request_id":"label/1","values":{"ok":true}}`,
		`{"relation":"item","values":[1,"two",3.5,null]}`,
		`{"request_id":"x","values":{}}}`,
		`{"request_id":"x","values":{}}]`,
		`{"request_id":"x","values":{}} {}`,
		" {}\n\t",
		`{"values":{"a":[1,{"b":null}]}} extra`,
		"null",
		"",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, into := range []any{&AnswerRequest{}, &FactRequest{}} {
			r := httptest.NewRequest("POST", "/", bytes.NewReader(body))
			if decodeJSON(r, into) == nil && !json.Valid(body) {
				t.Fatalf("decodeJSON accepted %q into %T, which is not one valid JSON document", body, into)
			}
		}
	})
}
