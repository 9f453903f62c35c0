package main

import (
	"encoding/json"
	"testing"
)

func TestGateEval(t *testing.T) {
	decode := func(s string) any {
		var v any
		if err := json.Unmarshal([]byte(s), &v); err != nil {
			t.Fatal(err)
		}
		return v
	}
	doc := decode(`{"n": 10, "limit": 10, "ok": true, "rows": [{"mode": "a+b", "v": 5}, {"mode": "wire", "v": 90}]}`)
	for _, tc := range []struct {
		path, rule string
		value      any
		held       bool
	}{
		{"n", "min", 10.0, true},
		{"n", "min", 10.5, false},
		{"n", "max", 10.0, true},
		{"n", "max", 9.0, false},
		{"n", "max", "limit", true},
		{"n", "below", "limit", false},
		{"rows[mode=a+b].v", "below", "n", true},
		{"n", "below", "absent", false}, // a missing same-run control fails its gate
		{"ok", "min", 1.0, true},
		{"rows[mode=a+b].v", "max", 5.0, true},
		{"rows[mode=gone].v", "max", 100.0, false}, // a missing row fails its gate
		{"absent", "min", 0.0, false},
		{"n", "about", 10.0, false},
		{"n", "max", []any{}, false},
	} {
		g := gate{File: "f.json", Path: tc.path, Rule: tc.rule, Value: tc.value}
		if line, held := g.eval(doc); held != tc.held {
			t.Errorf("%s %s %v: held = %v, want %v (%s)", tc.path, tc.rule, tc.value, held, tc.held, line)
		}
	}
}
