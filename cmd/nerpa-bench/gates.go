package main

import (
	"encoding/json"
	"fmt"
	"os"
	"strings"
)

// gate is one row of hack/gates.json: a number in a BENCH_*.json report
// held to a threshold.
type gate struct {
	File string `json:"file"`
	// Path addresses the number: dot-separated object keys, where
	// "rows[mode=wire]" selects the element of array "rows" whose "mode"
	// field is "wire". Booleans read as 0 and 1.
	Path string `json:"path"`
	// Rule is min or max (inclusive), or below (strict).
	Rule string `json:"rule"`
	// Value is the threshold: a number, or another path in the same
	// report, i.e. a control measured by the same run.
	Value any `json:"value"`
}

// loadGates reads the gates file.
func loadGates(path string) ([]gate, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var gates []gate
	if err := json.Unmarshal(data, &gates); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return gates, nil
}

// checkGates reads each report the gates name once, evaluates every gate
// against it, prints one line per gate, and reports whether all of them
// held.
func checkGates(gates []gate) bool {
	docs := map[string]any{}
	errs := map[string]error{}
	ok := true
	for _, g := range gates {
		if _, read := docs[g.File]; !read {
			docs[g.File], errs[g.File] = readReport(g.File)
		}
		if err := errs[g.File]; err != nil {
			fmt.Printf("FAIL %s %s: %v\n", g.File, g.Path, err)
			ok = false
			continue
		}
		line, held := g.eval(docs[g.File])
		if held {
			fmt.Println("ok  ", line)
		} else {
			fmt.Println("FAIL", line)
			ok = false
		}
	}
	return ok
}

func readReport(file string) (any, error) {
	data, err := os.ReadFile(file)
	if err != nil {
		return nil, err
	}
	var doc any
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", file, err)
	}
	return doc, nil
}

// eval judges one gate and renders its line.
func (g gate) eval(doc any) (string, bool) {
	name := g.File + " " + g.Path
	got, err := lookup(doc, g.Path)
	if err != nil {
		return fmt.Sprintf("%s: %v", name, err), false
	}
	var limit float64
	var limitText string
	switch v := g.Value.(type) {
	case float64:
		limit, limitText = v, fmt.Sprintf("%g", v)
	case string:
		if limit, err = lookup(doc, v); err != nil {
			return fmt.Sprintf("%s: threshold: %v", name, err), false
		}
		limitText = fmt.Sprintf("%s = %g", v, limit)
	default:
		return fmt.Sprintf("%s: value %v is neither a number nor a path", name, g.Value), false
	}
	var held bool
	switch g.Rule {
	case "min":
		held = got >= limit
	case "max":
		held = got <= limit
	case "below":
		held = got < limit
	default:
		return fmt.Sprintf("%s: unknown rule %q", name, g.Rule), false
	}
	return fmt.Sprintf("%s = %g (%s %s)", name, got, g.Rule, limitText), held
}

// lookup resolves a gate path inside a decoded report.
func lookup(doc any, path string) (float64, error) {
	cur := doc
	for _, seg := range strings.Split(path, ".") {
		key, sel, hasSel := strings.Cut(strings.TrimSuffix(seg, "]"), "[")
		obj, isObj := cur.(map[string]any)
		if !isObj || obj[key] == nil {
			return 0, fmt.Errorf("%q: no %q", path, key)
		}
		cur = obj[key]
		if !hasSel {
			continue
		}
		field, want, _ := strings.Cut(sel, "=")
		elems, _ := cur.([]any)
		cur = nil
		for _, e := range elems {
			if m, isObj := e.(map[string]any); isObj && fmt.Sprint(m[field]) == want {
				cur = e
				break
			}
		}
		if cur == nil {
			return 0, fmt.Errorf("%q: no element of %q with %s", path, key, sel)
		}
	}
	switch v := cur.(type) {
	case float64:
		return v, nil
	case bool:
		if v {
			return 1, nil
		}
		return 0, nil
	}
	return 0, fmt.Errorf("%q is not a number", path)
}
