package core

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/codegen"
	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/p4rt"
)

func TestRenderMatches(t *testing.T) {
	b := &codegen.OutputTableBinding{
		Keys: []codegen.KeyBinding{
			{Name: "port", Match: p4.MatchExact},
			{Name: "dst", Match: p4.MatchLPM},
			{Name: "mac", Match: p4.MatchTernary},
			{Name: "vlan", Match: p4.MatchOptional},
		},
		HasPriority: true,
	}
	e := p4rt.TableEntry{
		Matches: []p4.FieldMatch{
			{Value: 7},
			{Value: 0x0a000000, PrefixLen: 8},
			{Value: 0xff, Mask: 0xfff},
			{Wildcard: true},
		},
		Priority: 5,
	}
	got := renderMatches(b, e)
	want := "port=7, dst=167772160/8, mac=255&0xfff, vlan=*;prio=5"
	if got != want {
		t.Fatalf("renderMatches = %q, want %q", got, want)
	}

	e.Matches[3] = p4.FieldMatch{Value: 10}
	if got := renderMatches(b, e); !strings.Contains(got, "vlan=10") {
		t.Fatalf("non-wildcard optional renders as %q", got)
	}
}

func TestProvStateEviction(t *testing.T) {
	p := newProvState(4)
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("k=%d", i)
		p.settle([]pendingOrigin{{entryKey{table: "t", match: k}, &EntryOrigin{Table: "t", Matches: k}}})
	}
	if n := len(p.entries); n != 4 {
		t.Fatalf("entries = %d, want capacity 4", n)
	}
	if p.evicted != 6 {
		t.Fatalf("evicted = %d, want 6", p.evicted)
	}
	// The newest survive, the oldest are gone.
	if _, err := p.findEntry("t", "k=9"); err != nil {
		t.Fatalf("newest entry evicted: %v", err)
	}
	if _, err := p.findEntry("t", "k=0"); !errors.Is(err, obs.ErrNotFound) {
		t.Fatalf("oldest entry still found (err=%v)", err)
	}
}

func TestProvStateFindEntry(t *testing.T) {
	p := newProvState(0)
	p.settle([]pendingOrigin{
		{entryKey{device: "sw0", table: "fwd", match: "dst=1"},
			&EntryOrigin{Table: "fwd", Device: "sw0", Matches: "dst=1", Record: "(1, 2)"}},
		{entryKey{device: "sw0", table: "fwd", match: "dst=2"},
			&EntryOrigin{Table: "fwd", Device: "sw0", Matches: "dst=2", Record: "(2, 3)"}},
		{entryKey{device: "sw0", table: "acl", match: "src=9"},
			&EntryOrigin{Table: "acl", Device: "sw0", Matches: "src=9", Record: "(9)"}},
	})

	// Unique table needs no key.
	if o, err := p.findEntry("acl", ""); err != nil || o.Matches != "src=9" {
		t.Fatalf("findEntry(acl, \"\") = %v, %v", o, err)
	}
	// Ambiguous table without key is an error (but not a 404).
	if _, err := p.findEntry("fwd", ""); err == nil || errors.Is(err, obs.ErrNotFound) {
		t.Fatalf("ambiguous lookup err = %v, want non-404 error", err)
	}
	// Exact match wins.
	if o, err := p.findEntry("fwd", "dst=1"); err != nil || o.Record != "(1, 2)" {
		t.Fatalf("exact lookup = %v, %v", o, err)
	}
	// Substring on the source record resolves too.
	if o, err := p.findEntry("fwd", "(2, 3)"); err != nil || o.Matches != "dst=2" {
		t.Fatalf("record lookup = %v, %v", o, err)
	}
	// Unknown table and unknown key are 404s.
	if _, err := p.findEntry("nope", ""); !errors.Is(err, obs.ErrNotFound) {
		t.Fatalf("unknown table err = %v", err)
	}
	if _, err := p.findEntry("fwd", "dst=42"); !errors.Is(err, obs.ErrNotFound) {
		t.Fatalf("unknown key err = %v", err)
	}

	// Dropping an entry makes it unfindable and re-noting replaces it.
	p.settle([]pendingOrigin{{key: entryKey{device: "sw0", table: "acl", match: "src=9"}}})
	if _, err := p.findEntry("acl", ""); !errors.Is(err, obs.ErrNotFound) {
		t.Fatalf("dropped entry still found (err=%v)", err)
	}
}

func TestProvStateInputOrigins(t *testing.T) {
	p := newProvState(2)
	s := &step{prov: p}
	rec := func(k string) value.Record { return value.Record{value.String(k)} }
	note := func(k string, txn uint64, insert bool) {
		s.noteInputs([]event{{source: "ovsdb", txnID: txn,
			updates: []engine.Update{{Relation: "Port", Rec: rec(k), Insert: insert}}}})
	}
	lookup := func(k string) (inputOrigin, bool) {
		o, ok := p.inputs[inputKey("Port", rec(k).Key())]
		return o, ok
	}
	note("k1", 7, true)
	if o, ok := lookup("k1"); !ok || o.txnID != 7 {
		t.Fatalf("origin of k1 = %+v, %v", o, ok)
	}
	// Re-noting the same record updates in place without eviction.
	note("k1", 8, true)
	note("k2", 9, true)
	if o, _ := lookup("k1"); o.txnID != 8 {
		t.Fatalf("re-note did not update: %+v", o)
	}
	// Third distinct record evicts the oldest.
	note("k3", 10, true)
	if _, ok := lookup("k1"); ok {
		t.Fatal("oldest input origin not evicted")
	}
	note("k2", 11, false)
	if _, ok := lookup("k2"); ok {
		t.Fatal("dropped input origin still present")
	}
}
