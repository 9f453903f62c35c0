package p4

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
)

// lookupProgram builds a one-table program whose key layout mixes every
// non-exact match kind, for exercising the tuple-space index.
func lookupProgram(keys []TableKey) *Program {
	return &Program{
		Name: "lookup_bench",
		Headers: []*HeaderType{
			{Name: "h", Fields: []HeaderField{
				{Name: "f32", Bits: 32}, {Name: "f16", Bits: 16},
				{Name: "f8", Bits: 8}, {Name: "f8b", Bits: 8},
			}},
		},
		Parser:  []*ParserState{{Name: "start", Extract: "h", Next: "accept"}},
		Actions: []*Action{{Name: "nop", Body: nil}},
		Tables: []*Table{
			{Name: "t", Keys: keys, Actions: []string{"nop"}},
		},
		Ingress:  &Control{Name: "ingress", Apply: []ControlStmt{&ApplyTable{Table: "t"}}},
		Deparser: []string{"h"},
	}
}

func mustRuntime(t testing.TB, p *Program) *Runtime {
	t.Helper()
	rt, err := NewRuntime(p)
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return rt
}

// randomEntry draws one entry consistent with the key layout. Small value
// domains and few priorities force collisions, tie-breaks, and overlapping
// masks.
func randomEntry(rng *rand.Rand, keys []TableKey) Entry {
	e := Entry{Action: "nop", Priority: rng.Intn(4)}
	for _, k := range keys {
		var m FieldMatch
		switch k.Match {
		case MatchExact:
			m.Value = rng.Uint64() & maskBits(k.Bits) & 0xf
		case MatchLPM:
			m.PrefixLen = rng.Intn(k.Bits + 1)
			m.Value = rng.Uint64() & maskBits(k.Bits)
		case MatchTernary:
			m.Mask = rng.Uint64() & maskBits(k.Bits)
			if rng.Intn(4) == 0 {
				m.Mask = 0xff00 & maskBits(k.Bits) // recurring mask class
			}
			m.Value = rng.Uint64() & maskBits(k.Bits)
		case MatchOptional:
			m.Wildcard = rng.Intn(2) == 0
			m.Value = rng.Uint64() & maskBits(k.Bits) & 0x7
		}
		e.Matches = append(e.Matches, m)
	}
	return e
}

// TestLookupMatchesLinearScan is the naive-equivalence property test: over
// randomized table states (random inserts, deletes, and replacements), the
// tuple-space lookup must agree with the reference linear scan — same
// hit/miss outcome, and on hits the same (priority, total LPM prefix)
// rank, with the returned entry actually matching the probed values. Exact
// entry identity is not compared because the linear scan's tie-break among
// equally-ranked entries is map-iteration-order dependent.
func TestLookupMatchesLinearScan(t *testing.T) {
	layouts := [][]TableKey{
		{{Ref: FieldRef{"h", "f32"}, Match: MatchLPM, Bits: 32}},
		{{Ref: FieldRef{"h", "f16"}, Match: MatchTernary, Bits: 16},
			{Ref: FieldRef{"h", "f8"}, Match: MatchOptional, Bits: 8}},
		{{Ref: FieldRef{"h", "f8b"}, Match: MatchExact, Bits: 8},
			{Ref: FieldRef{"h", "f16"}, Match: MatchLPM, Bits: 16},
			{Ref: FieldRef{"h", "f8"}, Match: MatchTernary, Bits: 8}},
	}
	for li, keys := range layouts {
		keys := keys
		t.Run(fmt.Sprintf("layout%d", li), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(42 + li)))
			rt := mustRuntime(t, lookupProgram(keys))
			ts := rt.tables["t"]
			var installed []Entry
			for step := 0; step < 2000; step++ {
				switch {
				case len(installed) == 0 || rng.Intn(3) != 0:
					e := randomEntry(rng, keys)
					if err := rt.InsertEntry("t", e); err != nil {
						t.Fatalf("InsertEntry: %v", err)
					}
					// Inserting identical matches replaces: keep at most one
					// installed record per entry key.
					k := string(appendEntryKey(nil, e.Matches))
					kept := installed[:0]
					for _, old := range installed {
						if string(appendEntryKey(nil, old.Matches)) != k {
							kept = append(kept, old)
						}
					}
					installed = append(kept, e)
				default:
					i := rng.Intn(len(installed))
					if err := rt.DeleteEntry("t", installed[i].Matches); err != nil {
						t.Fatalf("DeleteEntry: %v", err)
					}
					installed[i] = installed[len(installed)-1]
					installed = installed[:len(installed)-1]
				}
				// Probe with a mix of fresh random values and values taken
				// from installed entries (guaranteed-hit bias).
				for probe := 0; probe < 4; probe++ {
					vals := make([]uint64, len(keys))
					if probe%2 == 0 && len(installed) > 0 {
						src := installed[rng.Intn(len(installed))]
						for i := range vals {
							vals[i] = src.Matches[i].Value
						}
					} else {
						for i, k := range keys {
							vals[i] = rng.Uint64() & maskBits(k.Bits)
						}
					}
					got := ts.lookup(vals)
					want := ts.lookupLinear(vals)
					if (got == nil) != (want == nil) {
						t.Fatalf("step %d vals %x: lookup=%+v linear=%+v", step, vals, got, want)
					}
					if got == nil {
						continue
					}
					if !ts.matches(got, vals) {
						t.Fatalf("step %d vals %x: lookup returned non-matching entry %+v", step, vals, got)
					}
					if got.Priority != want.Priority || ts.totalPrefix(got) != ts.totalPrefix(want) {
						t.Fatalf("step %d vals %x: rank mismatch: lookup (pri=%d,prefix=%d) linear (pri=%d,prefix=%d)",
							step, vals, got.Priority, ts.totalPrefix(got), want.Priority, ts.totalPrefix(want))
					}
				}
			}
		})
	}
}

// TestLookupDeleteRecomputesGroupPriority pins the maxPriority-recompute
// path: deleting the highest-priority entry of a group must let a
// lower-priority group win again.
func TestLookupDeleteRecomputesGroupPriority(t *testing.T) {
	keys := []TableKey{{Ref: FieldRef{"h", "f16"}, Match: MatchTernary, Bits: 16}}
	rt := mustRuntime(t, lookupProgram(keys))
	ts := rt.tables["t"]
	hi := Entry{Matches: []FieldMatch{{Value: 0x1200, Mask: 0xff00}}, Priority: 10, Action: "nop"}
	lo := Entry{Matches: []FieldMatch{{Value: 0x0012, Mask: 0x00ff}}, Priority: 5, Action: "nop"}
	if err := rt.InsertEntry("t", hi); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertEntry("t", lo); err != nil {
		t.Fatal(err)
	}
	if e := ts.lookup([]uint64{0x1212}); e == nil || e.Priority != 10 {
		t.Fatalf("want hi-priority entry, got %+v", e)
	}
	if err := rt.DeleteEntry("t", hi.Matches); err != nil {
		t.Fatal(err)
	}
	if e := ts.lookup([]uint64{0x1212}); e == nil || e.Priority != 5 {
		t.Fatalf("after delete want lo-priority entry, got %+v", e)
	}
}

// benchTable installs n entries into a fresh runtime and returns the table
// state plus probe values drawn from the installed population.
func benchTable(b *testing.B, keys []TableKey, n int, gen func(rng *rand.Rand, i int) Entry) (*tableState, [][]uint64) {
	b.Helper()
	rt := mustRuntime(b, lookupProgram(keys))
	rng := rand.New(rand.NewSource(7))
	probes := make([][]uint64, 0, n)
	for i := 0; rt.EntryCount("t") < n; i++ {
		e := gen(rng, i)
		if err := rt.InsertEntry("t", e); err != nil {
			b.Fatalf("InsertEntry: %v", err)
		}
		vals := make([]uint64, len(keys))
		for j := range vals {
			vals[j] = e.Matches[j].Value
		}
		probes = append(probes, vals)
	}
	return rt.tables["t"], probes
}

// BenchmarkLPMLookup measures longest-prefix lookup cost at 100/1k/10k
// routes. Tuple-space search bounds the cost by the number of distinct
// prefix lengths (≤25 here), so ns/op should stay flat as the table grows.
func BenchmarkLPMLookup(b *testing.B) {
	keys := []TableKey{{Ref: FieldRef{"h", "f32"}, Match: MatchLPM, Bits: 32}}
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ts, probes := benchTable(b, keys, n, func(rng *rand.Rand, i int) Entry {
				plen := 8 + rng.Intn(25)
				return Entry{
					Matches: []FieldMatch{{Value: rng.Uint64() & maskBits(32), PrefixLen: plen}},
					Action:  "nop",
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ts.lookup(probes[i%len(probes)]) == nil {
					b.Fatal("expected hit")
				}
			}
		})
	}
}

// BenchmarkTernaryLookup measures ternary+optional lookup at 100/1k/10k
// entries across a bounded set of mask classes (the realistic ACL shape:
// many rules, few distinct masks).
func BenchmarkTernaryLookup(b *testing.B) {
	keys := []TableKey{
		{Ref: FieldRef{"h", "f32"}, Match: MatchTernary, Bits: 32},
		{Ref: FieldRef{"h", "f8"}, Match: MatchOptional, Bits: 8},
	}
	maskClasses := []uint64{0xffffffff, 0xffffff00, 0xffff0000, 0xff000000, 0xfffff000, 0xffffffc0, 0xfff00000, 0xffffcc00}
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ts, probes := benchTable(b, keys, n, func(rng *rand.Rand, i int) Entry {
				return Entry{
					Matches: []FieldMatch{
						{Value: rng.Uint64() & maskBits(32), Mask: maskClasses[rng.Intn(len(maskClasses))]},
						{Value: uint64(rng.Intn(256)), Wildcard: rng.Intn(2) == 0},
					},
					Priority: rng.Intn(8),
					Action:   "nop",
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ts.lookup(probes[i%len(probes)])
			}
		})
	}
}

// BenchmarkLinearLookupBaseline is the pre-index reference scan at the
// same sizes, for before/after comparison in EXPERIMENTS.md.
func BenchmarkLinearLookupBaseline(b *testing.B) {
	keys := []TableKey{{Ref: FieldRef{"h", "f32"}, Match: MatchLPM, Bits: 32}}
	for _, n := range []int{100, 1000, 10000} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			ts, probes := benchTable(b, keys, n, func(rng *rand.Rand, i int) Entry {
				plen := 8 + rng.Intn(25)
				return Entry{
					Matches: []FieldMatch{{Value: rng.Uint64() & maskBits(32), PrefixLen: plen}},
					Action:  "nop",
				}
			})
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if ts.lookupLinear(probes[i%len(probes)]) == nil {
					b.Fatal("expected hit")
				}
			}
		})
	}
}

// lookupLinear is the reference O(entries) scan the tuple-space lookup
// is held to.
func (ts *tableState) lookupLinear(vals []uint64) *entry {
	if ts.allExact {
		return ts.lookup(vals)
	}
	var best *entry
	bestPrefix := -1
	for _, e := range ts.entries {
		if !ts.matches(e, vals) {
			continue
		}
		if best == nil {
			best = e
			bestPrefix = ts.totalPrefix(e)
			continue
		}
		// Priority first, then total LPM prefix length.
		if e.Priority > best.Priority ||
			e.Priority == best.Priority && ts.totalPrefix(e) > bestPrefix {
			best = e
			bestPrefix = ts.totalPrefix(e)
		}
	}
	return best
}

func (ts *tableState) matches(e *entry, vals []uint64) bool {
	for i, k := range ts.table.Keys {
		m := e.Matches[i]
		v := vals[i]
		switch k.Match {
		case MatchExact:
			if v != m.Value {
				return false
			}
		case MatchLPM:
			shift := uint(k.Bits - m.PrefixLen)
			if m.PrefixLen == 0 {
				continue
			}
			if v>>shift != m.Value>>shift {
				return false
			}
		case MatchTernary:
			if v&m.Mask != m.Value&m.Mask {
				return false
			}
		case MatchOptional:
			if !m.Wildcard && v != m.Value {
				return false
			}
		}
	}
	return true
}

// TestEntryLookupZeroAlloc: finding an installed entry by its matches,
// and a delete that finds none, build no key string, on an all-exact
// table and on a ternary one.
func TestEntryLookupZeroAlloc(t *testing.T) {
	for name, keys := range map[string][]TableKey{
		"exact": {{Ref: FieldRef{"h", "f32"}, Match: MatchExact, Bits: 32},
			{Ref: FieldRef{"h", "f16"}, Match: MatchExact, Bits: 16}},
		"ternary": {{Ref: FieldRef{"h", "f32"}, Match: MatchExact, Bits: 32},
			{Ref: FieldRef{"h", "f16"}, Match: MatchTernary, Bits: 16}},
	} {
		t.Run(name, func(t *testing.T) {
			rt := mustRuntime(t, lookupProgram(keys))
			installed := []FieldMatch{{Value: 7}, {Value: 0x1200, Mask: 0xff00}}
			if keys[1].Match == MatchExact {
				installed[1].Mask = 0
			}
			if err := rt.InsertEntry("t", Entry{Matches: installed, Action: "nop"}); err != nil {
				t.Fatal(err)
			}
			absent := []FieldMatch{{Value: 8}, installed[1]}
			if n := testing.AllocsPerRun(200, func() {
				if _, ok := rt.GetEntry("t", installed); !ok {
					t.Fatal("installed entry not found")
				}
			}); n != 0 {
				t.Errorf("GetEntry: %v allocs, want 0", n)
			}
			if n := testing.AllocsPerRun(200, func() {
				if rt.DeleteEntry("t", absent) == nil {
					t.Fatal("deleted an absent entry")
				}
			}); n != 0 {
				t.Errorf("missed DeleteEntry: %v allocs, want 0", n)
			}
		})
	}
}

// TestExactTableIdentityIsValues: an all-exact table holds one entry per
// value vector, the one packets match. Matches that differ only in what
// an exact field ignores (mask, prefix length, wildcard) name the same
// entry.
func TestExactTableIdentityIsValues(t *testing.T) {
	rt := mustRuntime(t, lookupProgram([]TableKey{{Ref: FieldRef{"h", "f32"}, Match: MatchExact, Bits: 32}}))
	for _, m := range []FieldMatch{{Value: 7}, {Value: 7, Mask: 0xff}, {Value: 7, PrefixLen: 3, Wildcard: true}} {
		if err := rt.InsertEntry("t", Entry{Matches: []FieldMatch{m}, Action: "nop"}); err != nil {
			t.Fatal(err)
		}
		if n := rt.EntryCount("t"); n != 1 {
			t.Fatalf("after inserting %+v: %d entries, want 1", m, n)
		}
	}
	if err := rt.DeleteEntry("t", []FieldMatch{{Value: 7}}); err != nil || rt.EntryCount("t") != 0 {
		t.Fatalf("delete by value: %v, %d entries left", err, rt.EntryCount("t"))
	}
}

// TestRevalidateRunningProgram: building a second runtime validates the
// program again while a first one checks entries against it, as when a
// switch restarts beside a write in flight. Under the race detector this
// must not be a write racing the first runtime's reads.
func TestRevalidateRunningProgram(t *testing.T) {
	prog := lookupProgram([]TableKey{{Ref: FieldRef{"h", "f32"}, Match: MatchExact}})
	rt := mustRuntime(t, prog)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			rt.InsertEntry("t", Entry{Matches: []FieldMatch{{Value: uint64(i)}}, Action: "nop"})
		}
	}()
	for i := 0; i < 20; i++ {
		mustRuntime(t, prog)
	}
	<-done
}

// TestApplyUndoesFailedBatch: a batch that fails at its last update
// leaves the tables, their tuple-space index and the multicast groups as
// they were, whatever the updates before it inserted, modified, deleted
// or regrouped.
func TestApplyUndoesFailedBatch(t *testing.T) {
	keys := []TableKey{{Ref: FieldRef{"h", "f16"}, Match: MatchTernary, Bits: 16},
		{Ref: FieldRef{"h", "f8"}, Match: MatchOptional, Bits: 8}}
	rng := rand.New(rand.NewSource(7))
	rt := mustRuntime(t, lookupProgram(keys))
	ts := rt.tables["t"]
	var installed []Entry
	for len(installed) < 200 {
		e := randomEntry(rng, keys)
		if ts.find(e.Matches) == nil {
			if err := rt.InsertEntry("t", e); err != nil {
				t.Fatal(err)
			}
			installed = append(installed, e)
		}
	}
	rt.SetMulticastGroup(1, []uint16{1, 2})
	before, _ := rt.Entries("t")
	for round := 0; round < 20; round++ {
		var batch []Update
		for _, e := range installed[rng.Intn(100):][:100] {
			switch rng.Intn(3) {
			case 0:
				e.Priority = 9
				batch = append(batch, Update{Kind: Modify, Table: "t", Entry: e})
			case 1:
				batch = append(batch, Update{Kind: Delete, Table: "t", Entry: e})
			default:
				if n := randomEntry(rng, keys); ts.find(n.Matches) == nil {
					batch = append(batch, Update{Kind: Insert, Table: "t", Entry: n})
				}
			}
		}
		batch = append(batch,
			Update{Kind: SetGroup, Group: 1, Ports: []uint16{3}},
			Update{Kind: SetGroup, Group: 2, Ports: []uint16{4}},
			Update{Kind: Insert, Table: "t", Entry: installed[0]}) // held: fails
		if err := rt.Apply(batch); err == nil {
			t.Fatal("a batch inserting a held entry succeeded")
		}
		if after, _ := rt.Entries("t"); !reflect.DeepEqual(after, before) {
			t.Fatalf("round %d: the failed batch changed the table", round)
		}
		if g1, g2 := rt.MulticastGroup(1), rt.MulticastGroup(2); !slices.Equal(g1, []uint16{1, 2}) || len(g2) != 0 {
			t.Fatalf("round %d: groups after the failed batch: 1 = %v, 2 = %v", round, g1, g2)
		}
		for probe := 0; probe < 200; probe++ {
			vals := []uint64{rng.Uint64() & 0xffff, rng.Uint64() & 0x7}
			got, want := ts.lookup(vals), ts.lookupLinear(vals)
			if (got == nil) != (want == nil) || got != nil &&
				(got.Priority != want.Priority || ts.totalPrefix(got) != ts.totalPrefix(want)) {
				t.Fatalf("round %d vals %x: index lookup %+v, linear scan %+v", round, vals, got, want)
			}
		}
	}
	if len(rt.undo) != 0 {
		t.Fatalf("the undo log keeps %d records past the batch", len(rt.undo))
	}
}
