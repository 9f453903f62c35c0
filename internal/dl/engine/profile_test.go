package engine

import (
	"fmt"
	"testing"

	"repro/internal/dl/value"
)

// twoRuleSrc has a cheap projection and a deliberately expensive
// self-join, so per-rule attribution has a clear ranking to find.
const twoRuleSrc = `
input relation In(a: string, b: string)
output relation Cheap(b: string, a: string)
output relation Hot(a: string, c: string)
Cheap(b, a) :- In(a, b).
Hot(a, c) :- In(a, b), In(c, b).
`

func TestRuleStatsOff(t *testing.T) {
	rt := newRT(t, twoRuleSrc)
	apply(t, rt, Insert("In", strRec("x", "y")))
	if st := rt.LastApplyStats(); st != nil {
		t.Fatalf("stats = %+v with Collect unset, want nil", st)
	}
	if rt.RuleInfos() != nil {
		t.Fatalf("RuleInfos non-nil with Collect unset")
	}
}

func TestRuleStatsAttribution(t *testing.T) {
	rt, err := New(compile(t, twoRuleSrc), Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	infos := rt.RuleInfos()
	if len(infos) != 2 {
		t.Fatalf("RuleInfos = %+v, want 2 rules", infos)
	}
	ids := map[string]bool{}
	for _, in := range infos {
		ids[in.ID] = true
		if in.Label == "" {
			t.Fatalf("rule %q has empty label", in.ID)
		}
	}
	if !ids["Cheap#0"] || !ids["Hot#0"] {
		t.Fatalf("rule IDs = %v, want Cheap#0 and Hot#0", ids)
	}

	var ups []Update
	for i := 0; i < 32; i++ {
		ups = append(ups, Insert("In", strRec(fmt.Sprintf("a%d", i), "join")))
	}
	apply(t, rt, ups...)
	st := rt.LastApplyStats()
	if st == nil || len(st.Rules) == 0 {
		t.Fatalf("no per-rule stats: %+v", st)
	}
	byID := map[string]RuleStats{}
	for _, r := range st.Rules {
		byID[r.ID] = r
	}
	cheap, hot := byID["Cheap#0"], byID["Hot#0"]
	// The projection derives one tuple per insert; the self-join derives
	// O(n^2) pairs. Attribution must reflect that asymmetry.
	if cheap.Derivations != 32 || cheap.DeltaTuples != 32 {
		t.Fatalf("Cheap#0 = %+v, want 32 derivations/delta tuples", cheap)
	}
	if hot.Derivations < 32*32 {
		t.Fatalf("Hot#0 derivations = %d, want >= 1024", hot.Derivations)
	}
	if hot.DeltaTuples != 32*32 {
		t.Fatalf("Hot#0 delta tuples = %d, want 1024", hot.DeltaTuples)
	}
	if cheap.Seedings == 0 || hot.Seedings == 0 {
		t.Fatalf("seedings not counted: cheap=%+v hot=%+v", cheap, hot)
	}
	if hot.Duration <= 0 {
		t.Fatalf("Hot#0 duration = %v, want > 0", hot.Duration)
	}

	// Deletions attribute too.
	apply(t, rt, Delete("In", strRec("a0", "join")))
	st = rt.LastApplyStats()
	byID = map[string]RuleStats{}
	for _, r := range st.Rules {
		byID[r.ID] = r
	}
	if byID["Cheap#0"].DeltaTuples != 1 {
		t.Fatalf("delete: Cheap#0 = %+v, want 1 delta tuple", byID["Cheap#0"])
	}
	// Removing one of 32 join keys retracts its row and column pairs:
	// 32 + 32 - 1 net transitions in Hot.
	if got := byID["Hot#0"].DeltaTuples; got != 63 {
		t.Fatalf("delete: Hot#0 delta tuples = %d, want 63", got)
	}
}

func TestRuleStatsMultiKeyCounting(t *testing.T) {
	rt, err := New(compile(t, twoRuleSrc),
		Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	var ups []Update
	for i := 0; i < 64; i++ {
		ups = append(ups, Insert("In", strRec(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i%4))))
	}
	apply(t, rt, ups...)
	st := rt.LastApplyStats()
	byID := map[string]RuleStats{}
	for _, r := range st.Rules {
		byID[r.ID] = r
	}
	if got := byID["Cheap#0"].DeltaTuples; got != 64 {
		t.Fatalf("Cheap#0 delta tuples = %d, want 64", got)
	}
	// 4 join keys × 16×16 pairs.
	if got := byID["Hot#0"].DeltaTuples; got != 1024 {
		t.Fatalf("Hot#0 delta tuples = %d, want 1024", got)
	}
	if byID["Hot#0"].Seedings == 0 || byID["Hot#0"].Duration <= 0 {
		t.Fatalf("Hot#0 = %+v, want seedings and duration", byID["Hot#0"])
	}
}

const tcSrc = `
input relation Edge(x: string, y: string)
output relation Reach(x: string, y: string)
Reach(x, y) :- Edge(x, y).
Reach(x, z) :- Reach(x, y), Edge(y, z).
`

func TestRuleStatsRecursive(t *testing.T) {
	rt, err := New(compile(t, tcSrc),
		Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	var ups []Update
	for i := 0; i < 40; i++ {
		ups = append(ups, Insert("Edge", strRec(fmt.Sprintf("n%02d", i), fmt.Sprintf("n%02d", i+1))))
	}
	apply(t, rt, ups...)
	st := rt.LastApplyStats()
	var base, rec RuleStats
	for _, r := range st.Rules {
		switch r.ID {
		case "Reach#0":
			base = r
		case "Reach#1":
			rec = r
		}
	}
	if base.DeltaTuples != 40 {
		t.Fatalf("base rule delta = %+v, want 40", base)
	}
	// A 40-edge chain closes to 40*41/2 pairs; the recursive rule
	// contributes everything beyond the base edges.
	if rec.DeltaTuples != 40*41/2-40 {
		t.Fatalf("recursive rule delta = %d, want %d", rec.DeltaTuples, 40*41/2-40)
	}
	if !rec.Recursive || rec.Stratum == 0 && base.Stratum != rec.Stratum {
		t.Fatalf("stratum attribution: base=%+v rec=%+v", base, rec)
	}

	// Deleting the first edge retracts every pair starting at n00.
	apply(t, rt, Delete("Edge", strRec("n00", "n01")))
	st = rt.LastApplyStats()
	var total int64
	for _, r := range st.Rules {
		total += r.DeltaTuples
	}
	if total < 40 {
		t.Fatalf("delete attributed %d delta tuples, want >= 40 (%+v)", total, st.Rules)
	}
}

func TestRuleStatsAggregate(t *testing.T) {
	rt, err := New(compile(t, `
		input relation Item(k: string, v: int)
		output relation Total(k: string, n: int)
		Total(k, n) :- Item(k, v), var n = count() group_by (k).
	`), Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	apply(t, rt,
		Insert("Item", value.Record{value.String("a"), value.Int(1)}),
		Insert("Item", value.Record{value.String("a"), value.Int(2)}),
		Insert("Item", value.Record{value.String("b"), value.Int(3)}))
	st := rt.LastApplyStats()
	var agg bool
	for _, r := range st.Rules {
		if r.ID == "Total#1" { // #0 is the hidden group rule
			agg = true
			if r.Seedings != 2 || r.DeltaTuples != 2 {
				t.Fatalf("aggregate stats = %+v, want 2 seedings (groups) and 2 delta tuples", r)
			}
			if r.Duration <= 0 {
				t.Fatalf("aggregate duration = %v, want > 0", r.Duration)
			}
		}
	}
	if !agg {
		t.Fatalf("no aggregate row in %+v", st.Rules)
	}
}

func TestMemoryStats(t *testing.T) {
	rt := newRT(t, twoRuleSrc)
	var ups []Update
	for i := 0; i < 16; i++ {
		ups = append(ups, Insert("In", strRec(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))))
	}
	apply(t, rt, ups...)
	ms := rt.MemoryStats()
	if ms.Tuples != rt.Stats().Tuples {
		t.Fatalf("MemoryStats tuples = %d, engine Stats = %d", ms.Tuples, rt.Stats().Tuples)
	}
	if ms.Bytes <= 0 {
		t.Fatalf("bytes estimate = %d, want > 0", ms.Bytes)
	}
	byName := map[string]RelMemStats{}
	for _, rm := range ms.Relations {
		byName[rm.Name] = rm
	}
	if byName["In"].Tuples != 16 || byName["Cheap"].Tuples != 16 || byName["Hot"].Tuples != 16 {
		t.Fatalf("per-relation tuples wrong: %+v", ms.Relations)
	}
	if byName["In"].Bytes <= 0 || byName["In"].IndexEntries != 16*byName["In"].Indexes {
		t.Fatalf("In accounting = %+v", byName["In"])
	}

	// Shrinks on deletion.
	before := ms.Bytes
	var dels []Update
	for i := 0; i < 16; i++ {
		dels = append(dels, Delete("In", strRec(fmt.Sprintf("a%d", i), fmt.Sprintf("b%d", i))))
	}
	apply(t, rt, dels...)
	ms = rt.MemoryStats()
	if ms.Tuples != 0 || ms.Bytes >= before {
		t.Fatalf("after delete: tuples=%d bytes=%d (before %d), want empty and smaller", ms.Tuples, ms.Bytes, before)
	}

	// Provenance share appears when collection is on.
	rtp, err := New(compile(t, twoRuleSrc), Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	apply(t, rtp, Insert("In", strRec("x", "y")))
	if ps := rtp.MemoryStats().Provenance; ps.Facts == 0 || ps.Bytes <= 0 {
		t.Fatalf("provenance share = %+v, want nonzero", ps)
	}
}

// TestRuleProfOffZeroAlloc guards the profiling budget: with
// Options.Collect off, the profiling hooks add no allocations to the
// plan-evaluation hot path (the only residue is a nil check).
func TestRuleProfOffZeroAlloc(t *testing.T) {
	rt, p, seed := probeSetup(t)
	ctx := &evalCtx{}
	run := func() {
		if err := rt.runPlan(ctx, p, seed, "", 1, viewAllNew, discardEmit); err != nil {
			t.Fatal(err)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("plan evaluation with profiling off allocates %.1f times per run, want 0", allocs)
	}
}
