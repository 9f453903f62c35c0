package engine

import (
	"fmt"
	"testing"

	"repro/internal/dl/parser"
	"repro/internal/dl/typecheck"
	"repro/internal/dl/value"
)

// probeSetup builds a settled runtime for a two-way join whose matches are
// always rejected by a trailing filter, so seeding the join plan exercises
// the full arrangement probe path (key encode, bucket lookup, bucket
// iteration, binds, filter) without emitting — i.e. without constructing
// head records, which necessarily allocate.
func probeSetup(t testing.TB) (*Runtime, *plan, value.Record) {
	t.Helper()
	tree, err := parser.Parse(`
		input relation R(a: int, b: int)
		input relation S(b: int, c: int)
		output relation O(a: int, c: int)
		O(a, c) :- R(a, b), S(b, c), c > 1000000.
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := typecheck.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ups []Update
	for i := int64(0); i < 16; i++ {
		ups = append(ups, Insert("R", value.Record{value.Int(1), value.Int(i % 4)}))
		ups = append(ups, Insert("S", value.Record{value.Int(i % 4), value.Int(i)}))
	}
	if _, err := rt.Apply(ups); err != nil {
		t.Fatal(err)
	}
	head := rt.relByName["O"]
	cr := rt.rulesByHead[head][0]
	p := cr.plansByBody[0] // seeded at R: probes the arrangement on S
	if p == nil {
		t.Fatal("no plan seeded at body literal 0")
	}
	return rt, p, value.Record{value.Int(1), value.Int(2)}
}

var discardEmit emitFunc = func(value.Record, string, uint64, int64) error { return nil }

// TestArrangementProbeZeroAlloc pins the tentpole allocation win: once the
// evaluation context's scratch buffers are warm, probing an arrangement
// performs zero allocations — keys are encoded into a reused buffer and
// looked up via Go's zero-copy []byte map access.
func TestArrangementProbeZeroAlloc(t *testing.T) {
	rt, p, seed := probeSetup(t)
	ctx := &evalCtx{}
	run := func() {
		if err := rt.runPlan(ctx, p, seed, "", 1, viewAllNew, discardEmit); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch buffers
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("arrangement probe hit path allocates %.1f times per probe, want 0", allocs)
	}
}

// TestProvenanceRecordPoolZeroAlloc guards the provenance store's write
// paths: re-recording an already-known derivation (the steady-state case —
// every re-derivation of a live fact), retracting a derivation the fact
// does not hold, and full record/retract/drop churn all run
// allocation-free once warm — sigs are order-independent hashes computed
// in caller-owned scratch buffers, and derivation/fact containers recycle
// through the store's freelists.
func TestProvenanceRecordPoolZeroAlloc(t *testing.T) {
	ps := newProvStore()
	head := &relState{id: 1}
	in := &relState{id: 2}
	rec := value.Record{value.Int(7), value.Int(8)}
	key := rec.Key()
	trail := []provInput{
		{rs: in, rec: value.Record{value.Int(1), value.Int(2)}},
		{rs: in, rec: value.Record{value.Int(3), value.Int(4)}},
	}
	const label = "O :- R(..), S(..)"
	lh := provLabelHash(label)
	var sigBuf []byte
	sig := sigHash(&sigBuf, lh, trail)
	dg := provDigest(head.id, key)
	ps.record(dg, head.id, rec, sig, label, 0, trail, false, false)

	// Duplicate record: sig hashed in caller scratch, matched, kept.
	if allocs := testing.AllocsPerRun(200, func() {
		s := sigHash(&sigBuf, lh, trail)
		ps.record(dg, head.id, rec, s, label, 0, trail, false, false)
	}); allocs != 0 {
		t.Errorf("duplicate record: %v allocs/op, want 0", allocs)
	}

	// Retraction with no matching derivation left after the first cycle:
	// sig hash, table probe, derivation scan.
	ps.unrecord(dg, sig)
	if allocs := testing.AllocsPerRun(200, func() {
		s := sigHash(&sigBuf, lh, trail)
		ps.unrecord(dg, s)
	}); allocs != 0 {
		t.Errorf("unrecord: %v allocs/op, want 0", allocs)
	}

	// Steady-state churn (record a new derivation, retract it, drop the
	// fact) recycles every container through the freelists; nothing is
	// materialized per cycle.
	churn := func() {
		s := sigHash(&sigBuf, lh, trail)
		ps.record(dg, head.id, rec, s, label, 0, trail, false, false)
		ps.unrecord(dg, s)
		ps.drop(dg)
	}
	churn()
	if allocs := testing.AllocsPerRun(200, churn); allocs != 0 {
		t.Errorf("record/unrecord/drop churn: %v allocs/op, want 0", allocs)
	}
}

// BenchmarkRecordKeyCached measures the arrangement probe hit path the
// cached-key refactor optimizes (the per-probe Record.Key() allocation it
// removed would show up as allocs/op here; the bench asserts the shape via
// ReportAllocs).
func BenchmarkRecordKeyCached(b *testing.B) {
	rt, p, seed := probeSetup(b)
	ctx := &evalCtx{}
	if err := rt.runPlan(ctx, p, seed, "", 1, viewAllNew, discardEmit); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.runPlan(ctx, p, seed, "", 1, viewAllNew, discardEmit); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRecordKeyEncode contrasts the cost the hot path used to pay:
// a fresh canonical-key string per probe.
func BenchmarkRecordKeyEncode(b *testing.B) {
	rec := value.Record{value.Int(1), value.Int(2), value.Int(3)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = rec.Key()
	}
}

// factStoreSetup settles a runtime whose head O holds n facts O(a, c),
// each derived once through R(a, b) ⋈ S(b, c). The second rule arranges O
// on a, a key longer than any stack conversion buffer, two facts to a
// bucket. It returns the plan seeded at R and the seeds, one per O fact.
func factStoreSetup(t testing.TB, n int) (*Runtime, *plan, []value.Record) {
	t.Helper()
	tree, err := parser.Parse(`
		input relation R(a: string, b: int)
		input relation S(b: int, c: int)
		input relation T(a: string)
		output relation O(a: string, c: int)
		output relation Q(a: string)
		O(a, c) :- R(a, b), S(b, c).
		Q(a) :- T(a), O(a, _).
	`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := typecheck.Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := New(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var ups []Update
	var seeds []value.Record
	for i := int64(0); i < int64(n); i++ {
		a := fmt.Sprintf("arrangement-key-longer-than-a-stack-buffer-%d", i/2)
		seed := value.Record{value.String(a), value.Int(i)}
		seeds = append(seeds, seed)
		ups = append(ups, Insert("R", seed), Insert("S", value.Record{value.Int(i), value.Int(100 + i)}))
	}
	if _, err := rt.Apply(ups); err != nil {
		t.Fatal(err)
	}
	return rt, rt.rulesByHead[rt.relByName["O"]][0].plansByBody[0], seeds
}

// TestFactStoreZeroAlloc pins the interned fact store's hot paths: an
// emit that only moves an existing fact's count looks the fact up from
// the head built in scratch and allocates nothing, and neither does a
// retraction — the presence flip, the touched-list mark and the sweep
// that takes the fact out of its arrangement (swapping it out of its
// bucket, or deleting the emptied bucket) and out of its relation.
func TestFactStoreZeroAlloc(t *testing.T) {
	const n = 256
	rt, p, seeds := factStoreSetup(t, n)
	head := rt.relByName["O"]
	count := func(rec value.Record, key string, _ uint64, w int64) error {
		head.applyCount(rec, key, w)
		return nil
	}
	ctx := &evalCtx{}
	emit := func(seed value.Record, w int64) {
		if err := rt.runPlan(ctx, p, seed, "", w, viewConvention, count); err != nil {
			t.Fatal(err)
		}
	}

	bump := func() {
		emit(seeds[0], 1)
		emit(seeds[0], -1)
	}
	bump()
	if allocs := testing.AllocsPerRun(200, bump); allocs != 0 {
		t.Errorf("count bump of an existing fact: %.1f allocs, want 0", allocs)
	}
	if f := head.find([]byte(append(seeds[0][:1:1], value.Int(100)).Key())); f == nil || f.count != 1 || f.touched {
		t.Fatalf("after balanced bumps: fact = %+v, want count 1 and untouched", f)
	}

	// Each run retracts both facts of one bucket: the sweep swaps the
	// first out and deletes the emptied bucket with the second.
	// (AllocsPerRun truncates its average, so every run must do both.)
	next := 2
	retract := func() {
		emit(seeds[next], -1)
		emit(seeds[next+1], -1)
		next += 2
		head.endTxn()
	}
	if allocs := testing.AllocsPerRun(n/2-2, retract); allocs != 0 {
		t.Errorf("retraction and sweep: %.1f allocs, want 0", allocs)
	}
	if got := len(head.facts); got != 2 {
		t.Fatalf("after retracting all but one bucket: %d O facts, want 2", got)
	}
	if st := rt.Stats(); st.IndexEntries != 2+2*n {
		t.Fatalf("index entries = %d, want the two O facts plus R and S", st.IndexEntries)
	}
}
