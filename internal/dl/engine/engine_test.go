package engine

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/dl/parser"
	"repro/internal/dl/typecheck"
	"repro/internal/dl/value"
)

func compile(t *testing.T, src string) *typecheck.Program {
	t.Helper()
	ast, err := parser.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	prog, err := typecheck.Check(ast)
	if err != nil {
		t.Fatalf("typecheck: %v", err)
	}
	return prog
}

func newRT(t *testing.T, src string) *Runtime {
	t.Helper()
	rt, err := New(compile(t, src), Options{})
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	return rt
}

func apply(t *testing.T, rt *Runtime, ups ...Update) Delta {
	t.Helper()
	d, err := rt.Apply(ups)
	if err != nil {
		t.Fatalf("Apply: %v", err)
	}
	return d
}

func strRec(vals ...string) value.Record {
	r := make(value.Record, len(vals))
	for i, v := range vals {
		r[i] = value.String(v)
	}
	return r
}

func contents(t *testing.T, rt *Runtime, rel string) []string {
	t.Helper()
	recs, err := rt.Contents(rel)
	if err != nil {
		t.Fatalf("Contents(%s): %v", rel, err)
	}
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.String()
	}
	return out
}

func wantContents(t *testing.T, rt *Runtime, rel string, want ...string) {
	t.Helper()
	got := contents(t, rt, rel)
	if len(got) != len(want) {
		t.Fatalf("%s = %v, want %v", rel, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s = %v, want %v", rel, got, want)
		}
	}
}

const projSrc = `
input relation In(a: string, b: string)
output relation Out(b: string, a: string)
Out(b, a) :- In(a, b).
`

func TestProjectionInsertDelete(t *testing.T) {
	rt := newRT(t, projSrc)
	d := apply(t, rt, Insert("In", strRec("x", "y")))
	if d["Out"] == nil || d["Out"].Weight(strRec("y", "x")) != 1 {
		t.Fatalf("insert delta = %v", d)
	}
	wantContents(t, rt, "Out", `("y", "x")`)
	d = apply(t, rt, Delete("In", strRec("x", "y")))
	if d["Out"].Weight(strRec("y", "x")) != -1 {
		t.Fatalf("delete delta = %v", d)
	}
	wantContents(t, rt, "Out")
}

func TestIdempotentInsert(t *testing.T) {
	rt := newRT(t, projSrc)
	apply(t, rt, Insert("In", strRec("x", "y")))
	d := apply(t, rt, Insert("In", strRec("x", "y"))) // no-op
	if len(d) != 0 {
		t.Fatalf("re-insert delta = %v, want empty", d)
	}
	d = apply(t, rt, Delete("In", strRec("nope", "nope"))) // no-op
	if len(d) != 0 {
		t.Fatalf("bogus delete delta = %v, want empty", d)
	}
}

func TestJoinIncremental(t *testing.T) {
	rt := newRT(t, `
		input relation E(a: string, b: string)
		output relation Two(a: string, c: string)
		Two(a, c) :- E(a, b), E(b, c).
	`)
	apply(t, rt, Insert("E", strRec("1", "2")))
	wantContents(t, rt, "Two")
	apply(t, rt, Insert("E", strRec("2", "3")))
	wantContents(t, rt, "Two", `("1", "3")`)
	// Self-pair via a loop edge.
	apply(t, rt, Insert("E", strRec("3", "3")))
	wantContents(t, rt, "Two", `("1", "3")`, `("2", "3")`, `("3", "3")`)
	apply(t, rt, Delete("E", strRec("2", "3")))
	wantContents(t, rt, "Two", `("3", "3")`)
}

func TestMultipleDerivationsCounting(t *testing.T) {
	rt := newRT(t, `
		input relation A(x: string)
		input relation B(x: string)
		output relation O(x: string)
		O(x) :- A(x).
		O(x) :- B(x).
	`)
	apply(t, rt, Insert("A", strRec("v")), Insert("B", strRec("v")))
	wantContents(t, rt, "O", `("v")`)
	// Removing one derivation keeps the tuple.
	d := apply(t, rt, Delete("A", strRec("v")))
	if len(d) != 0 {
		t.Fatalf("delta after removing one of two derivations = %v", d)
	}
	wantContents(t, rt, "O", `("v")`)
	apply(t, rt, Delete("B", strRec("v")))
	wantContents(t, rt, "O")
}

func TestNegation(t *testing.T) {
	rt := newRT(t, `
		input relation A(x: string)
		input relation Block(x: string)
		output relation O(x: string)
		O(x) :- A(x), not Block(x).
	`)
	apply(t, rt, Insert("A", strRec("v")))
	wantContents(t, rt, "O", `("v")`)
	// Blocking retracts.
	d := apply(t, rt, Insert("Block", strRec("v")))
	if d["O"].Weight(strRec("v")) != -1 {
		t.Fatalf("block delta = %v", d)
	}
	wantContents(t, rt, "O")
	// Unblocking restores.
	apply(t, rt, Delete("Block", strRec("v")))
	wantContents(t, rt, "O", `("v")`)
}

func TestNegationWildcardAndPartialKey(t *testing.T) {
	rt := newRT(t, `
		input relation A(x: string)
		input relation Pair(x: string, y: string)
		output relation O(x: string)
		O(x) :- A(x), not Pair(x, _).
	`)
	apply(t, rt, Insert("A", strRec("v")))
	wantContents(t, rt, "O", `("v")`)
	apply(t, rt, Insert("Pair", strRec("v", "1")))
	wantContents(t, rt, "O")
	apply(t, rt, Insert("Pair", strRec("v", "2")))
	wantContents(t, rt, "O")
	apply(t, rt, Delete("Pair", strRec("v", "1")))
	wantContents(t, rt, "O") // still blocked by ("v","2")
	apply(t, rt, Delete("Pair", strRec("v", "2")))
	wantContents(t, rt, "O", `("v")`)
}

const reachSrc = `
input relation GivenLabel(n: string, label: string)
input relation Edge(a: string, b: string)
output relation Label(n: string, label: string)
Label(n, l) :- GivenLabel(n, l).
Label(n2, l) :- Label(n1, l), Edge(n1, n2).
`

func TestRecursionReachability(t *testing.T) {
	rt := newRT(t, reachSrc)
	apply(t, rt,
		Insert("GivenLabel", strRec("a", "L")),
		Insert("Edge", strRec("a", "b")),
		Insert("Edge", strRec("b", "c")),
	)
	wantContents(t, rt, "Label", `("a", "L")`, `("b", "L")`, `("c", "L")`)
	// New edge extends labels incrementally.
	apply(t, rt, Insert("Edge", strRec("c", "d")))
	wantContents(t, rt, "Label", `("a", "L")`, `("b", "L")`, `("c", "L")`, `("d", "L")`)
	// Deleting a middle edge retracts downstream labels.
	apply(t, rt, Delete("Edge", strRec("a", "b")))
	wantContents(t, rt, "Label", `("a", "L")`)
}

func TestRecursionCycleDeletion(t *testing.T) {
	// The classic counting-breaker: a cycle with an entry edge. The whole
	// cycle's labels must go when the entry disappears.
	rt := newRT(t, reachSrc)
	apply(t, rt,
		Insert("GivenLabel", strRec("root", "L")),
		Insert("Edge", strRec("root", "x")),
		Insert("Edge", strRec("x", "y")),
		Insert("Edge", strRec("y", "x")), // cycle x <-> y
	)
	wantContents(t, rt, "Label", `("root", "L")`, `("x", "L")`, `("y", "L")`)
	apply(t, rt, Delete("Edge", strRec("root", "x")))
	wantContents(t, rt, "Label", `("root", "L")`)
}

func TestRecursionRederive(t *testing.T) {
	// Two paths to the same node: deleting one keeps the label, which
	// still has a proof.
	rt := newRT(t, reachSrc)
	apply(t, rt,
		Insert("GivenLabel", strRec("a", "L")),
		Insert("Edge", strRec("a", "b")),
		Insert("Edge", strRec("a", "c")),
		Insert("Edge", strRec("b", "d")),
		Insert("Edge", strRec("c", "d")),
	)
	wantContents(t, rt, "Label",
		`("a", "L")`, `("b", "L")`, `("c", "L")`, `("d", "L")`)
	apply(t, rt, Delete("Edge", strRec("b", "d")))
	wantContents(t, rt, "Label",
		`("a", "L")`, `("b", "L")`, `("c", "L")`, `("d", "L")`)
	apply(t, rt, Delete("Edge", strRec("c", "d")))
	wantContents(t, rt, "Label", `("a", "L")`, `("b", "L")`, `("c", "L")`)
}

func TestMutualRecursion(t *testing.T) {
	rt := newRT(t, `
		input relation E(a: string, b: string)
		output relation Even(a: string, b: string)
		output relation Odd(a: string, b: string)
		Odd(a, b) :- E(a, b).
		Odd(a, c) :- Even(a, b), E(b, c).
		Even(a, c) :- Odd(a, b), E(b, c).
	`)
	apply(t, rt,
		Insert("E", strRec("1", "2")),
		Insert("E", strRec("2", "3")),
		Insert("E", strRec("3", "4")),
	)
	wantContents(t, rt, "Even", `("1", "3")`, `("2", "4")`)
	wantContents(t, rt, "Odd", `("1", "2")`, `("1", "4")`, `("2", "3")`, `("3", "4")`)
	apply(t, rt, Delete("E", strRec("2", "3")))
	wantContents(t, rt, "Even")
	wantContents(t, rt, "Odd", `("1", "2")`, `("3", "4")`)
}

func TestAggregation(t *testing.T) {
	rt := newRT(t, `
		input relation Sale(region: string, item: string, amount: int)
		output relation Total(region: string, total: int)
		output relation Count(region: string, n: int)
		Total(r, s) :- Sale(r, i, a), var s = sum(a) group_by (r).
		Count(r, c) :- Sale(r, i, a), var c = count() group_by (r).
	`)
	sale := func(r, i string, a int64) value.Record {
		return value.Record{value.String(r), value.String(i), value.Int(a)}
	}
	apply(t, rt, Insert("Sale", sale("w", "x", 10)), Insert("Sale", sale("w", "y", 5)))
	wantContents(t, rt, "Total", `("w", 15)`)
	wantContents(t, rt, "Count", `("w", 2)`)
	d := apply(t, rt, Insert("Sale", sale("w", "z", 1)))
	// The old total is retracted and the new one inserted.
	if d["Total"].Weight(value.Record{value.String("w"), value.Int(15)}) != -1 ||
		d["Total"].Weight(value.Record{value.String("w"), value.Int(16)}) != 1 {
		t.Fatalf("aggregate delta = %v", d["Total"].Entries())
	}
	apply(t, rt,
		Delete("Sale", sale("w", "x", 10)),
		Delete("Sale", sale("w", "y", 5)),
		Delete("Sale", sale("w", "z", 1)),
	)
	wantContents(t, rt, "Total") // empty group produces no row
	wantContents(t, rt, "Count")
}

func TestAggregationMinMax(t *testing.T) {
	rt := newRT(t, `
		input relation M(k: string, v: int)
		output relation Lo(k: string, v: int)
		output relation Hi(k: string, v: int)
		Lo(k, m) :- M(k, v), var m = min(v) group_by (k).
		Hi(k, m) :- M(k, v), var m = max(v) group_by (k).
	`)
	m := func(k string, v int64) value.Record { return value.Record{value.String(k), value.Int(v)} }
	apply(t, rt, Insert("M", m("a", 5)), Insert("M", m("a", 2)), Insert("M", m("a", 9)))
	wantContents(t, rt, "Lo", `("a", 2)`)
	wantContents(t, rt, "Hi", `("a", 9)`)
	apply(t, rt, Delete("M", m("a", 2)))
	wantContents(t, rt, "Lo", `("a", 5)`)
	apply(t, rt, Delete("M", m("a", 9)))
	wantContents(t, rt, "Hi", `("a", 5)`)
}

func TestFacts(t *testing.T) {
	rt := newRT(t, `
		input relation Block(x: string)
		output relation O(x: string)
		O("a").
		O("b") :- not Block("b").
	`)
	wantContents(t, rt, "O", `("a")`, `("b")`)
	// Blocking retracts the unit-rule-derived fact.
	apply(t, rt, Insert("Block", strRec("b")))
	wantContents(t, rt, "O", `("a")`)
	apply(t, rt, Delete("Block", strRec("b")))
	wantContents(t, rt, "O", `("a")`, `("b")`)
}

func TestConditionsAndAssignments(t *testing.T) {
	rt := newRT(t, `
		input relation N(k: string, v: int)
		output relation Big(k: string, dbl: int)
		Big(k, d) :- N(k, v), v > 10, var d = v * 2.
	`)
	n := func(k string, v int64) value.Record { return value.Record{value.String(k), value.Int(v)} }
	apply(t, rt, Insert("N", n("small", 3)), Insert("N", n("big", 20)))
	wantContents(t, rt, "Big", `("big", 40)`)
}

func TestIntermediateRelations(t *testing.T) {
	rt := newRT(t, `
		input relation In(x: string)
		relation Mid(x: string)
		output relation Out(x: string)
		Mid(x) :- In(x).
		Out(x) :- Mid(x).
	`)
	d := apply(t, rt, Insert("In", strRec("v")))
	if _, ok := d["Mid"]; ok {
		t.Fatalf("internal relation leaked into output delta")
	}
	wantContents(t, rt, "Out", `("v")`)
}

func TestErrorUnknownAndNonInput(t *testing.T) {
	rt := newRT(t, projSrc)
	if _, err := rt.Apply([]Update{Insert("Nope", strRec("x"))}); err == nil {
		t.Errorf("unknown relation accepted")
	}
	if _, err := rt.Apply([]Update{Insert("Out", strRec("x", "y"))}); err == nil {
		t.Errorf("insert into output relation accepted")
	}
	if _, err := rt.Apply([]Update{Insert("In", strRec("x"))}); err == nil {
		t.Errorf("wrong arity accepted")
	}
	if _, err := rt.Apply([]Update{Insert("In", value.Record{value.Int(1), value.Int(2)})}); err == nil {
		t.Errorf("ill-typed record accepted")
	}
	// Failed validation must not poison or change anything.
	apply(t, rt, Insert("In", strRec("x", "y")))
	wantContents(t, rt, "Out", `("y", "x")`)
}

func TestRuntimeErrorPoisons(t *testing.T) {
	rt := newRT(t, `
		input relation N(v: int)
		output relation O(v: int)
		O(10 / v) :- N(v).
	`)
	if _, err := rt.Apply([]Update{Insert("N", value.Record{value.Int(0)})}); err == nil {
		t.Fatalf("division by zero not reported")
	}
	if _, err := rt.Apply([]Update{Insert("N", value.Record{value.Int(5)})}); err == nil {
		t.Fatalf("poisoned runtime accepted a transaction")
	}
	if rt.Err() == nil {
		t.Fatalf("Err() = nil on poisoned runtime")
	}
}

func TestUnstratifiable(t *testing.T) {
	prog := compile(t, `
		input relation A(x: string)
		relation P(x: string)
		relation Q(x: string)
		P(x) :- A(x), not Q(x).
		Q(x) :- P(x).
	`)
	if _, err := New(prog, Options{}); err == nil ||
		!strings.Contains(err.Error(), "stratifiable") {
		t.Fatalf("unstratifiable program accepted: %v", err)
	}
}

func TestRecursiveComputedHeadRejected(t *testing.T) {
	for _, src := range []string{`
		input relation Seed(v: int)
		relation Chain(v: int)
		Chain(v) :- Seed(v).
		Chain(v + 1) :- Chain(v), v < 10.
	`, `
		input relation Seed(a: int, b: int)
		relation R(a: int, b: int)
		R(a, b) :- Seed(a, b).
		R(a, c) :- R(a, b), var c = b + 1.
	`} {
		if _, err := New(compile(t, src), Options{}); err == nil ||
			!strings.Contains(err.Error(), "pattern head") {
			t.Fatalf("computed recursive head accepted: %v\n%s", err, src)
		}
	}
}

func TestStats(t *testing.T) {
	rt := newRT(t, reachSrc)
	apply(t, rt,
		Insert("GivenLabel", strRec("a", "L")),
		Insert("Edge", strRec("a", "b")),
	)
	st := rt.Stats()
	if st.Tuples == 0 || st.Indexes == 0 {
		t.Errorf("Stats = %+v, want nonzero", st)
	}
}

// --- Incremental == full recompute, the engine's central invariant ---

type txnStep struct {
	ups []Update
}

func TestPropEquivalenceReachability(t *testing.T) {
	gen := func(r *rand.Rand, insert bool) Update {
		if r.Intn(5) == 0 {
			return Update{
				Relation: "GivenLabel",
				Rec:      strRec(fmt.Sprintf("n%d", r.Intn(6)), fmt.Sprintf("L%d", r.Intn(2))),
				Insert:   insert,
			}
		}
		return Update{
			Relation: "Edge",
			Rec:      strRec(fmt.Sprintf("n%d", r.Intn(6)), fmt.Sprintf("n%d", r.Intn(6))),
			Insert:   insert,
		}
	}
	runEquivalence(t, reachSrc, gen, 60, 4, 1)
	runEquivalence(t, reachSrc, gen, 60, 4, 2)
}

func TestPropEquivalenceNegationJoin(t *testing.T) {
	src := `
	input relation A(x: string, y: string)
	input relation B(y: string)
	output relation O(x: string)
	output relation P(x: string, y: string)
	O(x) :- A(x, y), not B(y).
	P(x, z) :- A(x, y), A(y, z), not B(x).
	`
	gen := func(r *rand.Rand, insert bool) Update {
		if r.Intn(3) == 0 {
			return Update{Relation: "B", Rec: strRec(fmt.Sprintf("n%d", r.Intn(5))), Insert: insert}
		}
		return Update{
			Relation: "A",
			Rec:      strRec(fmt.Sprintf("n%d", r.Intn(5)), fmt.Sprintf("n%d", r.Intn(5))),
			Insert:   insert,
		}
	}
	runEquivalence(t, src, gen, 80, 4, 3)
	runEquivalence(t, src, gen, 80, 4, 4)
}

func TestPropEquivalenceAggregation(t *testing.T) {
	src := `
	input relation S(k: string, item: string, v: int)
	output relation T(k: string, total: int)
	output relation C(k: string, n: int)
	T(k, s) :- S(k, i, v), var s = sum(v) group_by (k).
	C(k, c) :- S(k, i, v), var c = count() group_by (k).
	`
	gen := func(r *rand.Rand, insert bool) Update {
		return Update{
			Relation: "S",
			Rec: value.Record{
				value.String(fmt.Sprintf("k%d", r.Intn(3))),
				value.String(fmt.Sprintf("i%d", r.Intn(4))),
				value.Int(int64(r.Intn(10))),
			},
			Insert: insert,
		}
	}
	runEquivalence(t, src, gen, 80, 4, 5)
}

func TestPropEquivalenceMutualRecursion(t *testing.T) {
	src := `
	input relation E(a: string, b: string)
	output relation Even(a: string, b: string)
	output relation Odd(a: string, b: string)
	Odd(a, b) :- E(a, b).
	Odd(a, c) :- Even(a, b), E(b, c).
	Even(a, c) :- Odd(a, b), E(b, c).
	`
	gen := func(r *rand.Rand, insert bool) Update {
		return Update{
			Relation: "E",
			Rec:      strRec(fmt.Sprintf("n%d", r.Intn(5)), fmt.Sprintf("n%d", r.Intn(5))),
			Insert:   insert,
		}
	}
	runEquivalence(t, src, gen, 60, 3, 6)
	runEquivalence(t, src, gen, 60, 3, 7)
}

func TestPropEquivalenceSnvsStyle(t *testing.T) {
	// A program shaped like the snvs controller: typedefs, field access,
	// negation, joins.
	src := `
	typedef Cfg = Cfg{vid: bit<12>, tagged: bool}
	input relation Port(id: string, num: bit<9>, vid: bit<12>, tagged: bool)
	input relation Learned(port: bit<9>, vlan: bit<12>, mac: bit<48>)
	output relation InVlan(port: bit<9>, vlan: bit<12>)
	output relation Fwd(vlan: bit<12>, mac: bit<48>, port: bit<9>)
	InVlan(p, v) :- Port(_, p, v, false).
	Fwd(v, m, p) :- Learned(p, v, m), InVlan(p, v).
	`
	gen := func(r *rand.Rand, insert bool) Update {
		if r.Intn(2) == 0 {
			return Update{
				Relation: "Port",
				Rec: value.Record{
					value.String(fmt.Sprintf("p%d", r.Intn(4))),
					value.Bit(uint64(r.Intn(4))),
					value.Bit(uint64(r.Intn(3))),
					value.Bool(r.Intn(2) == 0),
				},
				Insert: insert,
			}
		}
		return Update{
			Relation: "Learned",
			Rec: value.Record{
				value.Bit(uint64(r.Intn(4))),
				value.Bit(uint64(r.Intn(3))),
				value.Bit(uint64(r.Intn(5))),
			},
			Insert: insert,
		}
	}
	runEquivalence(t, src, gen, 80, 4, 8)
}
