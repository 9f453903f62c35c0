package engine

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dl/value"
)

func TestWholeRelationNegation(t *testing.T) {
	// not B(_, _): the condition is the whole relation's emptiness.
	rt := newRT(t, `
		input relation A(x: string)
		input relation B(p: string, q: string)
		output relation O(x: string)
		O(x) :- A(x), not B(_, _).
	`)
	apply(t, rt, Insert("A", strRec("v")))
	wantContents(t, rt, "O", `("v")`)
	apply(t, rt, Insert("B", strRec("any", "thing")))
	wantContents(t, rt, "O")
	apply(t, rt, Insert("B", strRec("more", "rows")))
	wantContents(t, rt, "O")
	apply(t, rt, Delete("B", strRec("any", "thing")))
	wantContents(t, rt, "O")
	apply(t, rt, Delete("B", strRec("more", "rows")))
	wantContents(t, rt, "O", `("v")`)
}

func TestStructValuesThroughRelations(t *testing.T) {
	rt := newRT(t, `
		typedef Cfg = Cfg{vid: bit<12>, tagged: bool}
		input relation Port(id: string, cfg: Cfg)
		output relation Untagged(id: string, vid: bit<12>)
		Untagged(id, cfg.vid) :- Port(id, cfg), not cfg.tagged.
	`)
	mk := func(id string, vid uint64, tagged bool) value.Record {
		return value.Record{value.String(id), value.Tuple(value.Bit(vid), value.Bool(tagged))}
	}
	apply(t, rt, Insert("Port", mk("a", 7, false)), Insert("Port", mk("b", 9, true)))
	wantContents(t, rt, "Untagged", `("a", 7)`)
}

func TestStringBuiltinsInRules(t *testing.T) {
	rt := newRT(t, `
		input relation Host(name: string)
		output relation Web(name: string, label: string)
		Web(n, "web-" ++ n) :- Host(n), string_starts_with(n, "web").
	`)
	apply(t, rt, Insert("Host", strRec("web1")), Insert("Host", strRec("db1")))
	wantContents(t, rt, "Web", `("web1", "web-web1")`)
}

func TestFactIntoRecursiveStratum(t *testing.T) {
	// A fact feeding a recursive relation exercises unit rules inside the
	// recursive stratum machinery.
	rt := newRT(t, `
		input relation Edge(a: string, b: string)
		output relation Reach(n: string)
		Reach("seed").
		Reach(b) :- Reach(a), Edge(a, b).
	`)
	wantContents(t, rt, "Reach", `("seed")`)
	apply(t, rt, Insert("Edge", strRec("seed", "x")))
	wantContents(t, rt, "Reach", `("seed")`, `("x")`)
	apply(t, rt, Delete("Edge", strRec("seed", "x")))
	wantContents(t, rt, "Reach", `("seed")`)
}

func TestGroupByMultipleKeys(t *testing.T) {
	rt := newRT(t, `
		input relation M(a: string, b: string, v: int)
		output relation S(a: string, b: string, total: int)
		S(a, b, s) :- M(a, b, v), var s = sum(v) group_by (a, b).
	`)
	m := func(a, b string, v int64) value.Record {
		return value.Record{value.String(a), value.String(b), value.Int(v)}
	}
	apply(t, rt,
		Insert("M", m("x", "1", 5)), Insert("M", m("x", "1", 7)),
		Insert("M", m("x", "2", 1)),
	)
	wantContents(t, rt, "S", `("x", "1", 12)`, `("x", "2", 1)`)
	apply(t, rt, Delete("M", m("x", "1", 5)))
	wantContents(t, rt, "S", `("x", "1", 7)`, `("x", "2", 1)`)
}

func TestGroupByComputedKey(t *testing.T) {
	rt := newRT(t, `
		input relation M(k: int, v: int)
		output relation S(bucket: int, n: int)
		S(b, c) :- M(k, _), var b = k % 2, var c = count() group_by (b).
	`)
	m := func(k, v int64) value.Record { return value.Record{value.Int(k), value.Int(v)} }
	apply(t, rt, Insert("M", m(1, 0)), Insert("M", m(2, 0)), Insert("M", m(3, 0)))
	wantContents(t, rt, "S", `(0, 1)`, `(1, 2)`)
}

func TestCastsInRules(t *testing.T) {
	rt := newRT(t, `
		input relation N(v: int)
		output relation B(w: bit<8>)
		B(v as bit<8>) :- N(v).
	`)
	apply(t, rt, Insert("N", value.Record{value.Int(300)}))
	// 300 masked to 8 bits = 44.
	wantContents(t, rt, "B", `(44)`)
}

func TestSameRelationPositiveAndNegative(t *testing.T) {
	// R appears both positively and negatively in one rule.
	rt := newRT(t, `
		input relation R(a: string, b: string)
		output relation Root(a: string)
		Root(a) :- R(a, _), not R(_, a).
	`)
	apply(t, rt, Insert("R", strRec("r", "c1")), Insert("R", strRec("c1", "c2")))
	wantContents(t, rt, "Root", `("r")`)
	// Making r a child retracts its root-ness.
	apply(t, rt, Insert("R", strRec("c2", "r")))
	wantContents(t, rt, "Root")
	apply(t, rt, Delete("R", strRec("c2", "r")))
	wantContents(t, rt, "Root", `("r")`)
}

func TestPropEquivalenceRootsAndDoubleNegation(t *testing.T) {
	src := `
	input relation R(a: string, b: string)
	output relation Root(a: string)
	output relation Inner(a: string)
	Root(a) :- R(a, _), not R(_, a).
	Inner(a) :- R(a, _), R(_, a).
	`
	gen := func(r *rand.Rand, insert bool) Update {
		return Update{
			Relation: "R",
			Rec:      strRec(fmt.Sprintf("n%d", r.Intn(5)), fmt.Sprintf("n%d", r.Intn(5))),
			Insert:   insert,
		}
	}
	runEquivalence(t, src, gen, 80, 4, 21)
	runEquivalence(t, src, gen, 80, 4, 22)
}

func TestPropEquivalenceRecursionWithNegation(t *testing.T) {
	// Reachability from non-blocked seeds; negation below recursion.
	src := `
	input relation Seed(n: string)
	input relation Block(n: string)
	input relation Edge(a: string, b: string)
	relation Ok(n: string)
	output relation Reach(n: string)
	Ok(n) :- Seed(n), not Block(n).
	Reach(n) :- Ok(n).
	Reach(b) :- Reach(a), Edge(a, b).
	`
	gen := func(r *rand.Rand, insert bool) Update {
		switch r.Intn(4) {
		case 0:
			return Update{Relation: "Seed", Rec: strRec(fmt.Sprintf("n%d", r.Intn(5))), Insert: insert}
		case 1:
			return Update{Relation: "Block", Rec: strRec(fmt.Sprintf("n%d", r.Intn(5))), Insert: insert}
		default:
			return Update{Relation: "Edge",
				Rec:    strRec(fmt.Sprintf("n%d", r.Intn(5)), fmt.Sprintf("n%d", r.Intn(5))),
				Insert: insert}
		}
	}
	runEquivalence(t, src, gen, 70, 4, 23)
	runEquivalence(t, src, gen, 70, 4, 24)
}

func TestEmptyTransactionIsNoOp(t *testing.T) {
	rt := newRT(t, projSrc)
	d := apply(t, rt)
	if len(d) != 0 {
		t.Fatalf("empty transaction produced deltas: %v", d)
	}
}

func TestInsertDeleteSameTxnCancels(t *testing.T) {
	rt := newRT(t, projSrc)
	d := apply(t, rt,
		Insert("In", strRec("x", "y")),
		Delete("In", strRec("x", "y")),
	)
	// Staging dedup: last op wins (delete of an absent row: no-op).
	if len(d) != 0 {
		t.Fatalf("self-cancelling transaction produced deltas: %v", d)
	}
	wantContents(t, rt, "Out")
}

func TestNaiveEvalErrors(t *testing.T) {
	prog := compile(t, projSrc)
	if _, err := NaiveEval(prog, map[string][]value.Record{"Nope": nil}); err == nil {
		t.Errorf("unknown relation accepted")
	}
	if _, err := NaiveEval(prog, map[string][]value.Record{"Out": {strRec("a", "b")}}); err == nil {
		t.Errorf("non-input relation accepted")
	}
	if _, err := NaiveEval(prog, map[string][]value.Record{"In": {strRec("a")}}); err == nil {
		t.Errorf("ill-typed record accepted")
	}
}

func TestUserFunctionsIncremental(t *testing.T) {
	rt := newRT(t, `
		function bucket(v: int): int = v % 3
		input relation N(v: int)
		output relation B(b: int)
		B(bucket(v)) :- N(v).
	`)
	n := func(v int64) value.Record { return value.Record{value.Int(v)} }
	apply(t, rt, Insert("N", n(4)), Insert("N", n(7)), Insert("N", n(5)))
	// 4%3=1, 7%3=1 (two derivations), 5%3=2.
	wantContents(t, rt, "B", `(1)`, `(2)`)
	apply(t, rt, Delete("N", n(4)))
	wantContents(t, rt, "B", `(1)`, `(2)`) // still derived by 7
	apply(t, rt, Delete("N", n(7)))
	wantContents(t, rt, "B", `(2)`)
}

func TestPropEquivalenceDenseChurn(t *testing.T) {
	// Dense churn on a small universe: most deletions take a derivation
	// from most labels, and cycles keep losing and regaining support.
	gen := func(r *rand.Rand, insert bool) Update {
		if r.Intn(5) == 0 {
			return Update{
				Relation: "GivenLabel",
				Rec:      strRec(fmt.Sprintf("n%d", r.Intn(5)), "L"),
				Insert:   insert,
			}
		}
		return Update{
			Relation: "Edge",
			Rec:      strRec(fmt.Sprintf("n%d", r.Intn(5)), fmt.Sprintf("n%d", r.Intn(5))),
			Insert:   insert,
		}
	}
	runEquivalence(t, reachSrc, gen, 80, 4, 31)
	runEquivalence(t, reachSrc, gen, 80, 4, 32)
	runEquivalence(t, reachSrc, gen, 60, 4, 33)
}

func TestSelfSupportingCycleDeleted(t *testing.T) {
	// A 20-node cycle whose only entry edge is cut: every cycle label
	// still has a derivation from its predecessor, but none has a proof,
	// so all 20 go.
	rt := newRT(t, reachSrc)
	var ups []Update
	ups = append(ups, Insert("GivenLabel", strRec("root", "L")))
	ups = append(ups, Insert("Edge", strRec("root", "c0")))
	for i := 0; i < 20; i++ {
		ups = append(ups, Insert("Edge", strRec(
			fmt.Sprintf("c%d", i), fmt.Sprintf("c%d", (i+1)%20))))
	}
	if _, err := rt.Apply(ups); err != nil {
		t.Fatal(err)
	}
	recs, _ := rt.Contents("Label")
	if len(recs) != 21 {
		t.Fatalf("labels = %d, want 21", len(recs))
	}
	d, err := rt.Apply([]Update{Delete("Edge", strRec("root", "c0"))})
	if err != nil {
		t.Fatal(err)
	}
	recs, _ = rt.Contents("Label")
	if len(recs) != 1 {
		t.Fatalf("labels after cut = %d, want 1", len(recs))
	}
	// The output delta is exactly the 20 retracted labels.
	if d["Label"] == nil || d["Label"].Len() != 20 {
		t.Fatalf("delta = %v", d["Label"])
	}
}

// TestDenseRemovalWorkBelowLabels pins recursive deletion's cost on dense
// cyclic data: a link removal takes a derivation from most labels but
// few lose their last proof, so the plan runs of one removal, checks
// included, stay below one per label. Overdelete-and-rederive runs about
// four per label here.
func TestDenseRemovalWorkBelowLabels(t *testing.T) {
	const nodes, edges, roots, removals = 1000, 3000, 50, 20
	r := rand.New(rand.NewSource(42))
	name := func(i int) string { return fmt.Sprintf("n%d", i) }
	var ups []Update
	for i := 0; i < roots; i++ {
		ups = append(ups, Insert("GivenLabel", strRec(name(i), fmt.Sprintf("L%d", i%4))))
	}
	seen := make(map[[2]int]bool)
	var graph [][2]int
	for len(graph) < edges {
		e := [2]int{r.Intn(nodes), r.Intn(nodes)}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		graph = append(graph, e)
		ups = append(ups, Insert("Edge", strRec(name(e[0]), name(e[1]))))
	}
	rt, err := New(compile(t, reachSrc), Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	apply(t, rt, ups...)
	for i, k := range r.Perm(edges)[:removals] {
		labels, _ := rt.Contents("Label")
		e := graph[k]
		apply(t, rt, Delete("Edge", strRec(name(e[0]), name(e[1]))))
		var seedings int64
		for _, rs := range rt.LastApplyStats().Rules {
			seedings += rs.Seedings
		}
		if seedings >= int64(len(labels)) {
			t.Fatalf("removal %d: %d plan runs against %d labels", i, seedings, len(labels))
		}
	}
}

func TestPropEquivalenceAggregateOverRecursion(t *testing.T) {
	// Aggregation consuming a recursive relation: count reachable nodes
	// per label (stratified: aggregate above the recursive stratum).
	src := `
	input relation GivenLabel(n: string, label: string)
	input relation Edge(a: string, b: string)
	relation Label(n: string, label: string)
	output relation Spread(label: string, n: int)
	Label(n, l) :- GivenLabel(n, l).
	Label(n2, l) :- Label(n1, l), Edge(n1, n2).
	Spread(l, c) :- Label(n, l), var c = count() group_by (l).
	`
	gen := func(r *rand.Rand, insert bool) Update {
		if r.Intn(4) == 0 {
			return Update{
				Relation: "GivenLabel",
				Rec:      strRec(fmt.Sprintf("n%d", r.Intn(5)), fmt.Sprintf("L%d", r.Intn(2))),
				Insert:   insert,
			}
		}
		return Update{
			Relation: "Edge",
			Rec:      strRec(fmt.Sprintf("n%d", r.Intn(5)), fmt.Sprintf("n%d", r.Intn(5))),
			Insert:   insert,
		}
	}
	runEquivalence(t, src, gen, 70, 4, 41)
	runEquivalence(t, src, gen, 70, 4, 42)
}

func TestPropEquivalenceMinMaxChurn(t *testing.T) {
	// min/max must re-derive the next extremum when the current one is
	// deleted, and downstream joins must see the change as a retract+insert.
	src := `
	input relation M(k: string, v: int)
	input relation Limit(k: string, cap: int)
	relation Lo(k: string, m: int)
	relation Hi(k: string, m: int)
	output relation Span(k: string, lo: int, hi: int)
	output relation Over(k: string)
	Lo(k, m) :- M(k, v), var m = min(v) group_by (k).
	Hi(k, m) :- M(k, v), var m = max(v) group_by (k).
	Span(k, l, h) :- Lo(k, l), Hi(k, h).
	Over(k) :- Hi(k, h), Limit(k, c), h > c.
	`
	gen := func(r *rand.Rand, insert bool) Update {
		if r.Intn(5) == 0 {
			return Update{
				Relation: "Limit",
				Rec: value.Record{
					value.String(fmt.Sprintf("k%d", r.Intn(3))),
					value.Int(int64(r.Intn(6))),
				},
				Insert: insert,
			}
		}
		return Update{
			Relation: "M",
			Rec: value.Record{
				value.String(fmt.Sprintf("k%d", r.Intn(3))),
				value.Int(int64(r.Intn(8))),
			},
			Insert: insert,
		}
	}
	runEquivalence(t, src, gen, 90, 4, 51)
	runEquivalence(t, src, gen, 90, 4, 52)
}
