package engine

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"repro/internal/dl/value"
)

func newProvRT(t *testing.T, src string, opts Options) *Runtime {
	t.Helper()
	opts.Collect = true
	rt, err := New(compile(t, src), opts)
	if err != nil {
		t.Fatalf("engine.New: %v", err)
	}
	return rt
}

// wideExplain removes the tree bounds from the equation.
var wideExplain = ExplainOptions{MaxDepth: 1 << 10, MaxNodes: 1 << 16}

// leaves walks a tree collecting input leaves; it reports whether the tree
// is a complete proof (no unknown, cycle, or truncated nodes).
func leaves(n *ExplainNode, out map[string][]value.Record) bool {
	switch n.Kind {
	case "input":
		out[n.Relation] = append(out[n.Relation], n.Tuple)
		return true
	case "derived":
		if n.Truncated {
			return false
		}
		for _, c := range n.Children {
			if !leaves(c, out) {
				return false
			}
		}
		return true
	default: // unknown, cycle
		return false
	}
}

func TestProvenanceExplainBasic(t *testing.T) {
	rt := newProvRT(t, `
		input relation R(a: int, b: int)
		input relation S(b: int, c: int)
		output relation O(a: int, c: int)
		O(a, c) :- R(a, b), S(b, c).
	`, Options{})
	apply(t, rt,
		Insert("R", value.Record{value.Int(1), value.Int(2)}),
		Insert("S", value.Record{value.Int(2), value.Int(3)}))
	fact := value.Record{value.Int(1), value.Int(3)}
	n, ok := rt.Explain("O", fact, ExplainOptions{})
	if !ok {
		t.Fatal("derived fact has no provenance")
	}
	if n.Kind != "derived" || n.Rule != "O :- R(..), S(..)" || n.Stratum != rt.relByName["O"].stratum {
		t.Fatalf("root = %+v", n)
	}
	if len(n.Children) != 2 {
		t.Fatalf("want 2 input leaves, got %+v", n.Children)
	}
	seen := map[string]string{}
	for _, c := range n.Children {
		if c.Kind != "input" {
			t.Fatalf("leaf kind = %q, want input", c.Kind)
		}
		seen[c.Relation] = c.Record
	}
	if seen["R"] != "(1, 2)" || seen["S"] != "(2, 3)" {
		t.Fatalf("leaves = %v", seen)
	}

	// Input relations are not explainable through the engine.
	if _, ok := rt.Explain("R", value.Record{value.Int(1), value.Int(2)}, ExplainOptions{}); ok {
		t.Fatal("input fact should not be explainable")
	}

	// ExplainRendered resolves the printed form.
	if _, ok := rt.ExplainRendered("O", "(1, 3)", ExplainOptions{}); !ok {
		t.Fatal("ExplainRendered missed the fact")
	}
	if _, ok := rt.ExplainRendered("O", "(9, 9)", ExplainOptions{}); ok {
		t.Fatal("ExplainRendered found a ghost")
	}

	// Retraction drops provenance.
	apply(t, rt, Delete("R", value.Record{value.Int(1), value.Int(2)}))
	if _, ok := rt.Explain("O", fact, ExplainOptions{}); ok {
		t.Fatal("retracted fact still explainable")
	}
	if st := rt.ProvenanceStats(); st.Facts != 0 {
		t.Fatalf("store still holds %d facts", st.Facts)
	}
}

func TestProvenanceAlternativeDerivations(t *testing.T) {
	rt := newProvRT(t, `
		input relation A(x: string)
		input relation B(x: string)
		output relation O(x: string)
		O(x) :- A(x).
		O(x) :- B(x).
	`, Options{})
	apply(t, rt, Insert("A", strRec("v")), Insert("B", strRec("v")))
	n, ok := rt.Explain("O", strRec("v"), ExplainOptions{})
	if !ok || n.Alternatives != 1 {
		t.Fatalf("want 1 alternative, got %+v (ok=%v)", n, ok)
	}
	// Removing one derivation keeps the fact and the other explanation.
	apply(t, rt, Delete("A", strRec("v")))
	n, ok = rt.Explain("O", strRec("v"), ExplainOptions{})
	if !ok || n.Alternatives != 0 || n.Rule != "O :- B(..)" {
		t.Fatalf("after delete: %+v (ok=%v)", n, ok)
	}
}

func TestProvenanceNegationAndExprs(t *testing.T) {
	rt := newProvRT(t, `
		input relation A(x: int)
		input relation Block(x: int)
		output relation O(y: int)
		O(x + 1) :- A(x), not Block(x), x > 0.
	`, Options{})
	apply(t, rt, Insert("A", value.Record{value.Int(4)}))
	n, ok := rt.Explain("O", value.Record{value.Int(5)}, ExplainOptions{})
	if !ok {
		t.Fatal("no provenance")
	}
	// The only input leaf is the positive literal; the negation and the
	// condition contribute no facts.
	if len(n.Children) != 1 || n.Children[0].Relation != "A" || n.Children[0].Record != "(4)" {
		t.Fatalf("children = %+v", n.Children)
	}
	// A Block insertion retracts the fact and its provenance.
	apply(t, rt, Insert("Block", value.Record{value.Int(4)}))
	if _, ok := rt.Explain("O", value.Record{value.Int(5)}, ExplainOptions{}); ok {
		t.Fatal("negation-retracted fact still explainable")
	}
	// And removing the blocker re-derives and re-records.
	apply(t, rt, Delete("Block", value.Record{value.Int(4)}))
	if _, ok := rt.Explain("O", value.Record{value.Int(5)}, ExplainOptions{}); !ok {
		t.Fatal("re-derived fact lost its provenance")
	}
}

func TestProvenanceAggregate(t *testing.T) {
	rt := newProvRT(t, `
		input relation Sale(region: string, item: string, amount: int)
		output relation Total(region: string, total: int)
		Total(r, s) :- Sale(r, i, a), var s = sum(a) group_by (r).
	`, Options{})
	apply(t, rt,
		Insert("Sale", value.Record{value.String("eu"), value.String("a"), value.Int(2)}),
		Insert("Sale", value.Record{value.String("eu"), value.String("b"), value.Int(3)}))
	n, ok := rt.Explain("Total", value.Record{value.String("eu"), value.Int(5)}, wideExplain)
	if !ok {
		t.Fatal("aggregate fact has no provenance")
	}
	// The aggregate's inputs are the group bucket (hidden relation facts),
	// each of which derives from one Sale row.
	got := make(map[string][]value.Record)
	if !leaves(n, got) {
		t.Fatalf("incomplete proof: %+v", n)
	}
	if len(got["Sale"]) != 2 {
		t.Fatalf("leaves = %v", got)
	}
	// Re-aggregation after a delete replaces the derivation.
	apply(t, rt, Delete("Sale", value.Record{value.String("eu"), value.String("b"), value.Int(3)}))
	if _, ok := rt.Explain("Total", value.Record{value.String("eu"), value.Int(5)}, wideExplain); ok {
		t.Fatal("stale total still explainable")
	}
	n, ok = rt.Explain("Total", value.Record{value.String("eu"), value.Int(2)}, wideExplain)
	if !ok {
		t.Fatal("new total has no provenance")
	}
	got = make(map[string][]value.Record)
	if !leaves(n, got) || len(got["Sale"]) != 1 {
		t.Fatalf("new total leaves = %v", got)
	}
}

func TestProvenanceEviction(t *testing.T) {
	rt := newProvRT(t, projSrc, Options{})
	rt.prov.capacity = 8
	for i := 0; i < 32; i++ {
		apply(t, rt, Insert("In", strRec(fmt.Sprint(i), fmt.Sprint(i))))
	}
	st := rt.ProvenanceStats()
	if st.Facts > 8 {
		t.Fatalf("store exceeded capacity: %+v", st)
	}
	if st.Evictions != 32-8 {
		t.Fatalf("evictions = %d, want %d", st.Evictions, 32-8)
	}
	// Oldest facts evicted, newest retained.
	if _, ok := rt.Explain("Out", strRec("0", "0"), ExplainOptions{}); ok {
		t.Fatal("evicted fact still explainable")
	}
	if _, ok := rt.Explain("Out", strRec("31", "31"), ExplainOptions{}); !ok {
		t.Fatal("recent fact lost")
	}
}

const reachProvSrc = `
input relation Edge(a: string, b: string)
output relation Reach(a: string, b: string)
Reach(a, b) :- Edge(a, b).
Reach(a, c) :- Reach(a, b), Edge(b, c).
`

// TestProvenanceRecursive pins the recursive-deletion interaction:
// deleted facts lose their provenance, a surviving fact that lost a
// derivation keeps a valid proof, and every tree stays acyclic.
func TestProvenanceRecursive(t *testing.T) {
	// The subtest is named for its delete mode: deletion runs without
	// a recompute fallback, the engine's only mode.
	t.Run("fallback=0", func(t *testing.T) {
		rt := newProvRT(t, reachProvSrc, Options{})
		apply(t, rt,
			Insert("Edge", strRec("a", "b")),
			Insert("Edge", strRec("b", "c")),
			Insert("Edge", strRec("c", "d")),
			Insert("Edge", strRec("a", "c"))) // alternate route to c
		n, ok := rt.Explain("Reach", strRec("a", "d"), wideExplain)
		if !ok {
			t.Fatal("no provenance for reach fact")
		}
		got := make(map[string][]value.Record)
		if !leaves(n, got) {
			t.Fatalf("incomplete proof: %+v", n)
		}
		if len(got["Edge"]) == 0 {
			t.Fatalf("no Edge leaves: %v", got)
		}
		// Deleting b→c leaves a–c–d reachable via the alternate edge; the
		// surviving fact must still have a valid proof.
		apply(t, rt, Delete("Edge", strRec("b", "c")))
		n, ok = rt.Explain("Reach", strRec("a", "d"), wideExplain)
		if !ok {
			t.Fatal("surviving fact lost provenance")
		}
		got = make(map[string][]value.Record)
		if !leaves(n, got) {
			t.Fatalf("incomplete proof of the surviving fact: %+v", n)
		}
		for _, e := range got["Edge"] {
			if e.String() == `("b", "c")` {
				t.Fatal("proof uses a deleted edge")
			}
		}
		// Cutting the alternate edge retracts a→d for good.
		apply(t, rt, Delete("Edge", strRec("a", "c")))
		if _, ok := rt.Explain("Reach", strRec("a", "d"), wideExplain); ok {
			t.Fatal("retracted reach fact still explainable")
		}
	})
}

// TestProvenanceVsNaive is the property test: for every fact in every
// derived relation, the explained proof tree must be self-contained — the
// naive evaluator, fed only the tree's input leaves, re-derives the fact.
// Retracted facts must become unexplainable.
func TestProvenanceVsNaive(t *testing.T) {
	cases := []struct {
		name string
		src  string
		gen  func(r *rand.Rand, insert bool) Update
	}{
		{
			name: "reach",
			src:  reachProvSrc,
			gen: func(r *rand.Rand, insert bool) Update {
				rec := strRec(fmt.Sprint(r.Intn(8)), fmt.Sprint(r.Intn(8)))
				return Update{Relation: "Edge", Rec: rec, Insert: insert}
			},
		},
		{
			name: "join-negation",
			src: `
				input relation A(x: int, y: int)
				input relation B(y: int, z: int)
				input relation Block(x: int)
				output relation O(x: int, z: int)
				O(x, z) :- A(x, y), B(y, z), not Block(x).
			`,
			gen: func(r *rand.Rand, insert bool) Update {
				switch r.Intn(5) {
				case 0:
					return Update{Relation: "Block", Rec: value.Record{value.Int(int64(r.Intn(6)))}, Insert: insert}
				case 1, 2:
					return Update{Relation: "B",
						Rec: value.Record{value.Int(int64(r.Intn(6))), value.Int(int64(r.Intn(6)))}, Insert: insert}
				default:
					return Update{Relation: "A",
						Rec: value.Record{value.Int(int64(r.Intn(6))), value.Int(int64(r.Intn(6)))}, Insert: insert}
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			prog := compile(t, tc.src)
			rt, err := New(prog, Options{Collect: true})
			if err != nil {
				t.Fatal(err)
			}
			r := rand.New(rand.NewSource(7))
			outputs := func() map[string]map[string]value.Record {
				m := make(map[string]map[string]value.Record)
				for _, rel := range prog.Relations {
					if rel.Role.String() != "output" {
						continue
					}
					recs, err := rt.Contents(rel.Name)
					if err != nil {
						t.Fatal(err)
					}
					byKey := make(map[string]value.Record, len(recs))
					for _, rec := range recs {
						byKey[rec.Key()] = rec
					}
					m[rel.Name] = byKey
				}
				return m
			}
			prev := outputs()
			for txn := 0; txn < 60; txn++ {
				var ups []Update
				for i := 0; i < 1+r.Intn(6); i++ {
					ups = append(ups, tc.gen(r, r.Intn(3) > 0))
				}
				if _, err := rt.Apply(ups); err != nil {
					t.Fatalf("txn %d: %v", txn, err)
				}
				cur := outputs()
				live := make(map[string]map[string]bool)
				for _, rel := range prog.Relations {
					if rel.Role.String() == "input" {
						recs, _ := rt.Contents(rel.Name)
						live[rel.Name] = make(map[string]bool, len(recs))
						for _, rec := range recs {
							live[rel.Name][rec.Key()] = true
						}
					}
				}
				for rel, byKey := range cur {
					for _, rec := range byKey {
						n, ok := rt.Explain(rel, rec, wideExplain)
						if !ok {
							t.Fatalf("txn %d: present fact %s%s unexplainable", txn, rel, rec)
						}
						inputs := make(map[string][]value.Record)
						if !leaves(n, inputs) {
							t.Fatalf("txn %d: incomplete proof for %s%s: %+v", txn, rel, rec, n)
						}
						// A leaf no longer in its input relation is a stale
						// derivation the fact kept.
						for in, recs := range inputs {
							for _, leaf := range recs {
								if !live[in][leaf.Key()] {
									t.Fatalf("txn %d: proof of %s%s uses %s%s, no longer an input",
										txn, rel, rec, in, leaf)
								}
							}
						}
						want, err := NaiveEval(prog, inputs)
						if err != nil {
							t.Fatalf("txn %d: naive: %v", txn, err)
						}
						found := false
						for _, w := range want[rel] {
							if w.Equal(rec) {
								found = true
								break
							}
						}
						if !found {
							t.Fatalf("txn %d: proof of %s%s does not re-derive it; leaves=%v",
								txn, rel, rec, inputs)
						}
					}
				}
				// Every fact that left the relation must be unexplainable.
				for rel, byKey := range prev {
					for key, rec := range byKey {
						if _, still := cur[rel][key]; still {
							continue
						}
						if _, ok := rt.Explain(rel, rec, wideExplain); ok {
							t.Fatalf("txn %d: retracted fact %s%s still explainable", txn, rel, rec)
						}
					}
				}
				prev = cur
			}
		})
	}
}

// TestProvenanceConcurrentExplainHammer drives Explain/ExplainRendered/
// ProvenanceStats from reader goroutines while transactions apply. Run
// under -race this pins the store-only read path: explaining never touches
// relation state.
func TestProvenanceConcurrentExplainHammer(t *testing.T) {
	prog := compile(t, reachProvSrc)
	rt, err := New(prog, Options{Collect: true})
	if err != nil {
		t.Fatal(err)
	}
	rt.prov.capacity = 256
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			r := rand.New(rand.NewSource(int64(g)))
			for {
				select {
				case <-stop:
					return
				default:
				}
				rec := strRec(fmt.Sprint(r.Intn(8)), fmt.Sprint(r.Intn(8)))
				if n, ok := rt.Explain("Reach", rec, ExplainOptions{MaxDepth: 8, MaxNodes: 64}); ok {
					got := make(map[string][]value.Record)
					leaves(n, got)
				}
				rt.ExplainRendered("Reach", rec.String(), ExplainOptions{})
				rt.ProvenanceStats()
				runtime.Gosched() // let appliers make progress
			}
		}(g)
	}
	r := rand.New(rand.NewSource(42))
	for txn := 0; txn < 150; txn++ {
		var ups []Update
		for i := 0; i < 1+r.Intn(8); i++ {
			rec := strRec(fmt.Sprint(r.Intn(8)), fmt.Sprint(r.Intn(8)))
			ups = append(ups, Update{Relation: "Edge", Rec: rec, Insert: r.Intn(3) > 0})
		}
		if _, err := rt.Apply(ups); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	wg.Wait()
}

// TestProvenanceOffZeroAlloc pins the gating contract: with
// Options.Collect off, the arrangement probe path performs zero
// allocations and the provenance store stays empty.
func TestProvenanceOffZeroAlloc(t *testing.T) {
	rt, p, seed := probeSetup(t)
	if rt.ProvenanceEnabled() {
		t.Fatal("provenance unexpectedly enabled")
	}
	ctx := &evalCtx{}
	run := func() {
		if err := rt.runPlan(ctx, p, seed, "", 1, viewAllNew, discardEmit); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm the scratch buffers
	if allocs := testing.AllocsPerRun(200, run); allocs != 0 {
		t.Fatalf("provenance-off probe path allocates %.1f times per run, want 0", allocs)
	}
	if st := rt.ProvenanceStats(); st != (ProvenanceStats{}) {
		t.Fatalf("provenance stats nonzero with collection off: %+v", st)
	}
}
