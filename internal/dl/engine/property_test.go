package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/dl/ast"
	"repro/internal/dl/typecheck"
	"repro/internal/dl/value"
	"repro/internal/dl/zset"
)

// deltasEqual reports whether two transaction deltas are identical, and if
// not, describes the first difference.
func deltasEqual(a, b Delta) (bool, string) {
	if len(a) != len(b) {
		return false, fmt.Sprintf("delta relation count %d vs %d", len(a), len(b))
	}
	for rel, za := range a {
		zb, ok := b[rel]
		if !ok {
			return false, fmt.Sprintf("relation %s missing", rel)
		}
		ea, eb := za.Entries(), zb.Entries()
		if len(ea) != len(eb) {
			return false, fmt.Sprintf("%s: %d vs %d entries", rel, len(ea), len(eb))
		}
		for i := range ea {
			if !ea[i].Rec.Equal(eb[i].Rec) || ea[i].Weight != eb[i].Weight {
				return false, fmt.Sprintf("%s[%d]: %v*%d vs %v*%d",
					rel, i, ea[i].Rec, ea[i].Weight, eb[i].Rec, eb[i].Weight)
			}
		}
	}
	return true, ""
}

// naiveDelta is the output delta the naive evaluator implies for one
// transaction: the set difference, per output relation, of its contents
// after and before.
func naiveDelta(prog *typecheck.Program, before, after map[string][]value.Record) Delta {
	d := make(Delta)
	for _, rel := range prog.Relations {
		if rel.Role != ast.RoleOutput {
			continue
		}
		z := zset.New()
		for _, rec := range after[rel.Name] {
			z.Add(rec, 1)
		}
		for _, rec := range before[rel.Name] {
			z.Add(rec, -1)
		}
		if !z.IsEmpty() {
			d[rel.Name] = z
		}
	}
	return d
}

// runEquivalenceOpts drives seeded random transactions through an
// incremental runtime and, after each one, the naive reference evaluator
// over the accumulated inputs. Every relation's contents must equal the
// naive recomputation, and the transaction's output delta must equal the
// difference between consecutive naive results.
func runEquivalenceOpts(t *testing.T, src string, opts Options, gen func(r *rand.Rand, insert bool) Update, txns, opsPerTxn int, seed int64) {
	t.Helper()
	prog := compile(t, src)
	rt, err := New(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(seed))
	live := make(map[string]map[string]value.Record) // accumulated inputs
	for _, rel := range prog.Relations {
		if rel.Role == ast.RoleInput {
			live[rel.Name] = make(map[string]value.Record)
		}
	}
	prev, err := NaiveEval(prog, nil)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	for txn := 0; txn < txns; txn++ {
		var ups []Update
		for i := 0; i < 1+r.Intn(opsPerTxn); i++ {
			u := gen(r, r.Intn(3) > 0)
			ups = append(ups, u)
			if u.Insert {
				live[u.Relation][u.Rec.Key()] = u.Rec
			} else {
				delete(live[u.Relation], u.Rec.Key())
			}
		}
		delta, err := rt.Apply(ups)
		if err != nil {
			t.Fatalf("seed %d txn %d: %v", seed, txn, err)
		}
		inputs := make(map[string][]value.Record)
		for name, m := range live {
			for _, rec := range m {
				inputs[name] = append(inputs[name], rec)
			}
		}
		want, err := NaiveEval(prog, inputs)
		if err != nil {
			t.Fatalf("naive: %v", err)
		}
		for _, rel := range prog.Relations {
			got, _ := rt.Contents(rel.Name)
			if len(got) != len(want[rel.Name]) {
				t.Fatalf("seed %d txn %d: %s has %d records, naive %d\nincremental: %v\nnaive: %v",
					seed, txn, rel.Name, len(got), len(want[rel.Name]), got, want[rel.Name])
			}
			for i := range got {
				if !got[i].Equal(want[rel.Name][i]) {
					t.Fatalf("seed %d txn %d: %s[%d] = %v, naive %v", seed, txn, rel.Name, i, got[i], want[rel.Name][i])
				}
			}
		}
		if ok, diff := deltasEqual(delta, naiveDelta(prog, prev, want)); !ok {
			t.Fatalf("seed %d txn %d: delta diverged from naive: %s", seed, txn, diff)
		}
		prev = want
	}
}

// runEquivalence is runEquivalenceOpts with default options.
func runEquivalence(t *testing.T, src string, gen func(r *rand.Rand, insert bool) Update, txns, opsPerTxn int, seed int64) {
	t.Helper()
	runEquivalenceOpts(t, src, Options{}, gen, txns, opsPerTxn, seed)
}

// runEquivalenceWide runs one seed with collection off and on; on, every
// emit also writes the provenance store.
func runEquivalenceWide(t *testing.T, src string, gen func(r *rand.Rand, insert bool) Update, txns, opsPerTxn int, seed int64) {
	t.Helper()
	for _, opts := range []Options{{}, {Collect: true}} {
		runEquivalenceOpts(t, src, opts, gen, txns, opsPerTxn, seed)
	}
}

// The generators below draw from wider universes and the runs use larger
// transactions than the TestPropEquivalence* tests, so single transactions
// regularly carry dozens of seedings per stratum.

func genReach(r *rand.Rand, insert bool) Update {
	if r.Intn(5) == 0 {
		return Update{
			Relation: "GivenLabel",
			Rec:      strRec(fmt.Sprintf("n%d", r.Intn(8)), fmt.Sprintf("L%d", r.Intn(2))),
			Insert:   insert,
		}
	}
	return Update{
		Relation: "Edge",
		Rec:      strRec(fmt.Sprintf("n%d", r.Intn(8)), fmt.Sprintf("n%d", r.Intn(8))),
		Insert:   insert,
	}
}

func TestPropWideReachability(t *testing.T) {
	runEquivalenceWide(t, reachSrc, genReach, 50, 8, 11)
	runEquivalenceWide(t, reachSrc, genReach, 50, 8, 12)
}

func TestPropWideNegationJoin(t *testing.T) {
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
	runEquivalenceWide(t, src, gen, 60, 8, 13)
}

func TestPropWideAggregation(t *testing.T) {
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
	runEquivalenceWide(t, src, gen, 60, 8, 14)
}

func TestPropWideMutualRecursion(t *testing.T) {
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
			Rec:      strRec(fmt.Sprintf("n%d", r.Intn(6)), fmt.Sprintf("n%d", r.Intn(6))),
			Insert:   insert,
		}
	}
	runEquivalenceWide(t, src, gen, 50, 6, 15)
}

// TestQuickIncrementalVsNaive is the testing/quick form of the invariant:
// for any seed, a short random transaction sequence against the
// reachability program yields the naive evaluator's contents and deltas.
func TestQuickIncrementalVsNaive(t *testing.T) {
	f := func(seed int64) bool {
		runEquivalenceOpts(t, reachSrc, Options{}, genReach, 10, 10, seed)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}
