package zset

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/dl/value"
)

func rec(vs ...int64) value.Record {
	r := make(value.Record, len(vs))
	for i, v := range vs {
		r[i] = value.Int(v)
	}
	return r
}

func TestAddConsolidates(t *testing.T) {
	z := New()
	z.Add(rec(1), 2)
	z.Add(rec(1), -1)
	if got := z.Weight(rec(1)); got != 1 {
		t.Errorf("weight = %d, want 1", got)
	}
	z.Add(rec(1), -1)
	if z.Weight(rec(1)) != 0 || z.Len() != 0 {
		t.Errorf("zero-weight entry not removed")
	}
	if w := z.Add(rec(2), 0); w != 0 || z.Len() != 0 {
		t.Errorf("Add with weight 0 created an entry")
	}
}

func TestAddAllAndNegate(t *testing.T) {
	a := FromEntries(Entry{rec(1), 1}, Entry{rec(2), 2})
	b := FromEntries(Entry{rec(2), -2}, Entry{rec(3), 5})
	a.AddAll(b)
	want := FromEntries(Entry{rec(1), 1}, Entry{rec(3), 5})
	if !a.Equal(want) {
		t.Errorf("AddAll result = %v, want %v", a.Entries(), want.Entries())
	}
	a.AddAll(negate(a))
	if !a.IsEmpty() {
		t.Errorf("z - z != empty")
	}
}

// negate returns a new Z-set with all of z's weights negated.
func negate(z *ZSet) *ZSet {
	n := New()
	for _, e := range z.Entries() {
		n.Add(e.Rec, -e.Weight)
	}
	return n
}

func TestEntriesDeterministic(t *testing.T) {
	z := FromEntries(Entry{rec(3), 1}, Entry{rec(1), 1}, Entry{rec(2), 1})
	es := z.Entries()
	for i := 1; i < len(es); i++ {
		if es[i-1].Rec.Compare(es[i].Rec) >= 0 {
			t.Fatalf("Entries not sorted: %v", es)
		}
	}
}

type qz struct{ z *ZSet }

func (qz) Generate(r *rand.Rand, _ int) reflect.Value {
	z := New()
	for i := 0; i < r.Intn(10); i++ {
		z.Add(rec(int64(r.Intn(5))), int64(r.Intn(7)-3))
	}
	return reflect.ValueOf(qz{z})
}

// Z-sets form an abelian group under AddAll.
func TestPropGroupLaws(t *testing.T) {
	add := func(a, b *ZSet) *ZSet {
		c := New()
		c.AddAll(a)
		c.AddAll(b)
		return c
	}
	commutes := func(a, b qz) bool { return add(a.z, b.z).Equal(add(b.z, a.z)) }
	assoc := func(a, b, c qz) bool {
		return add(add(a.z, b.z), c.z).Equal(add(a.z, add(b.z, c.z)))
	}
	inverse := func(a qz) bool { return add(a.z, negate(a.z)).IsEmpty() }
	identity := func(a qz) bool { return add(a.z, New()).Equal(a.z) }
	for name, f := range map[string]any{
		"commutes": commutes, "assoc": assoc, "inverse": inverse, "identity": identity,
	} {
		if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
}
