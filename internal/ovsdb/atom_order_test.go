package ovsdb

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"
)

// oracleAtomKey is the string key atoms were once ordered and identified
// by. It is kept as the oracle for atomCompare, with one change: -0
// formats as 0, so ±0 are one value.
func oracleAtomKey(a Atom) string {
	switch v := a.(type) {
	case int64:
		return fmt.Sprintf("i%020d", uint64(v)+1<<63)
	case float64:
		if v == 0 {
			v = 0
		}
		return fmt.Sprintf("r%v", v)
	case bool:
		if v {
			return "b1"
		}
		return "b0"
	case string:
		return "s" + v
	case UUID:
		return "u" + string(v)
	case namedUUID:
		return "n" + string(v)
	default:
		panic(fmt.Sprintf("ovsdb: bad atom type %T", a))
	}
}

// oracleNewSet and oracleNewMap are NewSet and NewMap as they were built
// on oracleAtomKey.
func oracleNewSet(atoms ...Atom) *Set {
	seen := make(map[string]bool, len(atoms))
	out := make([]Atom, 0, len(atoms))
	for _, a := range atoms {
		k := oracleAtomKey(a)
		if !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	sort.Slice(out, func(i, j int) bool { return oracleAtomKey(out[i]) < oracleAtomKey(out[j]) })
	return &Set{Atoms: out}
}

func oracleNewMap(pairs ...[2]Atom) *Map {
	byKey := make(map[string][2]Atom, len(pairs))
	for _, p := range pairs {
		byKey[oracleAtomKey(p[0])] = p
	}
	out := make([][2]Atom, 0, len(byKey))
	for _, p := range byKey {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return oracleAtomKey(out[i][0]) < oracleAtomKey(out[j][0]) })
	return &Map{Pairs: out}
}

// atomPool draws atoms of one kind, edge values included.
var atomPool = map[string]func(r *rand.Rand) Atom{
	"int": func(r *rand.Rand) Atom {
		edges := []int64{math.MinInt64, math.MaxInt64, 0, 1, -1, math.MinInt64 + 1, math.MaxInt64 - 1}
		switch r.Intn(3) {
		case 0:
			return edges[r.Intn(len(edges))]
		case 1:
			return int64(r.Intn(41) - 20)
		}
		return int64(r.Uint64())
	},
	"string": func(r *rand.Rand) Atom {
		edges := []string{"", "\x00", "�", "a\x00", "a", "ab", "b", "\xff", "é"}
		if r.Intn(2) == 0 {
			return edges[r.Intn(len(edges))]
		}
		b := make([]byte, r.Intn(4))
		for i := range b {
			b[i] = "a\x00\xffz"[r.Intn(4)]
		}
		return string(b)
	},
	"uuid": func(r *rand.Rand) Atom {
		if r.Intn(3) == 0 {
			return ZeroUUID
		}
		return UUID(fmt.Sprintf("%08x-0000-4000-8000-%012x", r.Intn(4), r.Intn(4)))
	},
	"named": func(r *rand.Rand) Atom {
		return namedUUID([]string{"", "a", "b", "row1", "row10", "row2"}[r.Intn(6)])
	},
	"bool": func(r *rand.Rand) Atom { return r.Intn(2) == 0 },
	"real": func(r *rand.Rand) Atom {
		edges := []float64{1, -1, 2.5, 9, 10, 1e21, 1e-7, -0.5, 123456789.125,
			math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
			math.Inf(1), math.Inf(-1), 1e20, 1e-4, 1e-5}
		if r.Intn(2) == 0 {
			return edges[r.Intn(len(edges))]
		}
		return float64(r.Intn(200)-100) / 8
	},
}

var atomKinds = []string{"int", "string", "uuid", "named", "bool", "real"}

func sign(n int) int {
	switch {
	case n < 0:
		return -1
	case n > 0:
		return 1
	}
	return 0
}

// TestAtomCompareMatchesKeyOrder holds atomCompare, atomEqual,
// appendAtomKey, NewSet and NewMap to the key-string oracle on seeded
// draws: within each kind, across kinds, and for sets and maps with
// duplicate elements and keys.
func TestAtomCompareMatchesKeyOrder(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	draw := func(kinds []string) Atom { return atomPool[kinds[r.Intn(len(kinds))]](r) }
	for i := 0; i < 20000; i++ {
		kinds := atomKinds
		if i%2 == 0 {
			kinds = []string{atomKinds[i/2%len(atomKinds)]}
		}
		a, b := draw(kinds), draw(kinds)
		ka, kb := oracleAtomKey(a), oracleAtomKey(b)
		if got, want := sign(atomCompare(a, b)), strings.Compare(ka, kb); got != want {
			t.Fatalf("atomCompare(%#v, %#v) = %d, key order %d (%q vs %q)", a, b, got, want, ka, kb)
		}
		if got, want := atomEqual(a, b), ka == kb; got != want {
			t.Fatalf("atomEqual(%#v, %#v) = %v, want %v", a, b, got, want)
		}
		if got := string(appendAtomKey(nil, a)); got != ka {
			t.Fatalf("appendAtomKey(%#v) = %q, want %q", a, got, ka)
		}
	}
	for i := 0; i < 3000; i++ {
		kinds := atomKinds
		if i%2 == 0 {
			kinds = []string{atomKinds[i/2%len(atomKinds)]}
		}
		atoms := make([]Atom, r.Intn(12))
		for j := range atoms {
			atoms[j] = draw(kinds)
		}
		if got, want := NewSet(atoms...), oracleNewSet(atoms...); !reflect.DeepEqual(got.Atoms, want.Atoms) {
			t.Fatalf("NewSet(%#v) = %#v, oracle %#v", atoms, got.Atoms, want.Atoms)
		}
		pairs := make([][2]Atom, len(atoms))
		for j, a := range atoms {
			pairs[j] = [2]Atom{a, int64(j)} // distinct values: last-wins is visible
		}
		got, want := NewMap(pairs...), oracleNewMap(pairs...)
		if !reflect.DeepEqual(got.Pairs, want.Pairs) {
			t.Fatalf("NewMap(%#v) = %#v, oracle %#v", pairs, got.Pairs, want.Pairs)
		}
		set, probe := NewSet(atoms...), draw(kinds)
		if got, want := set.Contains(probe), slices.ContainsFunc(atoms, func(a Atom) bool { return oracleAtomKey(a) == oracleAtomKey(probe) }); got != want {
			t.Fatalf("%#v.Contains(%#v) = %v, want %v", set.Atoms, probe, got, want)
		}
		for _, a := range atoms {
			if v, ok := got.Get(a); !ok || v != want.Pairs[indexOfKey(want, a)][1] {
				t.Fatalf("Get(%#v) = %v, %v", a, v, ok)
			}
		}
	}
}

func indexOfKey(m *Map, a Atom) int {
	for i, p := range m.Pairs {
		if oracleAtomKey(p[0]) == oracleAtomKey(a) {
			return i
		}
	}
	return -1
}

// TestRealZeroIsOneValue: ±0 are one real (RFC 7047 compares reals
// numerically). A set keeps one of them, equality and the identity key
// do not tell them apart.
func TestRealZeroIsOneValue(t *testing.T) {
	negZero := math.Copysign(0, -1)
	if s := NewSet(0.0, negZero); len(s.Atoms) != 1 {
		t.Fatalf("NewSet(0, -0) = %v, want one atom", s.Atoms)
	}
	if !atomEqual(0.0, negZero) || !ValueEqual(negZero, 0.0) {
		t.Fatal("0 and -0 compare unequal")
	}
	if valueKey(negZero) != valueKey(0.0) {
		t.Fatalf("valueKey(-0) = %q, valueKey(0) = %q", valueKey(negZero), valueKey(0.0))
	}
	if m := NewMap([2]Atom{negZero, "a"}, [2]Atom{0.0, "b"}); len(m.Pairs) != 1 || m.Pairs[0][1] != "b" {
		t.Fatalf("NewMap(-0→a, 0→b) = %v, want one pair, b", m.Pairs)
	}
}

// TestAtomCompareZeroAlloc pins the typed order's cost: comparing,
// looking up in a set or map allocates nothing, and NewSet allocates
// its atoms and the set, whatever its size.
func TestAtomCompareZeroAlloc(t *testing.T) {
	atoms := make([]Atom, 64)
	for i := range atoms {
		atoms[i] = int64(1000 - 37*i)
	}
	s := NewSet(atoms...)
	pairs := make([][2]Atom, len(atoms))
	for i, a := range atoms {
		pairs[i] = [2]Atom{a, "v"}
	}
	m := NewMap(pairs...)
	var a, b Atom = int64(5000), int64(-5000)
	var ra, rb Atom = 2.5, 1e21
	var sa, sb Atom = "port17", "port170"
	for name, f := range map[string]func(){
		"atomEqual": func() {
			_ = atomEqual(a, b) || atomEqual(ra, rb) || atomEqual(sa, sb)
		},
		"Set.Contains": func() { _ = s.Contains(a) || s.Contains(atoms[63]) },
		"Map.Get":      func() { _, _ = m.Get(a); _, _ = m.Get(atoms[63]) },
	} {
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s: %v allocs, want 0", name, n)
		}
	}
	for _, n := range []int{8, 64} {
		if got := testing.AllocsPerRun(200, func() { NewSet(atoms[:n]...) }); got > 2 {
			t.Errorf("NewSet of %d ints: %v allocs, want ≤ 2", n, got)
		}
	}
}
