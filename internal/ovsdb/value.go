// Package ovsdb implements the management plane: an OVSDB-style (RFC 7047)
// transactional database with typed schemas, a JSON-RPC wire protocol, and
// monitor-based change streaming — the property the paper relies on to
// drive the control plane ("it can stream a database's ongoing series of
// changes, grouped into transactions, to a subscriber").
package ovsdb

import (
	"bytes"
	"cmp"
	"crypto/rand"
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// UUID is a canonically formatted RFC 4122 UUID string.
type UUID string

// NewUUID returns a fresh random (version 4) UUID.
func NewUUID() UUID {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic("ovsdb: no entropy: " + err.Error())
	}
	b[6] = b[6]&0x0f | 0x40
	b[8] = b[8]&0x3f | 0x80
	// Hand-rolled hex: this sits on the insert hot path, where
	// fmt.Sprintf costs several allocations per ID.
	const hexdigits = "0123456789abcdef"
	var out [36]byte
	j := 0
	for i, v := range b {
		switch i {
		case 4, 6, 8, 10:
			out[j] = '-'
			j++
		}
		out[j] = hexdigits[v>>4]
		out[j+1] = hexdigits[v&0x0f]
		j += 2
	}
	return UUID(out[:])
}

// ZeroUUID is the all-zero UUID used as the default for uuid columns.
const ZeroUUID = UUID("00000000-0000-0000-0000-000000000000")

// Atom is a scalar OVSDB value: int64, float64, bool, string, or UUID.
type Atom any

// Set is an OVSDB set value (unordered, no duplicates). The atoms are kept
// in canonical order (atomCompare) for deterministic output, and Contains
// searches them in it: build sets with NewSet.
type Set struct {
	Atoms []Atom
}

// Map is an OVSDB map value. Pairs are kept sorted by key in canonical
// atom order, which Get searches in: build maps with NewMap.
type Map struct {
	Pairs [][2]Atom
}

// Value is an OVSDB column value: an Atom, *Set, or *Map.
type Value any

// Atom kinds in canonical order: a set sorts its atoms by kind first,
// then by value within the kind.
const (
	kindBool = iota
	kindInt
	kindNamedUUID
	kindReal
	kindString
	kindUUID
)

func atomKind(a Atom) int {
	switch a.(type) {
	case bool:
		return kindBool
	case int64:
		return kindInt
	case namedUUID:
		return kindNamedUUID
	case float64:
		return kindReal
	case string:
		return kindString
	case UUID:
		return kindUUID
	default:
		panic(fmt.Sprintf("ovsdb: bad atom type %T", a))
	}
}

// atomCompare is the canonical atom order: by kind (bool, integer, named
// UUID, real, string, UUID), then by value. Integers compare
// numerically, strings and UUIDs bytewise, false before true. Reals
// compare by their shortest decimal form (strconv 'g', as %v prints
// them), with -0 written as 0, so ±0 are one value. The order is the
// byte order of appendAtomKey's keys, which sets, maps and the wire
// have always been sorted by.
func atomCompare(a, b Atom) int {
	ka, kb := atomKind(a), atomKind(b)
	if ka != kb {
		return cmp.Compare(ka, kb)
	}
	switch x := a.(type) {
	case bool:
		y := b.(bool)
		switch {
		case x == y:
			return 0
		case y:
			return -1
		}
		return 1
	case int64:
		return cmp.Compare(x, b.(int64))
	case namedUUID:
		return strings.Compare(string(x), string(b.(namedUUID)))
	case float64:
		y := b.(float64)
		if x == y {
			return 0
		}
		var xb, yb [32]byte
		return bytes.Compare(appendReal(xb[:0], x), appendReal(yb[:0], y))
	case string:
		return strings.Compare(x, b.(string))
	default:
		return strings.Compare(string(x.(UUID)), string(b.(UUID)))
	}
}

// appendReal appends a real's canonical form: its shortest decimal, -0
// as 0.
func appendReal(dst []byte, v float64) []byte {
	if v == 0 {
		v = 0
	}
	return strconv.AppendFloat(dst, v, 'g', -1, 64)
}

// appendAtomKey appends an atom's canonical identity key: a kind letter
// and the value, laid out so that keys compare bytewise in atomCompare's
// order.
func appendAtomKey(dst []byte, a Atom) []byte {
	switch v := a.(type) {
	case int64:
		u := uint64(v) + 1<<63
		var digits [20]byte
		for i := len(digits) - 1; i >= 0; i-- {
			digits[i] = byte('0' + u%10)
			u /= 10
		}
		return append(append(dst, 'i'), digits[:]...)
	case float64:
		return appendReal(append(dst, 'r'), v)
	case bool:
		if v {
			return append(dst, "b1"...)
		}
		return append(dst, "b0"...)
	case string:
		return append(append(dst, 's'), v...)
	case UUID:
		return append(append(dst, 'u'), v...)
	case namedUUID:
		return append(append(dst, 'n'), v...)
	default:
		panic(fmt.Sprintf("ovsdb: bad atom type %T", a))
	}
}

// atomEqual reports equality of two atoms.
func atomEqual(a, b Atom) bool { return atomCompare(a, b) == 0 }

// NewSet builds a set, deduplicating and sorting its atoms. Of equal
// atoms (±0) the first is kept.
func NewSet(atoms ...Atom) *Set {
	out := append(make([]Atom, 0, len(atoms)), atoms...)
	slices.SortStableFunc(out, atomCompare)
	return &Set{Atoms: slices.CompactFunc(out, atomEqual)}
}

// Contains reports whether the set holds the atom.
func (s *Set) Contains(a Atom) bool {
	_, found := slices.BinarySearchFunc(s.Atoms, a, atomCompare)
	return found
}

// NewMap builds a map value from key/value pairs, keeping the last value
// for duplicate keys and sorting by key.
func NewMap(pairs ...[2]Atom) *Map {
	out := append(make([][2]Atom, 0, len(pairs)), pairs...)
	byKey := func(p, q [2]Atom) int { return atomCompare(p[0], q[0]) }
	slices.SortStableFunc(out, byKey)
	// Keep the last pair of each run of equal keys.
	n := 0
	for i, p := range out {
		if i+1 < len(out) && byKey(p, out[i+1]) == 0 {
			continue
		}
		out[n] = p
		n++
	}
	clear(out[n:])
	return &Map{Pairs: out[:n]}
}

// Get returns the value stored under key, if any.
func (m *Map) Get(key Atom) (Atom, bool) {
	i, found := slices.BinarySearchFunc(m.Pairs, key, func(p [2]Atom, k Atom) int { return atomCompare(p[0], k) })
	if !found {
		return nil, false
	}
	return m.Pairs[i][1], true
}

// appendValueKey appends a canonical identity key for any Value.
func appendValueKey(dst []byte, v Value) []byte {
	switch v := v.(type) {
	case *Set:
		dst = append(dst, "S{"...)
		for _, a := range v.Atoms {
			dst = append(appendAtomKey(dst, a), ';')
		}
		return append(dst, '}')
	case *Map:
		dst = append(dst, "M{"...)
		for _, p := range v.Pairs {
			dst = append(appendAtomKey(dst, p[0]), '=')
			dst = append(appendAtomKey(dst, p[1]), ';')
		}
		return append(dst, '}')
	default:
		return appendAtomKey(dst, v)
	}
}

// valueKey returns a canonical identity key for any Value.
func valueKey(v Value) string { return string(appendValueKey(nil, v)) }

// ValueEqual reports deep equality of two OVSDB values.
func ValueEqual(a, b Value) bool {
	switch x := a.(type) {
	case *Set:
		y, ok := b.(*Set)
		return ok && slices.EqualFunc(x.Atoms, y.Atoms, atomEqual)
	case *Map:
		y, ok := b.(*Map)
		return ok && slices.EqualFunc(x.Pairs, y.Pairs, func(p, q [2]Atom) bool {
			return atomEqual(p[0], q[0]) && atomEqual(p[1], q[1])
		})
	}
	switch b.(type) {
	case *Set, *Map:
		return false
	}
	return atomEqual(a, b)
}

// namedUUID marks a not-yet-resolved named UUID reference inside a
// transaction. It must never escape a committed row.
type namedUUID string
