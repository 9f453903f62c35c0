// Package ovsdb implements the management plane: an OVSDB-style (RFC 7047)
// transactional database with typed schemas, a JSON-RPC wire protocol, and
// monitor-based change streaming — the property the paper relies on to
// drive the control plane ("it can stream a database's ongoing series of
// changes, grouped into transactions, to a subscriber").
package ovsdb

import (
	"crypto/rand"
	"fmt"
	"sort"
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
// sorted by their canonical key for deterministic output.
type Set struct {
	Atoms []Atom
}

// Map is an OVSDB map value. Pairs are kept sorted by key.
type Map struct {
	Pairs [][2]Atom
}

// Value is an OVSDB column value: an Atom, *Set, or *Map.
type Value any

// atomKey returns a canonical ordering/identity key for an atom.
func atomKey(a Atom) string {
	switch v := a.(type) {
	case int64:
		return fmt.Sprintf("i%020d", uint64(v)+1<<63)
	case float64:
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

// atomEqual reports equality of two atoms.
func atomEqual(a, b Atom) bool { return atomKey(a) == atomKey(b) }

// NewSet builds a set, deduplicating and sorting its atoms.
func NewSet(atoms ...Atom) *Set {
	seen := make(map[string]bool, len(atoms))
	out := make([]Atom, 0, len(atoms))
	for _, a := range atoms {
		k := atomKey(a)
		if !seen[k] {
			seen[k] = true
			out = append(out, a)
		}
	}
	sortAtoms(out)
	return &Set{Atoms: out}
}

func sortAtoms(atoms []Atom) {
	sort.Slice(atoms, func(i, j int) bool { return atomKey(atoms[i]) < atomKey(atoms[j]) })
}

// Contains reports whether the set holds the atom.
func (s *Set) Contains(a Atom) bool {
	k := atomKey(a)
	for _, x := range s.Atoms {
		if atomKey(x) == k {
			return true
		}
	}
	return false
}

// NewMap builds a map value from key/value pairs, keeping the last value
// for duplicate keys and sorting by key.
func NewMap(pairs ...[2]Atom) *Map {
	byKey := make(map[string][2]Atom, len(pairs))
	for _, p := range pairs {
		byKey[atomKey(p[0])] = p
	}
	out := make([][2]Atom, 0, len(byKey))
	for _, p := range byKey {
		out = append(out, p)
	}
	sort.Slice(out, func(i, j int) bool { return atomKey(out[i][0]) < atomKey(out[j][0]) })
	return &Map{Pairs: out}
}

// Get returns the value stored under key, if any.
func (m *Map) Get(key Atom) (Atom, bool) {
	k := atomKey(key)
	for _, p := range m.Pairs {
		if atomKey(p[0]) == k {
			return p[1], true
		}
	}
	return nil, false
}

// valueKey returns a canonical identity key for any Value.
func valueKey(v Value) string {
	switch v := v.(type) {
	case *Set:
		var sb strings.Builder
		sb.WriteString("S{")
		for _, a := range v.Atoms {
			sb.WriteString(atomKey(a))
			sb.WriteByte(';')
		}
		sb.WriteByte('}')
		return sb.String()
	case *Map:
		var sb strings.Builder
		sb.WriteString("M{")
		for _, p := range v.Pairs {
			sb.WriteString(atomKey(p[0]))
			sb.WriteByte('=')
			sb.WriteString(atomKey(p[1]))
			sb.WriteByte(';')
		}
		sb.WriteByte('}')
		return sb.String()
	default:
		return atomKey(v)
	}
}

// ValueEqual reports deep equality of two OVSDB values.
func ValueEqual(a, b Value) bool { return valueKey(a) == valueKey(b) }

// namedUUID marks a not-yet-resolved named UUID reference inside a
// transaction. It must never escape a committed row.
type namedUUID string
