// Package zset implements Z-sets: finite collections of records with signed
// integer weights. Z-sets are the algebra of incremental view maintenance
// (as in DBSP and Differential Datalog): a relation's contents is a Z-set
// with positive weights, and a change ("delta") is a Z-set whose positive
// entries are insertions and negative entries are deletions.
package zset

import (
	"slices"
	"sort"
	"strings"

	"repro/internal/dl/value"
)

// Entry is one weighted record of a Z-set.
type Entry struct {
	Rec    value.Record
	Weight int64
}

// ZSet is a mutable weighted collection of records keyed by canonical
// encoding. The zero value is not ready to use; call New.
type ZSet struct {
	m map[string]Entry
}

// New returns an empty Z-set.
func New() *ZSet { return &ZSet{m: make(map[string]Entry)} }

// NewSized returns an empty Z-set with capacity for n entries.
func NewSized(n int) *ZSet { return &ZSet{m: make(map[string]Entry, n)} }

// FromEntries builds a Z-set from the given entries, summing duplicates.
func FromEntries(entries ...Entry) *ZSet {
	z := NewSized(len(entries))
	for _, e := range entries {
		z.Add(e.Rec, e.Weight)
	}
	return z
}

// Add adds rec with weight w, consolidating immediately: entries whose
// weight reaches zero are removed. It returns the record's new weight.
func (z *ZSet) Add(rec value.Record, w int64) int64 {
	if w == 0 {
		return z.Weight(rec)
	}
	return z.AddKeyed(rec, rec.Key(), w)
}

// AddKeyed is Add with the record's canonical key already computed, so
// callers that hold the key (the engine's output deltas) avoid
// re-encoding the record.
func (z *ZSet) AddKeyed(rec value.Record, key string, w int64) int64 {
	if w == 0 {
		return z.m[key].Weight
	}
	e, ok := z.m[key]
	if !ok {
		z.m[key] = Entry{Rec: rec, Weight: w}
		return w
	}
	e.Weight += w
	if e.Weight == 0 {
		delete(z.m, key)
		return 0
	}
	z.m[key] = e
	return e.Weight
}

// AddAll adds every entry of other into z (z += other).
func (z *ZSet) AddAll(other *ZSet) {
	for k, e := range other.m {
		z.AddKeyed(e.Rec, k, e.Weight)
	}
}

// Weight returns the weight of rec (zero if absent).
func (z *ZSet) Weight(rec value.Record) int64 { return z.m[rec.Key()].Weight }

// Len returns the number of records with nonzero weight.
func (z *ZSet) Len() int { return len(z.m) }

// IsEmpty reports whether the Z-set has no entries.
func (z *ZSet) IsEmpty() bool { return len(z.m) == 0 }

// Entries returns the entries sorted by record order (deterministic).
func (z *ZSet) Entries() []Entry {
	out := make([]Entry, 0, len(z.m))
	for _, e := range z.m {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Rec.Compare(out[j].Rec) < 0 })
	return out
}

// Keyed is an entry with the canonical key of its record.
type Keyed struct {
	Key string
	Entry
}

// AppendSorted appends the entries to dst in the byte order of their
// canonical keys and returns the extended slice. The order is a function
// of the contents alone, and sorting compares the keys the Z-set already
// holds, not the records; a caller that reuses dst allocates nothing.
func (z *ZSet) AppendSorted(dst []Keyed) []Keyed {
	n := len(dst)
	for k, e := range z.m {
		dst = append(dst, Keyed{Key: k, Entry: e})
	}
	slices.SortFunc(dst[n:], func(a, b Keyed) int { return strings.Compare(a.Key, b.Key) })
	return dst
}

// Equal reports whether two Z-sets hold exactly the same weighted records.
func (z *ZSet) Equal(other *ZSet) bool {
	if len(z.m) != len(other.m) {
		return false
	}
	for k, e := range z.m {
		if other.m[k].Weight != e.Weight {
			return false
		}
	}
	return true
}
