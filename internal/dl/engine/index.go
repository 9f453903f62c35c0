package engine

import (
	"fmt"
	"hash/maphash"
	"sort"
	"strings"

	"repro/internal/dl/ast"
	"repro/internal/dl/typecheck"
	"repro/internal/dl/value"
)

// fact is one tuple of a relation, stored once: the relation's facts map,
// every arrangement bucket and the transaction's touched list all hold the
// same pointer. The record and its canonical key are allocated when the
// fact is first derived; every later derivation or retraction of it only
// moves count.
//
// A fact lives from its first derivation to the end of the transaction in
// which its count returns to zero (relState.endTxn sweeps it). Within a
// transaction it carries two views: its presence now (count > 0) and, once
// touched, its presence at the transaction start (wasPresent), which is
// what "old view" lookups read.
type fact struct {
	rec value.Record
	key string
	// count is the derivation count for non-recursive derived relations
	// (transiently negative while a stratum settles) and 0 or 1 for inputs
	// and recursive relations.
	count int64
	// phash is the maphash of key (zero with provenance off): provenance
	// capture and drops read the fact's identity hash instead of rehashing.
	phash uint64
	// pos[i] is the fact's slot in its bucket of the relation's i-th
	// arrangement while the fact is arranged; it lives in posBuf for
	// relations with few arrangements.
	pos    []int32
	posBuf [2]int32
	// touched: the fact is on its relation's touched list this transaction;
	// wasPresent: its presence at the transaction start (valid while
	// touched); arranged: it sits in every arrangement's bucket, which is
	// true from becoming present until the sweep after becoming absent.
	touched, wasPresent, arranged bool
	// mark is the fact's state while its recursive stratum deletes
	// (backward.go); unchecked otherwise.
	mark bfMark
}

// newFact allocates a fact together with the storage of its record, a
// copy of rec: one allocation for records of up to five columns.
func newFact(rec value.Record) *fact {
	var f *fact
	switch len(rec) {
	case 1:
		x := new(struct {
			fact
			vals [1]value.Value
		})
		f, x.rec = &x.fact, x.vals[:]
	case 2:
		x := new(struct {
			fact
			vals [2]value.Value
		})
		f, x.rec = &x.fact, x.vals[:]
	case 3:
		x := new(struct {
			fact
			vals [3]value.Value
		})
		f, x.rec = &x.fact, x.vals[:]
	case 4:
		x := new(struct {
			fact
			vals [4]value.Value
		})
		f, x.rec = &x.fact, x.vals[:]
	case 5:
		x := new(struct {
			fact
			vals [5]value.Value
		})
		f, x.rec = &x.fact, x.vals[:]
	default:
		f = &fact{rec: make(value.Record, len(rec))}
	}
	copy(f.rec, rec)
	return f
}

// presentIn reports the fact's presence in the chosen view.
func (f *fact) presentIn(old bool) bool {
	if old && f.touched {
		return f.wasPresent
	}
	return f.count > 0
}

// delta is the fact's net presence change this transaction: +1, -1 or 0.
func (f *fact) delta() int64 {
	switch now := f.count > 0; {
	case !f.touched || now == f.wasPresent:
		return 0
	case now:
		return 1
	default:
		return -1
	}
}

// index is an arrangement: the arranged facts of a relation, grouped by
// the values of a fixed set of key columns. Indexes are the memory cost of
// incremental evaluation (cf. the paper's §2.2 discussion of indexing
// overhead); the ablation benchmarks quantify it. A bucket holds every
// fact present now or at the transaction start; lookups filter by view.
type index struct {
	keyCols []int
	// ord is the index's position in its relation's indexList, so a fact's
	// slot in this index is fact.pos[ord].
	ord     int
	buckets map[string]*bucket
	// prefix: the key columns are the record's leading ones, so a bucket
	// key is a prefix of its first fact's canonical key and shares it.
	prefix bool
	// enc is the key-encoding scratch of insert and remove.
	enc []byte
}

// bucket is the facts of one index key, in no order. A fact knows its
// slot (fact.pos), so removal swaps the last fact into the hole. The
// first fact sits in one, inline, so a single-fact bucket is one
// allocation. key is the bucket's map key, kept to delete it by.
type bucket struct {
	facts []*fact
	one   [1]*fact
	key   string
}

func newIndex(keyCols []int, ord int) *index {
	ix := &index{keyCols: keyCols, ord: ord, buckets: make(map[string]*bucket), prefix: true}
	for i, c := range keyCols {
		ix.prefix = ix.prefix && c == i
	}
	return ix
}

func indexSignature(keyCols []int) string {
	var sb strings.Builder
	for i, c := range keyCols {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%d", c)
	}
	return sb.String()
}

// keyAppend appends the encoded index key of a record to dst. Callers pass
// scratch buffers so arrangement maintenance and probes avoid allocating;
// the byte form is converted to a string only when it must be stored as a
// map key.
func (ix *index) keyAppend(dst []byte, rec value.Record) []byte {
	for _, c := range ix.keyCols {
		dst = rec[c].Encode(dst)
	}
	return dst
}

// factsOf returns the facts of an encoded key's bucket, of every view
// (zero-alloc map access). Callers filter with fact.presentIn.
func (ix *index) factsOf(key []byte) []*fact {
	if b := ix.buckets[string(key)]; b != nil {
		return b.facts
	}
	return nil
}

func (ix *index) insert(f *fact) {
	ix.enc = ix.keyAppend(ix.enc[:0], f.rec)
	enc := ix.enc
	b := ix.buckets[string(enc)]
	if b == nil {
		b = &bucket{}
		b.facts = b.one[:0]
		if ix.prefix {
			b.key = f.key[:len(enc)]
		} else {
			b.key = string(enc)
		}
		ix.buckets[b.key] = b
	}
	f.pos[ix.ord] = int32(len(b.facts))
	b.facts = append(b.facts, f)
}

func (ix *index) remove(f *fact) {
	ix.enc = ix.keyAppend(ix.enc[:0], f.rec)
	b := ix.buckets[string(ix.enc)]
	last := len(b.facts) - 1
	if last == 0 {
		delete(ix.buckets, b.key)
	} else {
		i := f.pos[ix.ord]
		moved := b.facts[last]
		b.facts[i] = moved
		moved.pos[ix.ord] = i
		b.facts[last] = nil
		b.facts = b.facts[:last]
	}
}

// relState is the runtime state of one relation.
type relState struct {
	rel       *typecheck.Relation
	id        int
	hidden    bool // engine-generated (group-input relations)
	recursive bool
	stratum   int
	// facts maps canonical record key → fact. Between transactions it
	// holds exactly the present facts; within one it also holds facts
	// whose count is zero or negative until the sweep.
	facts map[string]*fact
	// indexes by signature; indexList for iteration.
	indexes   map[string]*index
	indexList []*index
	// last is the fact intern returned last, so the emit that follows an
	// intern finds it again by key without a map lookup. It is cleared
	// with the sweep, the only place facts leave the map.
	last *fact
	// touched lists, once each, the facts created or changing presence
	// in the current transaction (fact.touched): the relation's delta and
	// the sweep walk it, so per-transaction work is O(touched facts).
	touched []*fact
	// changed counts the touched facts whose presence differs from the
	// transaction start: the size of the relation's net delta.
	changed int
	// neg counts facts whose derivation count is negative. The multilinear
	// evaluation order may apply a retraction before the matching
	// insertion within one stratum; the invariant is only that counts are
	// non-negative once the stratum settles (checkSettled).
	neg int
	// prov, when non-nil, is the runtime's provenance store: a retracted
	// fact drops its recorded derivations.
	prov *provStore
	// keyBytes sums the canonical-key lengths of the present tuples. It
	// is maintained on presence transitions (one integer add) and feeds
	// the memory-accounting estimates (profile.go MemoryStats).
	keyBytes int64
}

func newRelState(rel *typecheck.Relation, id int, hidden bool) *relState {
	return &relState{
		rel:     rel,
		id:      id,
		hidden:  hidden,
		facts:   make(map[string]*fact),
		indexes: make(map[string]*index),
	}
}

// getIndex returns (registering on demand) the arrangement on keyCols.
func (rs *relState) getIndex(keyCols []int) *index {
	cols := append([]int(nil), keyCols...)
	sort.Ints(cols)
	sig := indexSignature(cols)
	if ix, ok := rs.indexes[sig]; ok {
		return ix
	}
	ix := newIndex(cols, len(rs.indexList))
	rs.indexes[sig] = ix
	rs.indexList = append(rs.indexList, ix)
	// Populate from current contents (relevant when indexes are registered
	// against an already-loaded runtime; at startup relations are empty).
	for _, f := range rs.facts {
		f.pos = append(f.pos, 0)
		if f.arranged {
			ix.insert(f)
		}
	}
	return ix
}

// find returns the fact with the given canonical key, or nil. The key is
// taken as bytes: the lookup does not allocate.
func (rs *relState) find(key []byte) *fact { return rs.facts[string(key)] }

// intern returns the fact whose canonical key is key (rec's encoding),
// creating it with count zero when the relation has none. Only a new fact
// allocates: it copies rec, which may be scratch, and key.
func (rs *relState) intern(rec value.Record, key []byte) *fact {
	f := rs.facts[string(key)]
	if f == nil {
		f = rs.add0(rec, string(key))
	}
	rs.last = f
	return f
}

// internKey is intern for a key already held as a string. An emit passes
// the key of the fact just interned, and comparing a string with itself
// is a pointer check.
func (rs *relState) internKey(rec value.Record, key string) *fact {
	if f := rs.last; f != nil && f.key == key {
		return f
	}
	if f := rs.facts[key]; f != nil {
		return f
	}
	return rs.add0(rec, key)
}

// add0 creates rec's fact with count zero, touched as absent at the
// transaction start.
func (rs *relState) add0(rec value.Record, key string) *fact {
	f := newFact(rec)
	f.key = key
	if n := len(rs.indexList); n <= len(f.posBuf) {
		f.pos = f.posBuf[:n]
	} else {
		f.pos = make([]int32, n)
	}
	if rs.prov != nil {
		f.phash = maphash.String(provSeed, key)
	}
	rs.facts[key] = f
	f.touched = true // wasPresent: false
	rs.touched = append(rs.touched, f)
	return f
}

// applyCount adds w derivations of rec and returns the presence transition:
// +1 became present, -1 became absent, 0 unchanged. Counts may go
// transiently negative while a stratum is being processed (retractions can
// be applied before the matching insertions); checkSettled verifies
// non-negativity once the stratum settles. A count change that keeps the
// fact's presence touches nothing but the count.
func (rs *relState) applyCount(rec value.Record, recKey string, w int64) int {
	return rs.add(rs.internKey(rec, recKey), w)
}

// add moves f's count by w and returns the presence transition.
func (rs *relState) add(f *fact, w int64) int {
	before := f.count
	f.count += w
	if (before < 0) != (f.count < 0) {
		if before < 0 {
			rs.neg--
		} else {
			rs.neg++
		}
	}
	switch was, now := before > 0, f.count > 0; {
	case was == now:
		return 0
	case now:
		rs.flip(f, was)
		if !f.arranged {
			f.arranged = true
			for _, ix := range rs.indexList {
				ix.insert(f)
			}
		}
		rs.keyBytes += int64(len(f.key))
		return 1
	default:
		rs.flip(f, was)
		rs.keyBytes -= int64(len(f.key))
		// Only rule and aggregate heads record provenance; input facts are
		// never in the store, so skip the drop for them. The fact's digest
		// is its cached key hash folded with the relation id, so the drop
		// never hashes.
		if rs.prov != nil && !rs.isInput() {
			rs.prov.drop(provFold(f.phash, rs.id))
		}
		return -1
	}
}

// flip records a presence transition of f away from was: f joins the
// touched list on its first transition, and the net delta size follows
// whether f now differs from the transaction start.
func (rs *relState) flip(f *fact, was bool) {
	if !f.touched {
		f.touched, f.wasPresent = true, was
		rs.touched = append(rs.touched, f)
	}
	if was == f.wasPresent {
		rs.changed++
	} else {
		rs.changed--
	}
}

// checkSettled verifies that no derivation count is negative once the
// relation's stratum has settled. Every negative fact was touched (counts
// start each transaction non-negative), so the search walks the touched
// list only when one exists.
func (rs *relState) checkSettled() error {
	if rs.neg == 0 {
		return nil
	}
	for _, f := range rs.touched {
		if f.count < 0 {
			return fmt.Errorf("engine: relation %s: derivation count for %s settled negative",
				rs.rel.Name, f.rec)
		}
	}
	return nil
}

// setPresent forces f present (inputs, recursive relations). Reports
// whether the state changed.
func (rs *relState) setPresent(f *fact) bool {
	if f.count > 0 {
		return false
	}
	rs.add(f, 1-f.count)
	return true
}

// setAbsent forces f absent (inputs, recursive relations). Reports whether
// the state changed.
func (rs *relState) setAbsent(f *fact) bool {
	if f.count <= 0 {
		return false
	}
	rs.add(f, -f.count)
	return true
}

// endTxn sweeps the transaction's touched facts: absent ones leave the
// arrangements, zero-count ones leave the relation, and every mark is
// cleared. The output delta must already have been read off the list.
func (rs *relState) endTxn() {
	for _, f := range rs.touched {
		f.touched = false
		if f.count > 0 {
			continue
		}
		if f.arranged {
			f.arranged = false
			for _, ix := range rs.indexList {
				ix.remove(f)
			}
		}
		if f.count == 0 {
			delete(rs.facts, f.key)
		}
	}
	clear(rs.touched)
	rs.touched = rs.touched[:0]
	rs.changed = 0
	rs.last = nil
}

// viewMode selects which version of the database a plan step reads.
type viewMode int

const (
	// viewConvention: literals before the seed read the old view, literals
	// after it the new view (the multilinear differentiation convention).
	viewConvention viewMode = iota
	// viewAllOld: every lookup reads the pre-transaction state (a
	// recursive stratum's search for lost derivations).
	viewAllOld
	// viewAllNew: every lookup reads the current state (a recursive
	// stratum's checks, saturation and insertion, initial evaluation).
	viewAllNew
)

// useOld decides, for a literal at bodyIdx relative to a seed at seedIdx,
// whether to read the old view.
func (m viewMode) useOld(bodyIdx, seedIdx int) bool {
	switch m {
	case viewAllOld:
		return true
	case viewAllNew:
		return false
	default:
		return bodyIdx < seedIdx
	}
}

// bucketNonEmpty reports whether the chosen view has any fact with the
// given index key.
func (rs *relState) bucketNonEmpty(ix *index, key []byte, old bool) bool {
	for _, f := range ix.factsOf(key) {
		if f.presentIn(old) {
			return true
		}
	}
	return false
}

// contents returns a sorted snapshot of the present records.
func (rs *relState) contents() []value.Record {
	out := make([]value.Record, 0, len(rs.facts))
	for _, f := range rs.facts {
		if f.count > 0 {
			out = append(out, f.rec)
		}
	}
	sortRecords(out)
	return out
}

func sortRecords(recs []value.Record) {
	sort.Slice(recs, func(i, j int) bool { return recs[i].Compare(recs[j]) < 0 })
}

// isInput reports whether the relation is externally fed.
func (rs *relState) isInput() bool { return rs.rel.Role == ast.RoleInput }
