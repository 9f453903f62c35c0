package engine

import (
	"fmt"
	"hash/maphash"
	"sort"
	"strings"

	"repro/internal/dl/ast"
	"repro/internal/dl/typecheck"
	"repro/internal/dl/value"
	"repro/internal/dl/zset"
)

// index is an arrangement: the present tuples of a relation, grouped by the
// values of a fixed set of key columns. Indexes are the memory cost of
// incremental evaluation (cf. the paper's §2.2 discussion of indexing
// overhead); the ablation benchmarks quantify it.
type index struct {
	keyCols []int
	// buckets maps encoded key → (record key → entry).
	buckets map[string]map[string]bucketEnt
	// deletedTxn holds the records removed during the current transaction,
	// by key then record key, so "old view" lookups can see them until the
	// transaction ends.
	deletedTxn map[string]map[string]bucketEnt
}

// bucketEnt is one arranged record. phash caches the maphash of the
// record's canonical key (zero with provenance off): provenance capture
// reads the identity hash of every joined fact straight off the bucket
// instead of rehashing the key string per emit.
type bucketEnt struct {
	rec   value.Record
	phash uint64
}

func newIndex(keyCols []int) *index {
	return &index{
		keyCols:    keyCols,
		buckets:    make(map[string]map[string]bucketEnt),
		deletedTxn: make(map[string]map[string]bucketEnt),
	}
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
// pooled or stack buffers so arrangement maintenance and probes avoid
// allocating; the byte form is converted to a string only when it must be
// stored as a map key.
func (ix *index) keyAppend(dst []byte, rec value.Record) []byte {
	for _, c := range ix.keyCols {
		dst = rec[c].Encode(dst)
	}
	return dst
}

func (ix *index) insert(rec value.Record, recKey string, phash uint64) {
	bp := value.GetEncodeBuf()
	enc := ix.keyAppend(*bp, rec)
	b := ix.buckets[string(enc)] // zero-alloc map access
	if b == nil {
		b = make(map[string]bucketEnt)
		ix.buckets[string(enc)] = b
	}
	*bp = enc
	value.PutEncodeBuf(bp)
	b[recKey] = bucketEnt{rec: rec, phash: phash}
}

func (ix *index) remove(rec value.Record, recKey string, phash uint64) {
	bp := value.GetEncodeBuf()
	enc := ix.keyAppend(*bp, rec)
	if b := ix.buckets[string(enc)]; b != nil {
		delete(b, recKey)
		if len(b) == 0 {
			delete(ix.buckets, string(enc))
		}
	}
	d := ix.deletedTxn[string(enc)]
	if d == nil {
		d = make(map[string]bucketEnt)
		ix.deletedTxn[string(enc)] = d
	}
	*bp = enc
	value.PutEncodeBuf(bp)
	d[recKey] = bucketEnt{rec: rec, phash: phash}
}

func (ix *index) clearTxn() {
	if len(ix.deletedTxn) > 0 {
		ix.deletedTxn = make(map[string]map[string]bucketEnt)
	}
}

// relState is the runtime state of one relation.
type relState struct {
	rel       *typecheck.Relation
	id        int
	hidden    bool // engine-generated (group-input relations)
	recursive bool
	stratum   int
	// counts maps record key → entry. For non-recursive relations the
	// weight is the derivation count; for inputs and recursive relations it
	// is always 1 when present.
	counts map[string]countEntry
	// indexes by signature; indexList for iteration.
	indexes   map[string]*index
	indexList []*index
	// txnDelta is the set-level (presence) delta accumulated during the
	// current transaction; cleared when the transaction completes.
	txnDelta *zset.ZSet
	// negKeys tracks records whose derivation count is transiently
	// negative. The multilinear evaluation order may apply a retraction
	// before the matching insertion within one stratum; the invariant is
	// only that counts are non-negative once the stratum settles.
	negKeys map[string]bool
	// prov, when non-nil, is the runtime's provenance store: a retracted
	// fact drops its recorded derivations.
	prov *provStore
	// keyBytes sums the canonical-key lengths of the present tuples. It
	// is maintained on presence transitions (one integer add) and feeds
	// the memory-accounting estimates (profile.go MemoryStats).
	keyBytes int64
}

type countEntry struct {
	rec   value.Record
	count int64
	// phash is the maphash of the record's canonical key, computed once
	// when the entry is created (zero with provenance off). It seeds the
	// arrangement bucket entries and the provenance drop digests, so fact
	// identity is hashed once per insertion instead of once per use.
	phash uint64
}

func newRelState(rel *typecheck.Relation, id int, hidden bool) *relState {
	return &relState{
		rel:      rel,
		id:       id,
		hidden:   hidden,
		counts:   make(map[string]countEntry),
		indexes:  make(map[string]*index),
		txnDelta: zset.New(),
		negKeys:  make(map[string]bool),
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
	ix := newIndex(cols)
	// Populate from current contents (relevant when indexes are registered
	// against an already-loaded runtime; at startup relations are empty).
	for recKey, e := range rs.counts {
		if e.count > 0 {
			ix.insert(e.rec, recKey, e.phash)
		}
	}
	rs.indexes[sig] = ix
	rs.indexList = append(rs.indexList, ix)
	return ix
}

// present reports whether rec currently has positive count.
func (rs *relState) present(recKey string) bool { return rs.counts[recKey].count > 0 }

// applyCount adds w derivations of rec and returns the presence transition:
// +1 became present, -1 became absent, 0 unchanged. Counts may go
// transiently negative while a stratum is being processed (retractions can
// be applied before the matching insertions); checkSettled verifies
// non-negativity once the stratum settles.
// hh, when non-zero, is the caller's already-computed maphash of recKey
// (plan emits hash the head key for the provenance store); zero means
// "compute it here if provenance needs it".
func (rs *relState) applyCount(rec value.Record, recKey string, w int64, hh uint64) (int, error) {
	e, ok := rs.counts[recKey]
	if !ok {
		e = countEntry{rec: rec}
		if rs.prov != nil {
			if hh == 0 {
				hh = maphash.String(provSeed, recKey)
			}
			e.phash = hh
		}
	}
	before := e.count > 0
	e.count += w
	if e.count == 0 {
		delete(rs.counts, recKey)
	} else {
		rs.counts[recKey] = e
	}
	if e.count < 0 {
		rs.negKeys[recKey] = true
	} else {
		delete(rs.negKeys, recKey)
	}
	after := e.count > 0
	switch {
	case !before && after:
		rs.noteInsert(rec, recKey, e.phash)
		return 1, nil
	case before && !after:
		rs.noteRemove(rec, recKey, e.phash)
		return -1, nil
	default:
		return 0, nil
	}
}

// checkSettled verifies that no derivation count is negative once the
// relation's stratum has settled.
func (rs *relState) checkSettled() error {
	if len(rs.negKeys) == 0 {
		return nil
	}
	for key := range rs.negKeys {
		return fmt.Errorf("engine: relation %s: derivation count for %s settled negative",
			rs.rel.Name, rs.counts[key].rec)
	}
	return nil
}

// setPresent forces rec present (recursive relations). Reports whether the
// state changed.
func (rs *relState) setPresent(rec value.Record, recKey string) bool {
	if rs.present(recKey) {
		return false
	}
	e := countEntry{rec: rec, count: 1}
	if rs.prov != nil {
		e.phash = maphash.String(provSeed, recKey)
	}
	rs.counts[recKey] = e
	rs.noteInsert(rec, recKey, e.phash)
	return true
}

// setAbsent forces rec absent (recursive relations). Reports whether the
// state changed.
func (rs *relState) setAbsent(rec value.Record, recKey string) bool {
	e, ok := rs.counts[recKey]
	if !ok || e.count <= 0 {
		return false
	}
	delete(rs.counts, recKey)
	rs.noteRemove(rec, recKey, e.phash)
	return true
}

func (rs *relState) noteInsert(rec value.Record, recKey string, phash uint64) {
	for _, ix := range rs.indexList {
		ix.insert(rec, recKey, phash)
	}
	rs.keyBytes += int64(len(recKey))
	rs.txnDelta.AddKeyed(rec, recKey, 1)
}

func (rs *relState) noteRemove(rec value.Record, recKey string, phash uint64) {
	for _, ix := range rs.indexList {
		ix.remove(rec, recKey, phash)
	}
	rs.keyBytes -= int64(len(recKey))
	rs.txnDelta.AddKeyed(rec, recKey, -1)
	// Only rule and aggregate heads record provenance; input facts are
	// never in the store, so skip the drop for them. The fact's digest is
	// the entry's cached key hash folded with the relation id, so the drop
	// never hashes.
	if rs.prov != nil && !rs.isInput() {
		rs.prov.drop(provFold(phash, rs.id))
	}
}

func (rs *relState) clearTxn() {
	if !rs.txnDelta.IsEmpty() {
		rs.txnDelta = zset.New()
	}
	for _, ix := range rs.indexList {
		ix.clearTxn()
	}
}

// viewMode selects which version of the database a plan step reads.
type viewMode int

const (
	// viewConvention: literals before the seed read the old view, literals
	// after it the new view (the multilinear differentiation convention).
	viewConvention viewMode = iota
	// viewAllOld: every lookup reads the pre-transaction state (DRed
	// overdelete phase).
	viewAllOld
	// viewAllNew: every lookup reads the current state (DRed insertion and
	// rederivation phases, initial evaluation).
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

// iterBucket visits every record of the chosen view with the given index
// key, yielding each record with its canonical record key (the bucket's
// map key — provenance capture hashes it instead of re-encoding the
// record). The callback returns false to stop early; iterBucket reports
// whether iteration ran to completion. The key is taken as bytes
// (zero-alloc map access); both map lookups happen before the first
// yield, so callers may reuse the key buffer inside the callback.
func (rs *relState) iterBucket(ix *index, key []byte, old bool, f func(rec value.Record, recKey string, phash uint64) bool) bool {
	b := ix.buckets[string(key)]
	var dt map[string]bucketEnt
	if old {
		dt = ix.deletedTxn[string(key)]
	}
	if b != nil {
		for recKey, e := range b {
			if old && rs.txnDelta.WeightKey(recKey) > 0 {
				continue // net-inserted this transaction: not in the old view
			}
			if !f(e.rec, recKey, e.phash) {
				return false
			}
		}
	}
	for recKey, e := range dt {
		// Only net deletions were in the old view; a record deleted and
		// re-inserted in this transaction is yielded from the bucket.
		if rs.txnDelta.WeightKey(recKey) < 0 {
			if !f(e.rec, recKey, e.phash) {
				return false
			}
		}
	}
	return true
}

// bucketNonEmpty reports whether the chosen view has any record with the
// given index key.
func (rs *relState) bucketNonEmpty(ix *index, key []byte, old bool) bool {
	found := false
	rs.iterBucket(ix, key, old, func(value.Record, string, uint64) bool {
		found = true
		return false
	})
	return found
}

// contents returns a sorted snapshot of the present records.
func (rs *relState) contents() []value.Record {
	out := make([]value.Record, 0, len(rs.counts))
	for _, e := range rs.counts {
		if e.count > 0 {
			out = append(out, e.rec)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Compare(out[j]) < 0 })
	return out
}

// isInput reports whether the relation is externally fed.
func (rs *relState) isInput() bool { return rs.rel.Role == ast.RoleInput }
