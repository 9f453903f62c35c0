package engine

import (
	"hash/maphash"
	"strings"
	"sync"

	"repro/internal/dl/typecheck"
	"repro/internal/dl/value"
)

// This file implements the provenance layer: an optional record of *why*
// each derived fact exists — per derivation, the rule and the input facts
// that produced it. It is gated by Options.Collect: when off, the hot path
// carries only a single boolean write per plan run and stays
// allocation-free (TestArrangementProbeZeroAlloc).
//
// When on, Apply holds the store's mutex for the whole transaction and
// emit sites write the store in place: a record, retraction or drop is
// one open-addressing probe plus a slice edit, with fact containers and
// input arrays recycled through store-local freelists. Explain takes the
// same mutex, so it waits for an Apply in progress and only ever sees
// whole transactions.
//
// Correctness under the engine's evaluation modes:
//
//   - Counting strata: insertions (w>0) record a derivation, retractions
//     (w<0) unrecord one. A derivation's identity (sig) is an
//     order-independent hash of its rule label and input facts, so the
//     seeding plan used to produce or retract it is irrelevant — the
//     retraction emitted by any seeding of a rule removes the derivation
//     the matching insertion recorded. An unrecord can only remove a
//     derivation recorded before it, and a fact dropped later in the same
//     transaction is wiped whatever its unrecords did.
//   - Recursive strata (Backward/Forward, backward.go): the search for
//     lost derivations runs under viewAllOld at weight -1, so a surviving
//     fact unrecords exactly the derivations that used a deleted fact, as
//     in a counting stratum; a deleted fact drops its provenance wholesale
//     (relState.add → drop). The derivation that proves a surviving fact
//     is recorded first in its list, and proofs are found in dependency
//     order, so following first derivations never cycles back. Insertion
//     records like a counting stratum.
//
// The store is bounded (DefaultProvenanceCapacity facts, FIFO eviction;
// maxDerivationsPerFact alternates per fact) and Explain reads only the
// store, never relation state.

// DefaultProvenanceCapacity bounds the number of facts the provenance
// store retains (FIFO eviction).
const DefaultProvenanceCapacity = 1 << 16

// maxDerivationsPerFact caps the alternate derivations retained per fact;
// additional ones are counted as dropped rather than stored.
const maxDerivationsPerFact = 8

// maxAggProvInputs caps the group members recorded as an aggregate
// derivation's inputs (the whole group is the true input set; huge groups
// are truncated and flagged).
const maxAggProvInputs = 64

// Explain tree bounds used when ExplainOptions leaves them zero.
const (
	DefaultExplainDepth = 64
	DefaultExplainNodes = 1024
)

// provInput is one body fact on an evaluation context's capture trail.
// key is the fact's canonical record key when the pushing site had it at
// hand (join steps read it off the arrangement bucket); empty otherwise.
// hash caches the fact's identity hash (see inputHash). Join steps fill
// it straight from the arrangement bucket's cached key hash, so the
// common case never hashes at all; entries pushed without it (plan
// seeds) compute it lazily at the first emit that includes the fact.
// Zero means "not yet computed" (a real zero hash merely recomputes —
// harmless).
type provInput struct {
	rs   *relState
	rec  value.Record
	key  string
	hash uint64
}

// factRef identifies one input fact of a recorded derivation. The input's
// canonical key is recomputed lazily at explain time rather than stored:
// materializing it on the record path would cost one string allocation per
// input per emit.
type factRef struct {
	rel int
	rec value.Record
}

// derivation is one recorded way a fact was produced. sig is the
// order-independent 64-bit identity hash (rule label plus input facts).
// Derivations live by value in their fact's slice (their inputs backing
// arrays recycle through the store), so the store's live-object
// population — what every GC mark phase must walk — stays proportional to
// facts, not derivations.
type derivation struct {
	label     string
	stratum   int32
	truncated bool
	inputs    []factRef
	sig       uint64
}

// factProv is one fact's recorded provenance. digest is the facts-table
// key (see provDigest); rel identifies the fact's relation for the
// explain paths; prev/next link the store's FIFO eviction list. dead
// marks a dropped fact left in place as a tombstone: steady-state churn
// (the same fact retracted and re-derived across transactions) then
// skips the table delete, backward shift, and re-insertion — a drop
// wipes the derivations and flips the flag, and the next record of the
// same digest revives the container where it sits. Readers treat dead
// facts as absent; eviction reclaims them in FIFO order like any other.
// Facts live in the store's arena slab and are addressed by index;
// prev/next are arena indices (provNil when absent). Pointers into the
// arena must not be held across a possible arena append.
type factProv struct {
	rec        value.Record
	derivs     []derivation
	digest     uint64
	rel        int32
	dead       bool
	prev, next int32
}

// provNil is the arena-index null.
const provNil = int32(-1)

// provSlot is one open-addressing table slot; ref is the fact's arena
// index plus one, so the zero value marks an empty slot. Slots carry no
// pointers: the whole table is skipped by the garbage collector's mark
// phase instead of being scanned slot by slot.
type provSlot struct {
	digest uint64
	ref    int32
}

// provTable maps fact digests to arena indices by linear probing.
// Digests are already uniform 64-bit hashes (provDigest), so the slot
// index is just the digest's low bits; deletion backward-shifts the probe
// cluster, so there are no tombstones and lookups never degrade. It
// replaces a built-in map on the record path: inserts, hits, misses, and
// deletes are each a couple of cache lines with no hashing or bucket
// machinery.
type provTable struct {
	slots []provSlot // len is a power of two
	n     int
}

// get returns the arena index for dg, or provNil.
func (t *provTable) get(dg uint64) int32 {
	if len(t.slots) == 0 {
		return provNil
	}
	mask := uint64(len(t.slots) - 1)
	for i := dg & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			return provNil
		}
		if s.digest == dg {
			return s.ref - 1
		}
	}
}

// getOrInsert returns the arena index for dg, or claims the probe's empty
// slot with mk() on a miss — one probe sequence where get-then-put would
// walk the cluster twice. mk must not mutate the table (it may grow the
// arena the indices point into).
func (t *provTable) getOrInsert(dg uint64, mk func() int32) int32 {
	if (t.n+1)*3 >= len(t.slots)*2 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := dg & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			ref := mk()
			s.digest, s.ref = dg, ref+1
			t.n++
			return ref
		}
		if s.digest == dg {
			return s.ref - 1
		}
	}
}

func (t *provTable) put(dg uint64, ref int32) {
	if (t.n+1)*3 >= len(t.slots)*2 {
		t.grow()
	}
	mask := uint64(len(t.slots) - 1)
	for i := dg & mask; ; i = (i + 1) & mask {
		s := &t.slots[i]
		if s.ref == 0 {
			s.digest, s.ref = dg, ref+1
			t.n++
			return
		}
		if s.digest == dg {
			s.ref = ref + 1
			return
		}
	}
}

// del removes and returns the arena index for dg (provNil when absent),
// closing the probe cluster by the standard backward-shift: each later
// cluster member whose home slot is at or before the hole moves into it.
func (t *provTable) del(dg uint64) int32 {
	if len(t.slots) == 0 {
		return provNil
	}
	mask := uint64(len(t.slots) - 1)
	i := dg & mask
	for {
		s := &t.slots[i]
		if s.ref == 0 {
			return provNil
		}
		if s.digest == dg {
			break
		}
		i = (i + 1) & mask
	}
	removed := t.slots[i].ref - 1
	j := i
	for {
		j = (j + 1) & mask
		s := t.slots[j]
		if s.ref == 0 {
			break
		}
		if (j-s.digest)&mask >= (j-i)&mask {
			t.slots[i] = s
			i = j
		}
	}
	t.slots[i] = provSlot{}
	t.n--
	return removed
}

func (t *provTable) grow() {
	old := t.slots
	size := 1024
	if len(old) > 0 {
		size = len(old) * 2
	}
	t.slots = make([]provSlot, size)
	t.n = 0
	for _, s := range old {
		if s.ref != 0 {
			t.put(s.digest, s.ref-1)
		}
	}
}

// provStore is the bounded provenance store. Every field is guarded by
// mu, which Apply holds for the whole transaction while emit sites write
// the store and which Explain and the statistics readers take.
type provStore struct {
	mu       sync.Mutex
	capacity int
	facts    provTable
	// arena is the fact slab; the table and eviction list address it by
	// index. One large array replaces thousands of individually-allocated
	// fact containers, so the GC marks one object instead of walking the
	// store's population every cycle.
	arena []factProv
	// head/tail are the FIFO eviction list (arena indices), oldest first.
	head, tail int32
	// factFree recycles arena slots; inputsFree recycles the factRef
	// backing arrays of removed derivations. Only touched under mu, so
	// plain slice stacks beat sync.Pool on the record path.
	factFree   []int32
	inputsFree [][]factRef
	// live counts non-tombstone facts; facts.n additionally counts
	// tombstones still occupying table slots.
	live          int
	evictions     uint64
	droppedDerivs uint64
}

func newProvStore() *provStore {
	return &provStore{capacity: DefaultProvenanceCapacity, head: provNil, tail: provNil}
}

// provSeed keys every provenance hash; identities are stable within a
// process only, which is all the in-memory store needs.
var provSeed = maphash.MakeSeed()

// provDigest identifies the fact (rel, key) in the facts table. Keying
// the table by a 64-bit digest instead of the full (int, string) pair
// keeps the store off the long record-key strings. A collision would
// merge two facts' provenance trees; at the store's default 2^16
// capacity the probability of any collision existing is ~2^-32 —
// acceptable for a debugging aid.
func provDigest(rel int, key string) uint64 {
	return provFold(maphash.String(provSeed, key), rel)
}

// provFold mixes a key hash with a relation id (golden-ratio multiply),
// completing a fact digest from an already-computed key hash.
func provFold(keyHash uint64, rel int) uint64 {
	return keyHash + uint64(rel)*0x9e3779b97f4a7c15
}

// provLabelHash hashes a rule label once at compile time, so per-emit sig
// hashing starts from a constant instead of re-hashing the label string.
func provLabelHash(label string) uint64 {
	return maphash.String(provSeed, label)
}

// allocFact returns a free arena index, growing the slab if the freelist
// is empty. Callers must not hold *factProv pointers across the call.
func (ps *provStore) allocFact() int32 {
	if n := len(ps.factFree); n > 0 {
		ref := ps.factFree[n-1]
		ps.factFree = ps.factFree[:n-1]
		return ref
	}
	ps.arena = append(ps.arena, factProv{prev: provNil, next: provNil})
	return int32(len(ps.arena) - 1)
}

// newInputs returns a recycled factRef backing array (or nil) to build a
// derivation's input list in.
func (ps *provStore) newInputs() []factRef {
	if n := len(ps.inputsFree); n > 0 {
		in := ps.inputsFree[n-1]
		ps.inputsFree[n-1] = nil
		ps.inputsFree = ps.inputsFree[:n-1]
		return in
	}
	return nil
}

func (ps *provStore) freeInputs(in []factRef) {
	if cap(in) == 0 {
		return
	}
	clear(in[:cap(in)])
	ps.inputsFree = append(ps.inputsFree, in[:0])
}

// wipeDerivs recycles every derivation of the fact, leaving derivs empty.
func (ps *provStore) wipeDerivs(fp *factProv) {
	for k := range fp.derivs {
		ps.freeInputs(fp.derivs[k].inputs)
	}
	clear(fp.derivs)
	fp.derivs = fp.derivs[:0]
}

// dropDeriv removes fp.derivs[k], recycling its inputs and keeping order.
func (ps *provStore) dropDeriv(fp *factProv, k int) {
	ps.freeInputs(fp.derivs[k].inputs)
	last := len(fp.derivs) - 1
	copy(fp.derivs[k:], fp.derivs[k+1:])
	fp.derivs[last] = derivation{}
	fp.derivs = fp.derivs[:last]
}

// freeFact recycles the fact at ref: derivations are wiped and the arena
// slot (with its derivs capacity) is pushed on the freelist.
func (ps *provStore) freeFact(ref int32) {
	fp := &ps.arena[ref]
	ps.wipeDerivs(fp)
	fp.rec = nil
	fp.digest, fp.rel = 0, 0
	fp.dead = false
	fp.prev, fp.next = provNil, provNil
	ps.factFree = append(ps.factFree, ref)
}

// pushBack appends a fresh fact to the eviction list's tail.
func (ps *provStore) pushBack(ref int32) {
	fp := &ps.arena[ref]
	fp.prev = ps.tail
	fp.next = provNil
	if ps.tail != provNil {
		ps.arena[ps.tail].next = ref
	} else {
		ps.head = ref
	}
	ps.tail = ref
}

// unlink removes a fact from the eviction list.
func (ps *provStore) unlink(ref int32) {
	fp := &ps.arena[ref]
	if fp.prev != provNil {
		ps.arena[fp.prev].next = fp.next
	} else {
		ps.head = fp.next
	}
	if fp.next != provNil {
		ps.arena[fp.next].prev = fp.prev
	} else {
		ps.tail = fp.prev
	}
	fp.prev, fp.next = provNil, provNil
}

// inputHash hashes one trail fact: the hash of its canonical encoding
// combined with its relation id by the same golden-ratio fold as
// provDigest. Record.Key() is exactly the canonical encoding as a string,
// so when the trail entry carries the key (join steps read it off the
// arrangement bucket) the hash comes from the existing string with no
// re-encoding; entries without a key (plan seeds) encode into the
// caller's scratch first. Both paths hash identical bytes, so the same
// fact always contributes the same value to a sig.
func inputHash(buf *[]byte, t *provInput) uint64 {
	var h uint64
	if t.key != "" {
		h = maphash.String(provSeed, t.key)
	} else {
		b := t.rec.AppendEncode((*buf)[:0])
		*buf = b
		h = maphash.Bytes(provSeed, b)
	}
	return provFold(h, t.rs.id)
}

// sigHash computes a derivation's identity: the precomputed rule-label
// hash combined, by wrapping addition, with one hash per input fact.
// Addition commutes, so the identity is independent of which body literal
// seeded the plan that produced (or retracts) the derivation — no
// sorting, no string materialization, no per-emit allocation (buf is the
// caller's scratch). Input hashes are cached in the trail entries, so a
// fact feeding many emits is encoded and hashed once.
func sigHash(buf *[]byte, labelHash uint64, trail []provInput) uint64 {
	sig := labelHash
	for i := range trail {
		t := &trail[i]
		if t.hash == 0 {
			t.hash = inputHash(buf, t)
		}
		sig += t.hash
	}
	return sig
}

// record adds one derivation of the fact dg (relation rel, record rec)
// whose inputs are the trail's facts. A derivation already recorded (same
// sig) is kept as it is, so the re-derivation path — every re-derivation
// of a live fact — is allocation-free. With first, the derivation goes
// (or moves) to the front, where Explain looks first, displacing the last
// one when the fact is full.
func (ps *provStore) record(dg uint64, rel int, rec value.Record, sig uint64, label string, stratum int, trail []provInput, truncated, first bool) {
	ps.evictLocked()
	ref := ps.facts.getOrInsert(dg, func() int32 {
		r := ps.allocFact()
		fp := &ps.arena[r]
		fp.digest = dg
		fp.rel = int32(rel)
		ps.pushBack(r)
		ps.live++
		return r
	})
	fp := &ps.arena[ref]
	if fp.dead {
		fp.dead = false
		ps.live++
	}
	fp.rec = rec
	k := 0
	for k < len(fp.derivs) && fp.derivs[k].sig != sig {
		k++
	}
	if k == len(fp.derivs) {
		if k >= maxDerivationsPerFact {
			ps.droppedDerivs++
			if !first {
				return
			}
			ps.dropDeriv(fp, k-1)
			k--
		}
		in := ps.newInputs()
		for i := range trail {
			in = append(in, factRef{rel: trail[i].rs.id, rec: trail[i].rec})
		}
		fp.derivs = append(fp.derivs, derivation{
			label: label, stratum: int32(stratum), truncated: truncated, inputs: in, sig: sig,
		})
	}
	if first {
		d := fp.derivs[k]
		copy(fp.derivs[1:k+1], fp.derivs[:k])
		fp.derivs[0] = d
	}
}

// liveFact returns the container of fact dg, or nil when the fact has no
// entry or is a tombstone.
func (ps *provStore) liveFact(dg uint64) *factProv {
	ref := ps.facts.get(dg)
	if ref == provNil || ps.arena[ref].dead {
		return nil
	}
	return &ps.arena[ref]
}

// unrecord removes the fact's derivation with the given sig, if recorded.
func (ps *provStore) unrecord(dg, sig uint64) {
	fp := ps.liveFact(dg)
	if fp == nil {
		return
	}
	for k := range fp.derivs {
		if fp.derivs[k].sig == sig {
			ps.dropDeriv(fp, k)
			return
		}
	}
}

// unrecordByLabel removes every derivation of the fact recorded under
// label, regardless of inputs (aggregate re-derivations replace the whole
// group's contribution).
func (ps *provStore) unrecordByLabel(dg uint64, label string) {
	fp := ps.liveFact(dg)
	if fp == nil {
		return
	}
	for k := len(fp.derivs) - 1; k >= 0; k-- {
		if fp.derivs[k].label == label {
			ps.dropDeriv(fp, k)
		}
	}
}

// drop wipes a retracted fact's derivations and leaves its container as
// a tombstone (factProv.dead).
func (ps *provStore) drop(dg uint64) {
	if fp := ps.liveFact(dg); fp != nil {
		fp.dead = true
		ps.live--
		ps.wipeDerivs(fp)
	}
}

// evictLocked makes room for one more fact by evicting in FIFO order.
func (ps *provStore) evictLocked() {
	for ps.facts.n >= ps.capacity && ps.head != provNil {
		ref := ps.head
		fp := &ps.arena[ref]
		ps.unlink(ref)
		ps.facts.del(fp.digest)
		if !fp.dead {
			ps.live--
			ps.evictions++
		}
		ps.freeFact(ref)
	}
}

// ProvenanceStats summarizes the provenance store.
type ProvenanceStats struct {
	// Facts is the number of facts with recorded provenance.
	Facts int
	// Evictions counts facts discarded by the capacity bound.
	Evictions uint64
	// DroppedDerivations counts alternate derivations discarded by the
	// per-fact bound.
	DroppedDerivations uint64
}

// ProvenanceEnabled reports whether the runtime collects provenance.
func (rt *Runtime) ProvenanceEnabled() bool { return rt.prov != nil }

// ProvenanceStats reports provenance store statistics (zero when
// collection is off).
func (rt *Runtime) ProvenanceStats() ProvenanceStats {
	if rt.prov == nil {
		return ProvenanceStats{}
	}
	rt.prov.mu.Lock()
	defer rt.prov.mu.Unlock()
	return ProvenanceStats{
		Facts:              rt.prov.live,
		Evictions:          rt.prov.evictions,
		DroppedDerivations: rt.prov.droppedDerivs,
	}
}

// ExplainOptions bound a derivation tree; zero values select the
// defaults.
type ExplainOptions struct {
	MaxDepth int
	MaxNodes int
}

// ExplainNode is one node of a derivation tree.
type ExplainNode struct {
	Relation string `json:"relation"`
	Record   string `json:"record"`
	// Kind is "derived" (a rule produced it; Rule/Children say how),
	// "input" (externally fed), "unknown" (the fact was an input to a
	// recorded derivation but its own provenance is gone — evicted or
	// never recorded), or "cycle" (already expanded on this path).
	Kind    string `json:"kind"`
	Rule    string `json:"rule,omitempty"`
	Stratum int    `json:"stratum,omitempty"`
	// TxnID is filled by layers that know transaction identity (the
	// controller annotates input leaves with the OVSDB txn that inserted
	// the row); the engine never sets it.
	TxnID uint64 `json:"txn_id,omitempty"`
	// Alternatives counts additional recorded derivations not expanded.
	Alternatives int `json:"alternatives,omitempty"`
	// Truncated marks nodes cut short by the depth/node budget or by the
	// aggregate input cap.
	Truncated bool           `json:"truncated,omitempty"`
	Children  []*ExplainNode `json:"children,omitempty"`

	// Tuple and RecordKey carry the fact itself for in-process callers
	// (tests, the controller's txn annotation); not serialized.
	Tuple     value.Record `json:"-"`
	RecordKey string       `json:"-"`
}

// Explain returns the derivation tree of rec in a derived relation. ok is
// false when provenance is off, the relation is unknown, hidden, or an
// input, or the fact has no recorded provenance (never derived,
// retracted, or evicted). It reads only the provenance store, so it is
// safe to call concurrently with Apply; it waits for an Apply in
// progress to finish.
func (rt *Runtime) Explain(relation string, rec value.Record, opt ExplainOptions) (*ExplainNode, bool) {
	rs := rt.relByName[relation]
	if rt.prov == nil || rs == nil || rs.hidden || rs.isInput() {
		return nil, false
	}
	return rt.prov.explain(rt, rs, rec.Key(), opt)
}

// ExplainRendered is Explain keyed by the record's String() rendering —
// the operator-facing form the /debug/explain endpoint receives. The
// store is scanned linearly under its lock; acceptable for a debug query.
func (rt *Runtime) ExplainRendered(relation, rendered string, opt ExplainOptions) (*ExplainNode, bool) {
	rs := rt.relByName[relation]
	if rt.prov == nil || rs == nil || rs.hidden || rs.isInput() {
		return nil, false
	}
	rt.prov.mu.Lock()
	key := ""
	found := false
	for i := range rt.prov.arena {
		fp := &rt.prov.arena[i]
		if fp.rec != nil && !fp.dead && fp.rel == int32(rs.id) && fp.rec.String() == rendered {
			key, found = fp.rec.Key(), true
			break
		}
	}
	rt.prov.mu.Unlock()
	if !found {
		return nil, false
	}
	return rt.prov.explain(rt, rs, key, opt)
}

func (ps *provStore) explain(rt *Runtime, rs *relState, key string, opt ExplainOptions) (*ExplainNode, bool) {
	depth, nodes := opt.MaxDepth, opt.MaxNodes
	if depth <= 0 {
		depth = DefaultExplainDepth
	}
	if nodes <= 0 {
		nodes = DefaultExplainNodes
	}
	ps.mu.Lock()
	defer ps.mu.Unlock()
	fp := ps.liveFact(provDigest(rs.id, key))
	if fp == nil || len(fp.derivs) == 0 {
		return nil, false
	}
	budget := nodes
	path := make(map[uint64]bool)
	return ps.nodeLocked(rt, rs.id, key, fp.rec, depth, &budget, path), true
}

// nodeLocked builds the tree node for one fact (store mutex held). path
// tracks the digests of facts being expanded on the current path for
// cycle detection.
func (ps *provStore) nodeLocked(rt *Runtime, rel int, key string, rec value.Record, depth int, budget *int, path map[uint64]bool) *ExplainNode {
	*budget--
	dg := provDigest(rel, key)
	rs := rt.rels[rel]
	n := &ExplainNode{
		Relation:  rs.rel.Name,
		Record:    rec.String(),
		Tuple:     rec,
		RecordKey: key,
	}
	if rs.isInput() {
		n.Kind = "input"
		return n
	}
	fp := ps.liveFact(dg)
	if fp == nil || len(fp.derivs) == 0 {
		n.Kind = "unknown"
		return n
	}
	n.Kind = "derived"
	// Prefer a derivation that does not revisit a fact already being
	// expanded on this path (recursive strata can record cyclic
	// alternates).
	d := &fp.derivs[0]
	for k := range fp.derivs {
		cand := &fp.derivs[k]
		revisits := false
		for _, in := range cand.inputs {
			if path[provDigest(in.rel, in.rec.Key())] {
				revisits = true
				break
			}
		}
		if !revisits {
			d = cand
			break
		}
	}
	n.Rule = d.label
	n.Stratum = int(d.stratum)
	n.Alternatives = len(fp.derivs) - 1
	n.Truncated = d.truncated
	if depth <= 0 {
		if len(d.inputs) > 0 {
			n.Truncated = true
		}
		return n
	}
	path[dg] = true
	for _, in := range d.inputs {
		if *budget <= 0 {
			n.Truncated = true
			break
		}
		ckey := in.rec.Key()
		if path[provDigest(in.rel, ckey)] {
			*budget--
			n.Children = append(n.Children, &ExplainNode{
				Relation:  rt.rels[in.rel].rel.Name,
				Record:    in.rec.String(),
				Kind:      "cycle",
				Tuple:     in.rec,
				RecordKey: ckey,
			})
			continue
		}
		n.Children = append(n.Children, ps.nodeLocked(rt, in.rel, ckey, in.rec, depth-1, budget, path))
	}
	delete(path, dg)
	return n
}

// recordProv records one derivation (w>0) of the head fact f or retracts
// it (w<0) at plan emit time. Called only when the emitting context has
// capture on; ctx supplies the sig-hash scratch. The fact's digest folds
// its cached key hash, so the fact's identity is hashed only when the
// fact is created. first records a recursive fact's proof (record).
func (rt *Runtime) recordProv(ctx *evalCtx, cr *compiledRule, f *fact, w int64, trail []provInput, first bool) {
	sig := sigHash(&ctx.sigBuf, cr.labelHash, trail)
	dg := provFold(f.phash, cr.head.id)
	if w > 0 {
		rt.prov.record(dg, cr.head.id, f.rec, sig, cr.label, cr.head.stratum, trail, false, first)
	} else if w < 0 {
		rt.prov.unrecord(dg, sig)
	}
}

// recordAggProv records an aggregate head fact with its (capped) group
// bucket as the input set.
func (rt *Runtime) recordAggProv(spec *aggSpec, keyEnc []byte, rec value.Record, key string) {
	var trail []provInput
	truncated := false
	for _, f := range spec.keyIx.factsOf(keyEnc) {
		if !f.presentIn(false) {
			continue
		}
		if len(trail) >= maxAggProvInputs {
			truncated = true
			break
		}
		ti := provInput{rs: spec.groupRel, rec: f.rec, key: f.key}
		if f.phash != 0 {
			ti.hash = provFold(f.phash, spec.groupRel.id)
		}
		trail = append(trail, ti)
	}
	sig := sigHash(&rt.ctx.sigBuf, spec.labelHash, trail)
	rt.prov.record(provDigest(spec.head.id, key), spec.head.id, rec, sig, spec.label, spec.head.stratum, trail, truncated, false)
}

// ruleLabel renders a compact operator-facing identity for a compiled
// rule: the head name and the body literal shapes.
func ruleLabel(cr *compiledRule) string {
	var sb strings.Builder
	sb.WriteString(cr.head.rel.Name)
	sb.WriteString(" :- ")
	wrote := false
	nonLit := false
	for _, term := range cr.body {
		lit, ok := term.(*typecheck.LiteralTerm)
		if !ok {
			nonLit = true
			continue
		}
		if wrote {
			sb.WriteString(", ")
		}
		wrote = true
		if lit.Negated {
			sb.WriteString("not ")
		}
		sb.WriteString(lit.Rel.Name)
		sb.WriteString("(..)")
	}
	if nonLit {
		if wrote {
			sb.WriteString(", ")
		}
		sb.WriteString("..")
		wrote = true
	}
	if !wrote {
		sb.WriteString("<fact>")
	}
	return sb.String()
}
