package engine

import "time"

// This file implements the workload profiler's engine layer: per-rule
// cost/cardinality attribution and per-relation memory accounting.
//
// Plan runs accumulate directly into the runtime's per-transaction
// accumulator. With Options.Collect off, the only residue on the
// hot path is a nil check per plan seeding — no clock reads, no
// allocation.

// ruleAcc accumulates one rule's counters within one transaction.
type ruleAcc struct {
	ns       int64
	seedings int64
	derivs   int64
	delta    int64
}

// RuleStats is one rule's (or aggregation's) share of a transaction's
// evaluation, reported in ApplyStats.Rules when Options.Collect
// is set.
type RuleStats struct {
	// Rule is the runtime-wide rule index (stable for the Runtime's
	// lifetime); ID is its short operator-facing name (head name plus a
	// per-head ordinal, e.g. "in_vlan#0"), Label the full rendered rule.
	Rule  int
	ID    string
	Label string
	// Stratum/Recursive locate the rule's head in the evaluation order.
	Stratum   int
	Recursive bool
	// Seedings counts plan runs seeded for this rule (including a
	// recursive stratum's checks and saturation); Derivations counts head
	// tuples the rule emitted; DeltaTuples counts net presence transitions
	// attributed to the rule's emissions (a recursive deletion counts
	// against the rule whose lost derivation started the check that found
	// the fact without a proof).
	Seedings    int64
	Derivations int64
	DeltaTuples int64
	// Duration is the rule's summed plan-evaluation time.
	Duration time.Duration
}

// RuleInfo identifies one rule for metric pre-registration; the slice
// returned by RuleInfos is index-aligned with RuleStats.Rule.
type RuleInfo struct {
	ID        string
	Label     string
	Stratum   int
	Recursive bool
}

// ruleCount is the size of the per-rule accumulator space: compiled
// rules first, then aggregation specs.
func (rt *Runtime) ruleCount() int { return len(rt.rules) + len(rt.aggs) }

// RuleInfos lists the program's rules and aggregations in accumulator
// order (nil unless Options.Collect).
func (rt *Runtime) RuleInfos() []RuleInfo {
	if rt.ruleProf == nil {
		return nil
	}
	infos := make([]RuleInfo, 0, rt.ruleCount())
	for _, cr := range rt.rules {
		infos = append(infos, RuleInfo{
			ID:        cr.id,
			Label:     cr.label,
			Stratum:   cr.head.stratum,
			Recursive: cr.head.recursive,
		})
	}
	for _, sp := range rt.aggs {
		infos = append(infos, RuleInfo{
			ID:      sp.id,
			Label:   sp.label,
			Stratum: sp.head.stratum,
		})
	}
	return infos
}

// initRuleProf sets up the per-rule accumulator space (New, after rules
// and aggregations are compiled).
func (rt *Runtime) initRuleProf() {
	n := rt.ruleCount()
	if !rt.opts.Collect || n == 0 {
		return
	}
	// Short IDs: head relation name plus a per-head ordinal.
	ordinal := make(map[string]int, n)
	shortID := func(head string) string {
		k := ordinal[head]
		ordinal[head] = k + 1
		return head + "#" + itoa(k)
	}
	for i, cr := range rt.rules {
		cr.idx = i
		// Group rules derive a hidden relation; name them after the
		// visible head they feed.
		cr.id = shortID(visibleHeadName(cr.head))
	}
	for i, sp := range rt.aggs {
		sp.idx = len(rt.rules) + i
		sp.id = shortID(sp.head.rel.Name)
	}
	rt.ruleProf = make([]ruleAcc, n)
}

// visibleHeadName maps a hidden group relation to the visible head its
// aggregation feeds (its name embeds the head: "__group_<head>_<ri>").
func visibleHeadName(rs *relState) string {
	name := rs.rel.Name
	if !rs.hidden {
		return name
	}
	const pfx = "__group_"
	if len(name) > len(pfx) && name[:len(pfx)] == pfx {
		trimmed := name[len(pfx):]
		// Strip the trailing "_<ri>" ordinal.
		for i := len(trimmed) - 1; i > 0; i-- {
			if trimmed[i] == '_' {
				return trimmed[:i]
			}
			if trimmed[i] < '0' || trimmed[i] > '9' {
				break
			}
		}
	}
	return name
}

// itoa is a minimal non-negative integer formatter (avoids strconv in
// the engine's import set growing for one call site).
func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}

// buildRuleStats renders the transaction accumulator into ApplyStats
// rows (rules with no activity are skipped) and resets it for the next
// transaction.
func (rt *Runtime) buildRuleStats() []RuleStats {
	var out []RuleStats
	emit := func(idx int, id, label string, stratum int, recursive bool) {
		a := rt.ruleProf[idx]
		if a == (ruleAcc{}) {
			return
		}
		out = append(out, RuleStats{
			Rule: idx, ID: id, Label: label,
			Stratum: stratum, Recursive: recursive,
			Seedings: a.seedings, Derivations: a.derivs,
			DeltaTuples: a.delta, Duration: time.Duration(a.ns),
		})
	}
	for i, cr := range rt.rules {
		emit(i, cr.id, cr.label, cr.head.stratum, cr.head.recursive)
	}
	for i, sp := range rt.aggs {
		emit(len(rt.rules)+i, sp.id, sp.label, sp.head.stratum, false)
	}
	clear(rt.ruleProf)
	return out
}

// RelMemStats is one relation's share of the engine's memory, estimated
// from maintained byte counters (key/record encodings) plus fixed
// per-entry overheads — cheap enough to snapshot per transaction.
type RelMemStats struct {
	Name      string `json:"name"`
	Hidden    bool   `json:"hidden,omitempty"`
	Stratum   int    `json:"stratum"`
	Recursive bool   `json:"recursive,omitempty"`
	Tuples    int    `json:"tuples"`
	Indexes   int    `json:"indexes"`
	// IndexEntries estimates tuple references held by arrangements
	// (present tuples × arrangements).
	IndexEntries int `json:"index_entries"`
	// Bytes estimates the relation's resident footprint: one fact per
	// tuple (its canonical key string, record and header), the facts map
	// entry, and one fact reference per arrangement bucket.
	Bytes int64 `json:"bytes"`
}

// ProvMemStats estimates the provenance store's share.
type ProvMemStats struct {
	Facts int   `json:"facts"`
	Bytes int64 `json:"bytes"`
}

// MemStats is the engine-wide memory accounting snapshot.
type MemStats struct {
	Relations    []RelMemStats `json:"relations"`
	Tuples       int           `json:"tuples"`
	IndexEntries int           `json:"index_entries"`
	Bytes        int64         `json:"bytes"`
	Provenance   ProvMemStats  `json:"provenance"`
}

// Per-entry overhead estimates (bytes): a facts map entry costs roughly a
// bucket slot plus the string header; a fact's fields besides its record
// header are 72 bytes; an arrangement holds a pointer and a slot index
// per fact; a record header is 24 bytes plus 16 per value.
const (
	memEntryOverhead = 48
	memFactHeader    = 72
	memArrangedRef   = 12
	memValueSize     = 16
	memRecordHeader  = 24
)

// MemoryStats reports the per-relation memory accounting snapshot. It
// runs in O(#relations) off maintained counters; callers must hold the
// apply goroutine (relation state is not locked).
func (rt *Runtime) MemoryStats() MemStats {
	st := MemStats{Relations: make([]RelMemStats, 0, len(rt.rels))}
	for _, rs := range rt.rels {
		tuples := len(rs.facts)
		nix := len(rs.indexList)
		recBytes := int64(tuples) * (memRecordHeader + memValueSize*int64(len(rs.rel.Cols)))
		// Key strings and records are stored once, in the fact; the
		// arrangements hold references to it.
		bytes := rs.keyBytes + recBytes +
			int64(tuples)*(memFactHeader+memEntryOverhead+memArrangedRef*int64(nix))
		rm := RelMemStats{
			Name:         rs.rel.Name,
			Hidden:       rs.hidden,
			Stratum:      rs.stratum,
			Recursive:    rs.recursive,
			Tuples:       tuples,
			Indexes:      nix,
			IndexEntries: tuples * nix,
			Bytes:        bytes,
		}
		st.Relations = append(st.Relations, rm)
		st.Tuples += rm.Tuples
		st.IndexEntries += rm.IndexEntries
		st.Bytes += rm.Bytes
	}
	if rt.prov != nil {
		rt.prov.mu.Lock()
		facts := rt.prov.live
		// Arena slots dominate; each live fact additionally carries its
		// derivation list and record reference.
		bytes := int64(len(rt.prov.arena))*96 + int64(len(rt.prov.facts.slots))*16 +
			int64(facts)*64
		rt.prov.mu.Unlock()
		st.Provenance = ProvMemStats{Facts: facts, Bytes: bytes}
		st.Bytes += bytes
	}
	return st
}
