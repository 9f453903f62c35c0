package core

import (
	"fmt"
	"strings"

	"repro/internal/codegen"
	"repro/internal/dl/ast"
	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/obs"
	"repro/internal/p4"
	"repro/internal/p4rt"
)

// This file is the controller half of cross-plane provenance: while the
// engine's store answers "which rule and which facts derived this
// tuple?", the maps here link the two ends of the stack to the engine's
// view — each pushed P4 table entry to the output-relation record that
// produced it, and each input-relation record to the OVSDB transaction
// (and event source) that inserted it. Together they answer the
// operator's question "why is this entry in the switch?" end to end.

// entryKey identifies one installed table entry on one device.
type entryKey struct {
	device string
	table  string
	match  string // rendered match fields (+ priority)
}

// EntryOrigin records where one pushed table entry came from.
type EntryOrigin struct {
	Table    string `json:"table"`
	Device   string `json:"device,omitempty"`
	Matches  string `json:"matches"`
	Action   string `json:"action"`
	Relation string `json:"relation"`
	Record   string `json:"record"`
	// TxnID/Source identify the transaction whose delta pushed the entry
	// (which may differ from the transactions that inserted the input
	// facts in its derivation tree).
	TxnID  uint64 `json:"txn_id,omitempty"`
	Source string `json:"source,omitempty"`

	rec value.Record
}

// inputOrigin records which transaction inserted one input-relation
// record.
type inputOrigin struct {
	txnID  uint64
	source string
}

// provState holds the controller's bounded origin maps. The event loop
// owns them: it writes them as it applies and pushes, and Explain reads
// them there too.
type provState struct {
	cap     int
	entries map[entryKey]*EntryOrigin
	eorder  []entryKey // FIFO insertion order; may contain tombstones
	inputs  map[string]inputOrigin
	iorder  []string // FIFO insertion order; may contain tombstones
	evicted uint64
}

// defaultOriginCapacity bounds each origin map.
const defaultOriginCapacity = 1 << 16

func newProvState(capacity int) *provState {
	if capacity <= 0 {
		capacity = defaultOriginCapacity
	}
	return &provState{
		cap:     capacity,
		entries: make(map[entryKey]*EntryOrigin),
		inputs:  make(map[string]inputOrigin),
	}
}

// inputKey keys an input-relation record.
func inputKey(rel, recKey string) string { return rel + "\x00" + recKey }

// fifoPut sets k in a map bounded to capacity keys: a new key first
// evicts the oldest live ones while the map is full. order is the
// insertion order; deleted keys stay in it as tombstones until they
// outnumber the capacity, then it is compacted. Returns the evictions.
func fifoPut[K comparable, V any](m map[K]V, order *[]K, k K, v V, capacity int) (evicted uint64) {
	if _, exists := m[k]; !exists {
		for len(m) >= capacity && len(*order) > 0 {
			old := (*order)[0]
			*order = (*order)[1:]
			if _, ok := m[old]; ok {
				delete(m, old)
				evicted++
			}
		}
		*order = append(*order, k)
	}
	m[k] = v
	if len(*order) > 2*capacity {
		live := (*order)[:0]
		for _, k := range *order {
			if _, ok := m[k]; ok {
				live = append(live, k)
			}
		}
		*order = live
	}
	return evicted
}

// incidentOriginLimit caps how many entry origins a pinned slow-push
// incident carries.
const incidentOriginLimit = 8

// originsForTxn returns up to max entry origins pushed by one
// transaction, newest first — the "relevant Explain output" pinned into
// a slow-push incident. Nil-safe (provenance may be disabled).
func (p *provState) originsForTxn(txn uint64, max int) []*EntryOrigin {
	if p == nil || txn == 0 {
		return nil
	}
	var out []*EntryOrigin
	for i := len(p.eorder) - 1; i >= 0 && len(out) < max; i-- {
		o := p.entries[p.eorder[i]]
		if o != nil && o.TxnID == txn {
			out = append(out, o)
		}
	}
	return out
}

// findEntry resolves a /debug/explain query against one P4 table: key ""
// is accepted when the table holds exactly one entry; otherwise the key
// must equal — or, failing that, be a substring of — the rendered match
// fields or the source record of exactly one entry.
func (p *provState) findEntry(table, key string) (*EntryOrigin, error) {
	var inTable, exact, fuzzy []*EntryOrigin
	for k, o := range p.entries {
		if k.table != table {
			continue
		}
		inTable = append(inTable, o)
		if key == "" {
			continue
		}
		if k.match == key {
			exact = append(exact, o)
		} else if strings.Contains(k.match, key) || strings.Contains(o.Record, key) {
			fuzzy = append(fuzzy, o)
		}
	}
	if len(inTable) == 0 {
		return nil, fmt.Errorf("%w: no entries recorded for table %q", obs.ErrNotFound, table)
	}
	cands := inTable
	if key != "" {
		cands = exact
		if len(cands) == 0 {
			cands = fuzzy
		}
		if len(cands) == 0 {
			return nil, fmt.Errorf("%w: no entry of table %q matches %q", obs.ErrNotFound, table, key)
		}
	}
	if len(cands) > 1 {
		return nil, fmt.Errorf("ambiguous: %d entries of table %q match %q (give the full match rendering)",
			len(cands), table, key)
	}
	cp := *cands[0]
	return &cp, nil
}

// renderMatches renders a table entry's match fields in the stable
// operator-facing form used as the entry key and echoed by
// /debug/explain: comma-separated name=value pairs (lpm as value/len,
// ternary as value&mask, wildcarded optional as *), with a ";prio=N"
// suffix on priority tables.
func renderMatches(b *codegen.OutputTableBinding, e p4rt.TableEntry) string {
	var sb strings.Builder
	for i, kb := range b.Keys {
		if i > 0 {
			sb.WriteString(", ")
		}
		if i >= len(e.Matches) {
			break
		}
		m := e.Matches[i]
		sb.WriteString(kb.Name)
		sb.WriteByte('=')
		switch kb.Match {
		case p4.MatchLPM:
			fmt.Fprintf(&sb, "%d/%d", m.Value, m.PrefixLen)
		case p4.MatchTernary:
			fmt.Fprintf(&sb, "%d&%#x", m.Value, m.Mask)
		case p4.MatchOptional:
			if m.Wildcard {
				sb.WriteByte('*')
			} else {
				fmt.Fprintf(&sb, "%d", m.Value)
			}
		default:
			fmt.Fprintf(&sb, "%d", m.Value)
		}
	}
	if b.HasPriority {
		fmt.Fprintf(&sb, ";prio=%d", e.Priority)
	}
	return sb.String()
}

// ExplainResult is the /debug/explain response envelope.
type ExplainResult struct {
	Relation string `json:"relation"`
	Key      string `json:"key,omitempty"`
	// Entry is present when the query named a P4 table: the pushed
	// entry's identity and the transaction that pushed it.
	Entry *EntryOrigin        `json:"entry,omitempty"`
	Tree  *engine.ExplainNode `json:"tree"`
}

// Explain implements obs.Explainer. relation may name a P4 table (the
// entry is resolved to its source record first), a derived Datalog
// relation (key is the record's rendering), or an input relation (the
// result is a single leaf carrying the inserting transaction). It runs
// on the event loop, between transactions.
func (c *Controller) Explain(relation, key string, maxDepth, maxNodes int) (res any, err error) {
	if lerr := c.onLoop(func() { res, err = c.explain(relation, key, maxDepth, maxNodes) }); lerr != nil {
		return nil, lerr
	}
	return res, err
}

func (c *Controller) explain(relation, key string, maxDepth, maxNodes int) (any, error) {
	if c.prov == nil || !c.rt.ProvenanceEnabled() {
		return nil, fmt.Errorf("provenance collection disabled")
	}
	opt := engine.ExplainOptions{MaxDepth: maxDepth, MaxNodes: maxNodes}
	if c.p4Tables[relation] {
		origin, err := c.prov.findEntry(relation, key)
		if err != nil {
			return nil, err
		}
		tree, ok := c.rt.Explain(origin.Relation, origin.rec, opt)
		if !ok {
			return nil, fmt.Errorf("%w: entry's source fact %s%s has no recorded derivation (evicted?)",
				obs.ErrNotFound, origin.Relation, origin.Record)
		}
		c.annotate(tree)
		return &ExplainResult{Relation: relation, Key: origin.Matches, Entry: origin, Tree: tree}, nil
	}
	role, ok := c.rt.RelationRole(relation)
	if !ok {
		return nil, fmt.Errorf("%w: unknown relation or table %q", obs.ErrNotFound, relation)
	}
	if role == ast.RoleInput {
		return c.explainInput(relation, key)
	}
	if key == "" {
		return nil, fmt.Errorf("missing key parameter (the record rendering, e.g. %q)", `(1, 2)`)
	}
	tree, ok := c.rt.ExplainRendered(relation, key, opt)
	if !ok {
		return nil, fmt.Errorf("%w: no recorded derivation for %s%s", obs.ErrNotFound, relation, key)
	}
	c.annotate(tree)
	return &ExplainResult{Relation: relation, Key: key, Tree: tree}, nil
}

// explainInput answers an explain query on an input relation: a single
// leaf, annotated with the transaction that inserted the record.
func (c *Controller) explainInput(relation, key string) (any, error) {
	if key == "" {
		return nil, fmt.Errorf("missing key parameter (the record rendering)")
	}
	recs, err := c.rt.Contents(relation)
	if err != nil {
		return nil, err
	}
	for _, rec := range recs {
		if rec.String() != key {
			continue
		}
		leaf := &engine.ExplainNode{
			Relation: relation, Record: key, Kind: "input",
			Tuple: rec, RecordKey: rec.Key(),
		}
		if o, ok := c.prov.inputs[inputKey(relation, leaf.RecordKey)]; ok {
			leaf.TxnID = o.txnID
		}
		return &ExplainResult{Relation: relation, Key: key, Tree: leaf}, nil
	}
	return nil, fmt.Errorf("%w: no record %s in input relation %s", obs.ErrNotFound, key, relation)
}

// annotate walks a derivation tree filling TxnID on input leaves from
// the controller's input-origin map.
func (c *Controller) annotate(n *engine.ExplainNode) {
	if n == nil {
		return
	}
	if n.Kind == "input" && n.RecordKey != "" {
		if o, ok := c.prov.inputs[inputKey(n.Relation, n.RecordKey)]; ok {
			n.TxnID = o.txnID
		}
	}
	for _, ch := range n.Children {
		c.annotate(ch)
	}
}

// noteInputs records (or drops) the origin of each input update of one
// applied batch, after a successful apply. In a coalesced batch each
// update is attributed to the commit that delivered it — not the batch's
// txn — so /debug/explain keeps naming the true originating transaction.
func (s *step) noteInputs(batch []event) {
	p := s.prov
	if p == nil {
		return
	}
	for _, ev := range batch {
		for _, up := range ev.updates {
			k := inputKey(up.Relation, up.Rec.Key())
			if up.Insert {
				p.evicted += fifoPut(p.inputs, &p.iorder, k, inputOrigin{txnID: ev.txnID, source: ev.source}, p.cap)
			} else {
				delete(p.inputs, k)
			}
		}
	}
}

// pendingOrigin is one entry-origin mutation staged by plan and applied
// only once the data-plane writes succeed.
type pendingOrigin struct {
	key    entryKey
	origin *EntryOrigin // nil = delete
}

// settle applies a push's staged entry origins. Drops first: a
// same-match replacement (delete old + insert new in one delta) must end
// with the new origin regardless of record order. Nil-safe: an
// unobserved step stages nothing.
func (p *provState) settle(origins []pendingOrigin) {
	for _, po := range origins {
		if po.origin == nil {
			delete(p.entries, po.key)
		}
	}
	for _, po := range origins {
		if po.origin != nil {
			p.evicted += fifoPut(p.entries, &p.eorder, po.key, po.origin, p.cap)
		}
	}
}

// observeProvenance refreshes the obs_provenance_* gauges, once per
// transaction on the event loop.
func (c *Controller) observeProvenance() {
	if c.prov == nil {
		return
	}
	es := c.rt.ProvenanceStats()
	c.m.provFacts.Set(float64(es.Facts))
	c.m.provEvictions.Set(float64(es.Evictions + c.prov.evicted))
	c.m.provEntries.Set(float64(len(c.prov.entries)))
	c.m.provInputs.Set(float64(len(c.prov.inputs)))
}
