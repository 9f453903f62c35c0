package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// The workload profiler: a continuous aggregation of the engine's
// per-rule cost/cardinality attribution and per-relation memory
// accounting. The controller feeds it one RuleSample set per
// transaction (converted from the engine's ApplyStats.Rules) plus
// periodic memory snapshots; the profiler maintains cumulative totals
// and an EWMA of per-transaction evaluation cost per rule, and serves
// bounded-cardinality reports: the top-K hot rules by EWMA cost, with
// the rest rolled into one "other" bucket so a program with thousands
// of rules cannot blow up /debug/rules responses or fleet merges.

// RuleSample is one rule's activity within one transaction. The
// controller converts the engine's per-rule stats into this obs-local
// form so the obs package stays independent of the engine.
type RuleSample struct {
	ID        string `json:"id"`
	Label     string `json:"label,omitempty"`
	Stratum   int    `json:"stratum"`
	Recursive bool   `json:"recursive,omitempty"`

	Seedings    int64 `json:"seedings"`
	Derivations int64 `json:"derivations"`
	DeltaTuples int64 `json:"delta_tuples"`
	EvalNs      int64 `json:"eval_ns"`
}

// RuleRow is one rule's aggregated state in a profiler report.
type RuleRow struct {
	ID        string `json:"id"`
	Label     string `json:"label,omitempty"`
	Stratum   int    `json:"stratum"`
	Recursive bool   `json:"recursive,omitempty"`
	// Txns counts transactions in which the rule did any work.
	Txns        int64 `json:"txns"`
	Seedings    int64 `json:"seedings"`
	Derivations int64 `json:"derivations"`
	DeltaTuples int64 `json:"delta_tuples"`
	EvalNs      int64 `json:"eval_ns"`
	// EwmaNs is the exponentially weighted moving average of the rule's
	// per-transaction evaluation time — the hot-rule ranking signal.
	EwmaNs float64 `json:"ewma_ns"`
	// Share is this rule's fraction of the summed EWMA cost across all
	// tracked rules (0..1).
	Share float64 `json:"share"`
}

// OtherRow aggregates the rules outside the top-K cut.
type OtherRow struct {
	// Count is how many rules were rolled into this bucket.
	Count       int     `json:"count"`
	Seedings    int64   `json:"seedings"`
	Derivations int64   `json:"derivations"`
	DeltaTuples int64   `json:"delta_tuples"`
	EvalNs      int64   `json:"eval_ns"`
	EwmaNs      float64 `json:"ewma_ns"`
	Share       float64 `json:"share"`
}

// RuleReport is the /debug/rules JSON document.
type RuleReport struct {
	// Txns counts transactions observed by the profiler.
	Txns uint64 `json:"txns"`
	// TopK echoes the cardinality bound applied to Rules.
	TopK  int       `json:"top_k"`
	Rules []RuleRow `json:"rules"`
	// Other is present when rules beyond the top-K cut were rolled up.
	Other *OtherRow `json:"other,omitempty"`
}

// RelMem is one relation's memory accounting in a MemSnapshot.
type RelMem struct {
	Name         string `json:"name"`
	Hidden       bool   `json:"hidden,omitempty"`
	Stratum      int    `json:"stratum"`
	Recursive    bool   `json:"recursive,omitempty"`
	Tuples       int64  `json:"tuples"`
	Indexes      int64  `json:"indexes"`
	IndexEntries int64  `json:"index_entries"`
	Bytes        int64  `json:"bytes"`
}

// ProvMem is the provenance store's share of a MemSnapshot.
type ProvMem struct {
	Facts int64 `json:"facts"`
	Bytes int64 `json:"bytes"`
}

// MemSnapshot is one point-in-time memory accounting of the engine
// (relations sorted hottest-first by bytes in reports).
type MemSnapshot struct {
	Relations    []RelMem `json:"relations"`
	Tuples       int64    `json:"tuples"`
	IndexEntries int64    `json:"index_entries"`
	Bytes        int64    `json:"bytes"`
	Provenance   ProvMem  `json:"provenance"`
}

// memReport is the /debug/memory JSON envelope.
type memReport struct {
	At time.Time `json:"at"`
	MemSnapshot
}

// profileTopK bounds /debug/rules and fleet hot-rule reports to the K
// most expensive rules by EWMA cost.
const profileTopK = 16

// profileAlpha is the EWMA smoothing factor applied per observed
// transaction: new = alpha*sample + (1-alpha)*old. 0.2 weights the
// last ~10 transactions while still decaying stale hot spots.
const profileAlpha = 0.2

// ruleEntry is one rule's live aggregation state.
type ruleEntry struct {
	RuleRow
	seen bool // at least one observation (EWMA initialized)
}

// RuleProfiler aggregates per-rule samples and memory snapshots. A nil
// *RuleProfiler ignores observations and renders empty reports.
type RuleProfiler struct {
	mu   sync.Mutex
	topK int
	byID map[string]*ruleEntry
	// order preserves registration order for deterministic tie-breaks.
	order []*ruleEntry
	txns  uint64
	mem   MemSnapshot
	memAt time.Time
}

// newRuleProfiler creates a profiler reporting the top profileTopK rules
// by EWMA cost.
func newRuleProfiler() *RuleProfiler {
	return &RuleProfiler{topK: profileTopK, byID: make(map[string]*ruleEntry)}
}

// entry finds or creates one rule's state. Caller holds p.mu.
func (p *RuleProfiler) entry(id string) *ruleEntry {
	e := p.byID[id]
	if e == nil {
		e = &ruleEntry{RuleRow: RuleRow{ID: id}}
		p.byID[id] = e
		p.order = append(p.order, e)
	}
	return e
}

// EnsureRule pre-registers one rule's identity so metrics callbacks and
// reports can render it before its first activity. Nil-safe.
func (p *RuleProfiler) EnsureRule(id, label string, stratum int, recursive bool) {
	if p == nil || id == "" {
		return
	}
	p.mu.Lock()
	e := p.entry(id)
	e.Label, e.Stratum, e.Recursive = label, stratum, recursive
	p.mu.Unlock()
}

// ObserveTxn folds one transaction's per-rule samples into the
// aggregation. Rules absent from samples did no work this transaction;
// their EWMA decays toward zero so stale hot spots sink. Nil-safe.
func (p *RuleProfiler) ObserveTxn(samples []RuleSample) {
	if p == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.txns++
	active := make(map[string]bool, len(samples))
	for i := range samples {
		s := &samples[i]
		e := p.entry(s.ID)
		if s.Label != "" {
			e.Label = s.Label
		}
		e.Stratum, e.Recursive = s.Stratum, s.Recursive
		e.Txns++
		e.Seedings += s.Seedings
		e.Derivations += s.Derivations
		e.DeltaTuples += s.DeltaTuples
		e.EvalNs += s.EvalNs
		if !e.seen {
			e.EwmaNs, e.seen = float64(s.EvalNs), true
		} else {
			e.EwmaNs = profileAlpha*float64(s.EvalNs) + (1-profileAlpha)*e.EwmaNs
		}
		active[s.ID] = true
	}
	for _, e := range p.order {
		if e.seen && !active[e.ID] {
			e.EwmaNs *= 1 - profileAlpha
		}
	}
}

// SetMemory replaces the profiler's memory snapshot (the controller
// publishes one periodically from the engine's apply goroutine).
// Nil-safe.
func (p *RuleProfiler) SetMemory(m MemSnapshot) {
	if p == nil {
		return
	}
	p.mu.Lock()
	p.mem, p.memAt = m, time.Now()
	p.mu.Unlock()
}

// Memory returns the latest memory snapshot and its capture time (zero
// when none has been published).
func (p *RuleProfiler) Memory() (MemSnapshot, time.Time) {
	if p == nil {
		return MemSnapshot{}, time.Time{}
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.mem, p.memAt
}

// Txns reports how many transactions have been observed.
func (p *RuleProfiler) Txns() uint64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.txns
}

// RuleTotals returns one rule's cumulative counters (the dl_rule_*
// CounterFunc readings). Zero for unknown rules; nil-safe.
func (p *RuleProfiler) RuleTotals(id string) (evalNs, derivations, deltaTuples uint64) {
	if p == nil {
		return 0, 0, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.byID[id]; e != nil {
		return uint64(e.EvalNs), uint64(e.Derivations), uint64(e.DeltaTuples)
	}
	return 0, 0, 0
}

// RuleEwmaSeconds returns one rule's EWMA per-transaction cost in
// seconds (the dl_rule_cost_ewma_seconds GaugeFunc reading). Nil-safe.
func (p *RuleProfiler) RuleEwmaSeconds(id string) float64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if e := p.byID[id]; e != nil {
		return e.EwmaNs / 1e9
	}
	return 0
}

// Report renders the bounded-cardinality hot-rule view: up to k rules
// (k <= 0 selects the profiler's top-K) ranked by EWMA cost descending,
// the rest aggregated into Other. Nil-safe (empty report).
func (p *RuleProfiler) Report(k int) RuleReport {
	rep := RuleReport{Rules: []RuleRow{}}
	if p == nil {
		return rep
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if k <= 0 || k > p.topK {
		k = p.topK
	}
	rep.Txns, rep.TopK = p.txns, k
	rows := make([]*ruleEntry, len(p.order))
	copy(rows, p.order)
	sort.SliceStable(rows, func(i, j int) bool { return rows[i].EwmaNs > rows[j].EwmaNs })
	var totalEwma float64
	for _, e := range rows {
		totalEwma += e.EwmaNs
	}
	share := func(v float64) float64 {
		if totalEwma <= 0 {
			return 0
		}
		return v / totalEwma
	}
	for i, e := range rows {
		if i < k {
			r := e.RuleRow
			r.Share = share(r.EwmaNs)
			rep.Rules = append(rep.Rules, r)
			continue
		}
		if rep.Other == nil {
			rep.Other = &OtherRow{}
		}
		rep.Other.Count++
		rep.Other.Seedings += e.Seedings
		rep.Other.Derivations += e.Derivations
		rep.Other.DeltaTuples += e.DeltaTuples
		rep.Other.EvalNs += e.EvalNs
		rep.Other.EwmaNs += e.EwmaNs
	}
	if rep.Other != nil {
		rep.Other.Share = share(rep.Other.EwmaNs)
	}
	return rep
}

// WriteJSON dumps the hot-rule report (the /debug/rules body).
func (p *RuleProfiler) WriteJSON(w io.Writer, k int) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(p.Report(k))
}

// WriteMemoryJSON dumps the latest memory snapshot (the /debug/memory
// body), relations sorted by bytes descending.
func (p *RuleProfiler) WriteMemoryJSON(w io.Writer) error {
	m, at := p.Memory()
	if m.Relations == nil {
		m.Relations = []RelMem{}
	} else {
		rels := append([]RelMem(nil), m.Relations...)
		sort.SliceStable(rels, func(i, j int) bool { return rels[i].Bytes > rels[j].Bytes })
		m.Relations = rels
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(memReport{At: at, MemSnapshot: m})
}

// Prof returns the rule profiler (nil when the observer is disabled).
func (o *Observer) Prof() *RuleProfiler {
	if o == nil {
		return nil
	}
	return o.Profiler
}
