package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Stage is one timed step of a transaction's life: the management-plane
// commit, the monitor fan-out, the control-plane delta evaluation (with
// per-stratum sub-stages), or the data-plane push.
type Stage struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	End   time.Time `json:"end"`
	// Attrs carries stage-scoped measurements (update counts, delta
	// sizes, worker utilization) as integer samples.
	Attrs map[string]int64 `json:"attrs,omitempty"`
}

// Trace is the per-transaction timeline, keyed by the txn ID minted at
// OVSDB commit and propagated through monitor delivery to the controller.
// In a single-process deployment one trace carries the complete
// commit→monitor→delta→push timeline; in a multi-process deployment each
// process's tracer holds the stages it executed, correlated by TxnID.
type Trace struct {
	TxnID  uint64  `json:"txn_id"`
	Source string  `json:"source,omitempty"`
	Stages []Stage `json:"stages"`
}

// clone deep-copies a trace so callers can't race with appends. Attrs
// maps are copied too: the originals may be pooled and reused after the
// trace is evicted from the ring.
func (t *Trace) clone() Trace {
	out := Trace{TxnID: t.TxnID, Source: t.Source, Stages: make([]Stage, len(t.Stages))}
	copy(out.Stages, t.Stages)
	for i := range out.Stages {
		if a := out.Stages[i].Attrs; a != nil {
			c := make(map[string]int64, len(a))
			for k, v := range a {
				c[k] = v
			}
			out.Stages[i].Attrs = c
		}
	}
	return out
}

// attrsPool recycles stage-attribute maps between transactions: the
// controller records two attr-carrying stages per transaction, which at
// sustained load is a measurable per-txn allocation.
var attrsPool = sync.Pool{New: func() any { return make(map[string]int64, 8) }}

// NewAttrs returns an empty stage-attribute map drawn from a shared pool.
// Attach it to a Stage passed to Tracer.Record and do not retain it: the
// tracer reclaims the map when the stage's trace is evicted from the
// ring. Callers that retain attrs must build their own map instead.
func NewAttrs() map[string]int64 {
	m := attrsPool.Get().(map[string]int64)
	clear(m)
	return m
}

// tracePool recycles evicted Trace containers (and their stage slices).
var tracePool = sync.Pool{New: func() any { return new(Trace) }}

// releaseTrace returns an evicted trace and its attr maps to their pools.
func releaseTrace(tr *Trace) {
	for i := range tr.Stages {
		if tr.Stages[i].Attrs != nil {
			attrsPool.Put(tr.Stages[i].Attrs)
		}
		tr.Stages[i] = Stage{}
	}
	tr.Stages = tr.Stages[:0]
	tr.TxnID, tr.Source = 0, ""
	tracePool.Put(tr)
}

// Tracer keeps a bounded in-memory ring of recent transaction traces.
// Recording is cheap (one mutex, one append) and happens once per
// transaction stage, never per tuple. A nil Tracer ignores records.
type Tracer struct {
	mu      sync.Mutex
	cap     int
	byID    map[uint64]*Trace
	order   []uint64 // insertion order for FIFO eviction
	evicted uint64

	// convergence, when set (NewObserver wires it), observes the
	// commit→switch-applied latency whenever a trace gains the second of
	// those two stages, in either order — the end-to-end SLO.
	// Only single-process stacks see both stages in one tracer; across
	// processes the fleet aggregator stitches the same measurement.
	convergence *Histogram
}

// StageCommit and StageSwitchApplied are the trace stages bounding the
// end-to-end convergence measurement: the management-plane commit and
// the data-plane apply.
const (
	StageCommit        = "commit"
	StageSwitchApplied = "switch-applied"
)

// DefaultTraceCapacity bounds the ring when NewTracer is given n <= 0.
const DefaultTraceCapacity = 256

// NewTracer creates a tracer retaining the last n transactions.
func NewTracer(n int) *Tracer {
	if n <= 0 {
		n = DefaultTraceCapacity
	}
	return &Tracer{cap: n, byID: make(map[uint64]*Trace, n)}
}

// Record appends one stage to txnID's trace, creating it (and evicting
// the oldest trace if the ring is full) on first sight. txnID 0 marks an
// event with no originating transaction and is dropped. The source tag
// sticks on first non-empty value.
func (t *Tracer) Record(txnID uint64, source string, st Stage) {
	if t == nil || txnID == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.byID[txnID]
	if tr == nil {
		if len(t.order) >= t.cap {
			old := t.order[0]
			t.order = t.order[1:]
			if otr := t.byID[old]; otr != nil {
				delete(t.byID, old)
				releaseTrace(otr)
			}
			t.evicted++
		}
		tr = tracePool.Get().(*Trace)
		tr.TxnID = txnID
		t.byID[txnID] = tr
		t.order = append(t.order, txnID)
	}
	if tr.Source == "" {
		tr.Source = source
	}
	if t.convergence != nil {
		t.observeConvergence(tr, st)
	}
	tr.Stages = append(tr.Stages, st)
}

// observeConvergence observes commit→switch-applied when st completes
// the pair, whichever of the two arrives second: the database notifies
// its monitors before it records the commit stage, so under load the
// switch can apply first. A commit pairs with every switch-applied stage
// already present; a switch-applied stage with the first commit.
func (t *Tracer) observeConvergence(tr *Trace, st Stage) {
	switch st.Name {
	case StageSwitchApplied:
		for i := range tr.Stages {
			if tr.Stages[i].Name == StageCommit {
				t.convergence.ObserveDuration(st.End.Sub(tr.Stages[i].Start))
				return
			}
		}
	case StageCommit:
		for i := range tr.Stages {
			if tr.Stages[i].Name == StageCommit {
				return // already paired with the earlier commit
			}
		}
		for i := range tr.Stages {
			if tr.Stages[i].Name == StageSwitchApplied {
				t.convergence.ObserveDuration(tr.Stages[i].End.Sub(st.Start))
			}
		}
	}
}

// Get returns a copy of txnID's trace.
func (t *Tracer) Get(txnID uint64) (Trace, bool) {
	if t == nil {
		return Trace{}, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	tr := t.byID[txnID]
	if tr == nil {
		return Trace{}, false
	}
	return tr.clone(), true
}

// Recent returns up to n traces, oldest first (n <= 0 means all
// retained).
func (t *Tracer) Recent(n int) []Trace {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ids := t.order
	if n > 0 && len(ids) > n {
		ids = ids[len(ids)-n:]
	}
	out := make([]Trace, 0, len(ids))
	for _, id := range ids {
		out = append(out, t.byID[id].clone())
	}
	return out
}

// Evicted returns how many traces the ring has discarded.
func (t *Tracer) Evicted() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.evicted
}

// traceDump is the /debug/traces JSON envelope.
type traceDump struct {
	Evicted uint64  `json:"evicted"`
	Traces  []Trace `json:"traces"`
}

// writeTraceJSON renders one trace as JSON with its stages in timeline
// order (the /debug/traces?txn= form).
func writeTraceJSON(w io.Writer, tr Trace) error {
	sort.SliceStable(tr.Stages, func(a, b int) bool { return tr.Stages[a].Start.Before(tr.Stages[b].Start) })
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(tr)
}

// WriteJSON renders up to n recent traces (0 = all) as JSON, each
// trace's stages sorted by start time so the timeline reads in order.
func (t *Tracer) WriteJSON(w io.Writer, n int) error {
	if t == nil {
		_, err := io.WriteString(w, `{"evicted":0,"traces":[]}`+"\n")
		return err
	}
	dump := traceDump{Evicted: t.Evicted(), Traces: t.Recent(n)}
	if dump.Traces == nil {
		dump.Traces = []Trace{}
	}
	for i := range dump.Traces {
		st := dump.Traces[i].Stages
		sort.SliceStable(st, func(a, b int) bool { return st[a].Start.Before(st[b].Start) })
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(dump)
}
