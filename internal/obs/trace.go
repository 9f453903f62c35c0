package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// Stage is one timed step of a transaction's life, recorded once: the
// management-plane commit, the monitor fan-out, the control-plane delta
// evaluation, the data-plane push, each device's write within it, and
// the switch's apply. It has Event's fixed schema: the device it
// concerns, if any, and up to maxEventFields integer fields, set with F
// and read with Field. JSON renders the fields as the "attrs" object.
type Stage struct {
	Name   string
	Start  time.Time
	End    time.Time
	Device string

	fieldSet
}

// F attaches one integer field (beyond maxEventFields it is dropped).
func (s Stage) F(key string, v int64) Stage { s.add(key, v); return s }

// stageJSON is the wire form of a Stage.
type stageJSON struct {
	Name   string           `json:"name"`
	Start  time.Time        `json:"start"`
	End    time.Time        `json:"end"`
	Device string           `json:"device,omitempty"`
	Attrs  map[string]int64 `json:"attrs,omitempty"`
}

// MarshalJSON renders the stage with its fields as the "attrs" object.
func (s Stage) MarshalJSON() ([]byte, error) {
	return json.Marshal(stageJSON{Name: s.Name, Start: s.Start, End: s.End, Device: s.Device, Attrs: s.Attrs()})
}

// UnmarshalJSON parses the wire form (the fleet aggregator and tests).
func (s *Stage) UnmarshalJSON(data []byte) error {
	var j stageJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = Stage{Name: j.Name, Start: j.Start, End: j.End, Device: j.Device}
	s.setAttrs(j.Attrs)
	return nil
}

// Trace is the per-transaction timeline, keyed by the txn ID minted at
// OVSDB commit and propagated through monitor delivery to the controller.
// In a single-process deployment one trace carries the complete
// commit→monitor→delta→push→switch-applied timeline; in a multi-process
// deployment each process's tracer holds the stages it executed,
// correlated by TxnID.
type Trace struct {
	TxnID  uint64  `json:"txn_id"`
	Source string  `json:"source,omitempty"`
	Stages []Stage `json:"stages"`
}

// clone copies a trace so callers can't race with appends, nor see the
// slot's stages change when the ring reuses it.
func (t *Trace) clone() Trace {
	return Trace{TxnID: t.TxnID, Source: t.Source, Stages: append([]Stage(nil), t.Stages...)}
}

// Tracer keeps a bounded in-memory ring of recent transaction traces.
// Recording is cheap (one mutex, one append into a reused slot) and
// happens once per transaction stage, never per tuple; once every slot
// has held a trace, it allocates nothing. A nil Tracer ignores records.
type Tracer struct {
	mu sync.Mutex
	// slots is the ring: trace i (counting from 0 in creation order)
	// lives in slots[i%len(slots)], and the evicted trace's stage slice
	// is reused in place by the one that replaces it.
	slots []Trace
	// next counts traces ever created; the retained ones are the last
	// min(next, len(slots)).
	next uint64
	byID map[uint64]*Trace

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
	return &Tracer{slots: make([]Trace, n), byID: make(map[uint64]*Trace, n)}
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
		tr = &t.slots[t.next%uint64(len(t.slots))]
		if t.next >= uint64(len(t.slots)) {
			delete(t.byID, tr.TxnID)
		}
		t.next++
		*tr = Trace{TxnID: txnID, Stages: tr.Stages[:0]}
		t.byID[txnID] = tr
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
	first := t.evictedLocked()
	if n > 0 && t.next-first > uint64(n) {
		first = t.next - uint64(n)
	}
	out := make([]Trace, 0, t.next-first)
	for i := first; i < t.next; i++ {
		out = append(out, t.slots[i%uint64(len(t.slots))].clone())
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
	return t.evictedLocked()
}

// evictedLocked is how many traces have left the ring, which is also
// the creation index of the oldest one retained.
func (t *Tracer) evictedLocked() uint64 {
	return t.next - min(t.next, uint64(len(t.slots)))
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
