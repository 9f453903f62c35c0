package obs

import (
	"encoding/json"
	"io"
	"sync"
	"time"
)

// Slow-path auto-capture: one latency budget bounds every pipeline stage
// (commit→monitor delivery, delta evaluation, data-plane push); when a
// transaction's stage exceeds it, its trace, its flight-recorder events
// and any caller-supplied detail (e.g. the pushed entries' provenance)
// are pinned into a small FIFO incident store. Pinned incidents survive
// ring eviction, so slow outliers remain inspectable at /debug/incidents
// long after their traces and events have been overwritten.

// Incident is one pinned slow-transaction capture.
type Incident struct {
	// Seq numbers incidents in pinning order.
	Seq    uint64    `json:"seq"`
	Time   time.Time `json:"time"`
	Txn    uint64    `json:"txn"`
	Source string    `json:"source,omitempty"`
	// Stage names the exceeded budget ("monitor", "delta", "push").
	Stage  string        `json:"stage"`
	Budget time.Duration `json:"budget_ns"`
	Actual time.Duration `json:"actual_ns"`
	// Events is the transaction's flight-recorder events at pin time:
	// what is not a stage of its trace (an abort, a failed push), so
	// none for a transaction that merely ran slow.
	Events []Event `json:"events"`
	// Trace is the transaction's timeline, if traced: each step once,
	// with the device of each write.
	Trace *Trace `json:"trace,omitempty"`
	// Detail carries stage-specific context: for pushes, the provenance
	// (Explain output) of the entries the transaction installed.
	Detail any `json:"detail,omitempty"`
}

// incidentCapacity bounds an observer's incident store.
const incidentCapacity = 32

// IncidentStore retains the most recent incidents, FIFO. A nil store
// ignores pins.
type IncidentStore struct {
	mu      sync.Mutex
	cap     int
	items   []Incident
	seq     uint64
	evicted uint64
}

// newIncidentStore creates a store retaining the last incidentCapacity
// incidents.
func newIncidentStore() *IncidentStore {
	return &IncidentStore{cap: incidentCapacity}
}

// Add pins one incident, evicting the oldest beyond capacity.
func (s *IncidentStore) Add(inc Incident) {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.seq++
	inc.Seq = s.seq
	if inc.Time.IsZero() {
		inc.Time = time.Now()
	}
	s.items = append(s.items, inc)
	if len(s.items) > s.cap {
		n := len(s.items) - s.cap
		s.evicted += uint64(n)
		s.items = append([]Incident(nil), s.items[n:]...)
	}
}

// Snapshot returns the retained incidents, oldest first; txn 0 matches
// all transactions.
func (s *IncidentStore) Snapshot(txn uint64) (incidents []Incident, evicted uint64) {
	if s == nil {
		return nil, 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, inc := range s.items {
		if txn == 0 || inc.Txn == txn {
			incidents = append(incidents, inc)
		}
	}
	return incidents, s.evicted
}

// Len returns how many incidents are retained.
func (s *IncidentStore) Len() int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.items)
}

// incidentDump is the /debug/incidents JSON envelope.
type incidentDump struct {
	Evicted   uint64     `json:"evicted"`
	Incidents []Incident `json:"incidents"`
}

// WriteJSON dumps retained incidents (txn 0 = all) as JSON.
func (s *IncidentStore) WriteJSON(w io.Writer, txn uint64) error {
	incidents, evicted := s.Snapshot(txn)
	if incidents == nil {
		incidents = []Incident{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(incidentDump{Evicted: evicted, Incidents: incidents})
}

// SetSlowBudget installs the latency budget every stage is held to
// (typically once at startup from -obs-slow-budget; 0 disables capture).
// Nil-safe.
func (o *Observer) SetSlowBudget(d time.Duration) {
	if o == nil {
		return
	}
	o.budget.Store(int64(d))
}

// SlowBudget returns the installed budget (zero when unset/disabled).
func (o *Observer) SlowBudget() time.Duration {
	if o == nil {
		return 0
	}
	return time.Duration(o.budget.Load())
}

// BudgetExceeded reports whether a stage's measured latency blew the
// budget. Callers pair it with PinIncident so they can assemble
// stage-specific detail only on the (rare) slow path.
func (o *Observer) BudgetExceeded(actual time.Duration) bool {
	b := o.SlowBudget()
	return b > 0 && actual > b
}

// PinIncident captures the transaction's current trace and events into
// the incident store. detail is stored verbatim (JSON-marshaled at
// dump time); pass nil when there is nothing stage-specific to pin.
func (o *Observer) PinIncident(stage string, txn uint64, source string, actual time.Duration, detail any) {
	if o == nil || o.Incidents == nil {
		return
	}
	inc := Incident{
		Txn:    txn,
		Source: source,
		Stage:  stage,
		Budget: o.SlowBudget(),
		Actual: actual,
		Detail: detail,
	}
	// Txn-less work (initial sync, digest-driven pushes) has no bounded
	// event set — EventsFor(0) matches every event and would pin the
	// whole ring per incident.
	if txn != 0 {
		inc.Events = o.Rec().EventsFor(txn)
	}
	if tr, ok := o.Tr().Get(txn); ok {
		inc.Trace = &tr
	}
	o.Incidents.Add(inc)
	o.mIncidents.Inc()
}
