package obs

import (
	"encoding/json"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// The flight recorder: a structured, leveled event log shared by all
// planes. Events have a fixed schema (time, plane, kind, txn, device,
// integer fields) and are appended to a bounded ring. Appending is
// lock-cheap (one mutex, one slot copy) and allocation-free; the
// disabled path (nil *Recorder, or an event below the minimum level) is
// a single branch. Unlike /metrics, which exposes what *is*, the event
// log records what *happened* — the evidence needed to reconstruct a
// slow or wedged transaction after the fact.

// Level classifies an event's verbosity. The zero value is LevelInfo,
// so events are info-level unless explicitly marked Debug.
type Level int32

const (
	// LevelDebug marks high-volume events (per-append WAL timings) that
	// operators may filter out by raising the recorder's minimum level.
	LevelDebug Level = -1
	// LevelInfo is the default level.
	LevelInfo Level = 0
)

// String renders the level for JSON exposition.
func (l Level) String() string {
	if l < LevelInfo {
		return "debug"
	}
	return "info"
}

// Field is one integer measurement attached to an event or a stage.
type Field struct {
	Key string
	Val int64
}

// maxEventFields bounds the per-record field array; keeping it fixed is
// what keeps Recorder.Append and Tracer.Record allocation-free.
const maxEventFields = 4

// fieldSet is the fixed-size field array Event and Stage share.
type fieldSet struct {
	fields [maxEventFields]Field
	nf     int32
}

// add appends one field. Beyond maxEventFields the field is silently
// dropped (fixed schema beats unbounded growth on a hot path).
func (s *fieldSet) add(key string, v int64) {
	if int(s.nf) < maxEventFields {
		s.fields[s.nf] = Field{Key: key, Val: v}
		s.nf++
	}
}

// Field returns one field's value by key.
func (s fieldSet) Field(key string) (int64, bool) {
	for i := int32(0); i < s.nf; i++ {
		if s.fields[i].Key == key {
			return s.fields[i].Val, true
		}
	}
	return 0, false
}

// Attrs returns the fields as a fresh map, nil when there are none: the
// JSON form of both records, and the fleet view's stage attributes.
func (s fieldSet) Attrs() map[string]int64 {
	if s.nf == 0 {
		return nil
	}
	m := make(map[string]int64, s.nf)
	for i := int32(0); i < s.nf; i++ {
		m[s.fields[i].Key] = s.fields[i].Val
	}
	return m
}

// setAttrs replaces the fields with a decoded map's (in map order).
func (s *fieldSet) setAttrs(m map[string]int64) {
	*s = fieldSet{}
	for k, v := range m {
		s.add(k, v)
	}
}

// Event is one fixed-schema flight-recorder entry. Build events with Ev
// and the chaining helpers (all value receivers: the event lives on the
// stack until Append copies it into the ring).
type Event struct {
	Seq    uint64
	Time   time.Time
	Plane  string
	Kind   string
	Level  Level
	Txn    uint64
	Device string

	fieldSet
}

// Ev starts an event for the given plane and kind. Kinds follow the
// <noun>.<verb> convention (txn.abort, conn.resync, digest.recv).
func Ev(plane, kind string) Event { return Event{Plane: plane, Kind: kind} }

// WithTxn tags the event with its originating transaction (0 = none).
func (e Event) WithTxn(txn uint64) Event { e.Txn = txn; return e }

// WithDevice tags the event with the device it concerns.
func (e Event) WithDevice(dev string) Event { e.Device = dev; return e }

// Debug lowers the event to debug level.
func (e Event) Debug() Event { e.Level = LevelDebug; return e }

// At stamps the event with an explicit time (Append otherwise uses the
// append instant — pass the measurement time when they differ).
func (e Event) At(t time.Time) Event { e.Time = t; return e }

// F attaches one integer field (beyond maxEventFields it is dropped).
func (e Event) F(key string, v int64) Event { e.add(key, v); return e }

// eventJSON is the wire form of an Event.
type eventJSON struct {
	Seq    uint64           `json:"seq"`
	Time   time.Time        `json:"time"`
	Plane  string           `json:"plane"`
	Kind   string           `json:"kind"`
	Level  string           `json:"level,omitempty"`
	Txn    uint64           `json:"txn,omitempty"`
	Device string           `json:"device,omitempty"`
	Fields map[string]int64 `json:"fields,omitempty"`
}

// MarshalJSON renders the event with its fields as a JSON object.
func (e Event) MarshalJSON() ([]byte, error) {
	j := eventJSON{
		Seq: e.Seq, Time: e.Time, Plane: e.Plane, Kind: e.Kind,
		Txn: e.Txn, Device: e.Device, Fields: e.Attrs(),
	}
	if e.Level != LevelInfo {
		j.Level = e.Level.String()
	}
	return json.Marshal(j)
}

// UnmarshalJSON parses the wire form (tests and tooling; field order is
// not preserved).
func (e *Event) UnmarshalJSON(data []byte) error {
	var j eventJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*e = Event{Seq: j.Seq, Time: j.Time, Plane: j.Plane, Kind: j.Kind,
		Txn: j.Txn, Device: j.Device}
	if j.Level == "debug" {
		e.Level = LevelDebug
	}
	e.setAttrs(j.Fields)
	return nil
}

// DefaultEventCapacity bounds the ring when NewRecorder is given n <= 0.
const DefaultEventCapacity = 4096

// Recorder is the bounded flight-recorder ring. A nil *Recorder is the
// disabled state: Append is a no-op and dumps are empty.
type Recorder struct {
	minLevel atomic.Int32

	mu  sync.Mutex
	buf []Event // length is a power of two; slot = (seq-1) & mask
	// mask is len(buf)-1, turning the ring-index modulo into an AND on
	// the append hot path.
	mask uint64
	// next counts events ever appended. Writes happen under mu; it is
	// atomic so Total (the scrape-time obs_events_total callback) can
	// read it without taking the append lock.
	next atomic.Uint64
}

// NewRecorder creates a recorder retaining the last n events (rounded
// up to a power of two so the ring index is a mask, not a modulo).
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultEventCapacity
	}
	capPow2 := 1
	for capPow2 < n {
		capPow2 <<= 1
	}
	r := &Recorder{buf: make([]Event, capPow2), mask: uint64(capPow2 - 1)}
	r.minLevel.Store(int32(LevelDebug))
	return r
}

// Total reports how many events have ever been appended (the
// obs_events_total reading). Nil-safe and lock-free.
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Load()
}

// SetMinLevel drops subsequent events below l (default LevelDebug:
// everything is recorded).
func (r *Recorder) SetMinLevel(l Level) {
	if r == nil {
		return
	}
	r.minLevel.Store(int32(l))
}

// Append stamps the event with a sequence number (and the current time,
// unless the caller already set one) and stores it, overwriting the
// oldest event when the ring is full. Nil-safe and allocation-free.
func (r *Recorder) Append(ev Event) {
	if r == nil || int32(ev.Level) < r.minLevel.Load() {
		return
	}
	if ev.Time.IsZero() {
		ev.Time = time.Now()
	}
	r.mu.Lock()
	seq := r.next.Add(1)
	ev.Seq = seq
	r.buf[(seq-1)&r.mask] = ev
	r.mu.Unlock()
}

// Len returns how many events the ring currently retains.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := r.next.Load(); n < uint64(len(r.buf)) {
		return int(n)
	}
	return len(r.buf)
}

// EventFilter selects events from a dump. Zero values match everything.
type EventFilter struct {
	Plane string
	Kind  string
	Txn   uint64 // 0 = any transaction (including none)
	// SinceSeq keeps events with Seq > SinceSeq (resume cursors).
	SinceSeq uint64
	// Since keeps events at or after this time.
	Since time.Time
	// Limit keeps only the newest n matching events (0 = all retained).
	Limit int
}

func (f *EventFilter) match(ev *Event) bool {
	if f.Plane != "" && ev.Plane != f.Plane {
		return false
	}
	if f.Kind != "" && ev.Kind != f.Kind {
		return false
	}
	if f.Txn != 0 && ev.Txn != f.Txn {
		return false
	}
	if ev.Seq <= f.SinceSeq {
		return false
	}
	if !f.Since.IsZero() && ev.Time.Before(f.Since) {
		return false
	}
	return true
}

// Snapshot copies the matching retained events, oldest first, and
// reports how many events the ring has discarded and appended in total.
func (r *Recorder) Snapshot(f EventFilter) (events []Event, evicted, total uint64) {
	if r == nil {
		return nil, 0, 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	next := r.next.Load()
	start := uint64(0)
	if next > uint64(len(r.buf)) {
		start = next - uint64(len(r.buf))
	}
	for i := start; i < next; i++ {
		ev := r.buf[i&r.mask]
		if f.match(&ev) {
			events = append(events, ev)
		}
	}
	if f.Limit > 0 && len(events) > f.Limit {
		events = events[len(events)-f.Limit:]
	}
	return events, start, next
}

// EventsFor returns every retained event of one transaction, oldest
// first (the incident-pinning path).
func (r *Recorder) EventsFor(txn uint64) []Event {
	evs, _, _ := r.Snapshot(EventFilter{Txn: txn})
	return evs
}

// eventDump is the /debug/events JSON envelope.
type eventDump struct {
	Total   uint64  `json:"total"`
	Evicted uint64  `json:"evicted"`
	Events  []Event `json:"events"`
}

// WriteJSON dumps the matching events as one JSON document.
func (r *Recorder) WriteJSON(w io.Writer, f EventFilter) error {
	events, evicted, total := r.Snapshot(f)
	if events == nil {
		events = []Event{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(eventDump{Total: total, Evicted: evicted, Events: events})
}

// WriteNDJSON dumps the matching events as newline-delimited JSON, one
// event per line, flushing after each line when w supports it (so a
// streaming client sees events as they are written).
func (r *Recorder) WriteNDJSON(w io.Writer, f EventFilter) error {
	events, _, _ := r.Snapshot(f)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for _, ev := range events {
		if err := enc.Encode(ev); err != nil {
			return err
		}
		if fl != nil {
			fl.Flush()
		}
	}
	return nil
}
