package ovsdb

import (
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/wirejson"
)

// MonitorSelect controls which kinds of changes a monitor receives.
// The zero value selects everything (matching RFC 7047 defaults).
type MonitorSelect struct {
	Initial *bool `json:"initial,omitempty"`
	Insert  *bool `json:"insert,omitempty"`
	Delete  *bool `json:"delete,omitempty"`
	Modify  *bool `json:"modify,omitempty"`
}

func selOn(b *bool) bool { return b == nil || *b }

// MonitorRequest selects the columns and change kinds for one table.
type MonitorRequest struct {
	Columns []string       `json:"columns,omitempty"`
	Select  *MonitorSelect `json:"select,omitempty"`
}

func (mr *MonitorRequest) wants(kind string) bool {
	if mr.Select == nil {
		return true
	}
	switch kind {
	case "initial":
		return selOn(mr.Select.Initial)
	case "insert":
		return selOn(mr.Select.Insert)
	case "delete":
		return selOn(mr.Select.Delete)
	default:
		return selOn(mr.Select.Modify)
	}
}

// RowUpdate is one row's change in a monitor notification (RFC 7047
// §4.1.6). The rows may be the database's own images, and one update may
// reach several subscribers: they are read-only.
type RowUpdate struct {
	Old Row `json:"old,omitempty"`
	New Row `json:"new,omitempty"`
}

// TableUpdate maps row UUIDs to their updates.
type TableUpdate map[string]RowUpdate

// TableUpdates maps table names to their updates.
type TableUpdates map[string]TableUpdate

// Monitor is a registered change subscriber. Notifications are delivered
// in commit order on a dedicated goroutine via the callback passed to
// AddMonitor. The txn argument is the ID minted at commit (0 for events
// with no originating transaction), letting subscribers correlate
// updates with traced transactions.
type Monitor struct {
	db       *Database
	requests map[string]*MonitorRequest
	notify   func(txn uint64, tu TableUpdates)
	// notifyWire, which the protocol server sets instead of notify, takes
	// each update already rendered as the notification's JSON object.
	notifyWire func(txn uint64, updates []byte)
	// cols is, per monitored table, the selected columns, sorted (the
	// order encoding/json gives map keys) and without repeats.
	cols map[string][]string

	mu     sync.Mutex
	queue  []queuedUpdate
	wake   chan struct{}
	closed bool
}

// queuedUpdate is one committed transaction's changes awaiting rendering
// and delivery, stamped with the commit time so delivery can report
// fan-out lag. changes is sorted by table, then row, and shared between
// monitors: read-only.
type queuedUpdate struct {
	txn     uint64
	commit  time.Time
	changes []changeRef
}

// AddMonitor registers a monitor over the given tables and returns it
// along with the initial contents (rows as inserts) for tables whose
// select includes initial. notify is called sequentially, in commit order.
func (db *Database) AddMonitor(requests map[string]*MonitorRequest, notify func(txn uint64, tu TableUpdates)) (*Monitor, TableUpdates, error) {
	m, _, _, _, initial, err := db.AddMonitorSince(requests, NoCursor, notify)
	return m, initial, err
}

// NoCursor, passed to AddMonitorSince as since, requests a full initial
// snapshot unconditionally; the returned lastTxn seeds the caller's
// cursor for later resumptions.
const NoCursor = ^uint64(0)

// GapUpdate is one replayed transaction in a monitor cursor reply.
type GapUpdate struct {
	Txn     uint64       `json:"txn"`
	Updates TableUpdates `json:"updates"`
}

// AddMonitorSince is AddMonitor with a transaction cursor: since is the
// last transaction the caller has already seen. When the gap-replay
// window still covers every change-commit after since, found is true
// and gap carries those commits as ordinary per-transaction deltas —
// the caller resumes without a snapshot. Otherwise (cursor compacted
// away, cursor ahead of this server's history, or since == NoCursor)
// found is false and initial is the usual full snapshot.
//
// lastTxn is the newest committed transaction at registration. The gap
// covers (since, lastTxn] and live notifications cover strictly later
// commits — both computed under the commit lock, so no transaction is
// ever dropped or delivered twice across the boundary.
func (db *Database) AddMonitorSince(requests map[string]*MonitorRequest, since uint64, notify func(txn uint64, tu TableUpdates)) (m *Monitor, found bool, lastTxn uint64, gap []GapUpdate, initial TableUpdates, err error) {
	return db.addMonitor(requests, since, notify, nil)
}

// addMonitor is AddMonitorSince with the choice of how live updates are
// delivered: as TableUpdates to notify, or rendered to JSON to
// notifyWire. The initial contents and the gap come back as values
// either way.
func (db *Database) addMonitor(requests map[string]*MonitorRequest, since uint64, notify func(uint64, TableUpdates), notifyWire func(uint64, []byte)) (m *Monitor, found bool, lastTxn uint64, gap []GapUpdate, initial TableUpdates, err error) {
	for table, req := range requests {
		ts := db.schema.Tables[table]
		if ts == nil {
			return nil, false, 0, nil, nil, &MonitorError{Table: table, Reason: "unknown table"}
		}
		for _, col := range req.Columns {
			if _, ok := ts.Columns[col]; !ok {
				return nil, false, 0, nil, nil, &MonitorError{Table: table, Reason: "unknown column " + col}
			}
		}
	}
	m = &Monitor{
		db:         db,
		requests:   requests,
		notify:     notify,
		notifyWire: notifyWire,
		wake:       make(chan struct{}, 1),
	}
	m.cols = make(map[string][]string, len(requests))
	for table, req := range requests {
		cols := slices.Clone(req.Columns)
		if cols == nil { // all columns
			for col := range db.schema.Tables[table].Columns {
				cols = append(cols, col)
			}
		}
		slices.Sort(cols)
		m.cols[table] = slices.Compact(cols)
	}
	db.mu.Lock()
	lastTxn = db.txnSeq
	// pending collects the gap's retained commits for rendering after
	// the lock is released: a large replay (up to the whole window) must
	// not stall commits and other registrations behind per-row JSON
	// rendering. The changeRef elements are copied out — ring eviction
	// zeroes and recycles the buffers — but the Row images they point at
	// are copy-on-write, so they stay stable off the lock.
	var pending []gapEntry
	if since != NoCursor && since <= lastTxn && since >= db.winFloor {
		found = true
		for i := 0; i < db.winCount; i++ {
			e := &db.win[(db.winHead+i)%len(db.win)]
			if e.txn <= since {
				continue
			}
			cp := make([]changeRef, len(e.changes))
			copy(cp, e.changes)
			pending = append(pending, gapEntry{txn: e.txn, changes: cp})
		}
		db.mGapReplays.Inc()
	} else {
		initial = make(TableUpdates)
		for table, req := range requests {
			if !req.wants("initial") {
				continue
			}
			tu := make(TableUpdate)
			for id, row := range db.tables[table] {
				tu[string(id)] = RowUpdate{New: project(row, m.cols[table])}
			}
			if len(tu) > 0 {
				initial[table] = tu
			}
		}
		if since != NoCursor {
			db.mGapMisses.Inc()
		}
	}
	db.monMu.Lock()
	db.monitors[m] = true
	db.monMu.Unlock()
	db.mu.Unlock()
	if found {
		// Render off the lock; only schema (immutable) and the copied
		// rows are touched. Live commits after lastTxn are already
		// enqueuing to the monitor, but delivery starts below, so gap
		// entries still precede every live update.
		gap = []GapUpdate{}
		for i := range pending {
			if tu := m.render(pending[i].changes); len(tu) > 0 {
				gap = append(gap, GapUpdate{Txn: pending[i].txn, Updates: tu})
			}
		}
	}
	go m.run()
	return m, found, lastTxn, gap, initial, nil
}

// MonitorError reports an invalid monitor request.
type MonitorError struct {
	Table  string
	Reason string
}

func (e *MonitorError) Error() string { return "ovsdb: monitor " + e.Table + ": " + e.Reason }

// Cancel unregisters the monitor and stops its delivery goroutine.
func (m *Monitor) Cancel() {
	m.db.monMu.Lock()
	delete(m.db.monitors, m)
	m.db.monMu.Unlock()
	m.mu.Lock()
	m.closed = true
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *Monitor) enqueue(qu queuedUpdate) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	m.queue = append(m.queue, qu)
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

func (m *Monitor) run() {
	for {
		m.mu.Lock()
		for len(m.queue) == 0 {
			closed := m.closed
			m.mu.Unlock()
			if closed {
				return
			}
			<-m.wake
			m.mu.Lock()
		}
		batch := m.queue
		m.queue = nil
		m.mu.Unlock()
		for _, qu := range batch {
			// Rendering happens here, off the commit lock: the rows a
			// change points at are copy-on-write.
			var tu TableUpdates
			var wire []byte
			var tables int
			if m.notifyWire == nil {
				tu = m.render(qu.changes)
				tables = len(tu)
			} else {
				var err error
				if wire, tables, err = m.renderWire(qu.changes); err != nil {
					// CheckValue keeps out the one value JSON cannot
					// express (a non-finite real), so this is a bug's
					// trace, not an expected drop.
					m.db.rec.Append(obs.Ev("ovsdb", "monitor.render_error").WithTxn(qu.txn))
					continue
				}
			}
			if tables == 0 {
				continue // nothing this monitor selects
			}
			delivered := time.Now()
			lag := delivered.Sub(qu.commit)
			m.db.mMonitorLag.ObserveDuration(lag)
			m.db.mMonitorSends.Inc()
			m.db.tracer.Record(qu.txn, "ovsdb", obs.Stage{Name: "monitor", Start: qu.commit, End: delivered}.
				F("tables", int64(tables)))
			if m.db.obs.BudgetExceeded(lag) {
				m.db.obs.PinIncident("monitor", qu.txn, "ovsdb", lag, nil)
			}
			if m.notifyWire != nil {
				m.notifyWire(qu.txn, wire)
			} else {
				m.notify(qu.txn, tu)
			}
		}
	}
}

// project returns row's image over cols (sorted, no repeats): row itself
// when that is all of it, since rows are copy-on-write and never change
// under whoever shares one.
func project(row Row, cols []string) Row {
	n := 0
	for _, col := range cols {
		if _, ok := row[col]; ok {
			n++
		}
	}
	if n == len(row) {
		return row
	}
	out := make(Row, n)
	for _, col := range cols {
		if v, ok := row[col]; ok {
			out[col] = v
		}
	}
	return out
}

// notifyMonitors fans a committed transaction's changes out to the
// monitors that watch a table it touched. Called with db.mu held (commit
// order therefore equals enqueue order); rendering and delivery happen
// on each monitor's goroutine, from one sorted copy of flat (the caller
// recycles flat itself).
func (db *Database) notifyMonitors(txn uint64, commit time.Time, flat []changeRef) {
	db.monMu.Lock()
	defer db.monMu.Unlock()
	var shared []changeRef
	for m := range db.monitors {
		if !slices.ContainsFunc(flat, func(c changeRef) bool { return m.requests[c.table] != nil }) {
			continue
		}
		if shared == nil {
			// (table, row) order is what makes rendered bytes the ones
			// json.Marshal would produce from the maps.
			shared = slices.Clone(flat)
			slices.SortFunc(shared, func(a, b changeRef) int {
				if c := strings.Compare(a.table, b.table); c != 0 {
					return c
				}
				return strings.Compare(string(a.id), string(b.id))
			})
		}
		m.enqueue(queuedUpdate{txn: txn, commit: commit, changes: shared})
	}
}

// selection reports what a monitor with request req over the columns
// cols is told about the change c: nothing (ok false), or c's old image
// over oldCols and its new image over newCols.
func (req *MonitorRequest) selection(c *changeRef, cols []string) (oldCols, newCols []string, ok bool) {
	switch {
	case c.old == nil:
		return nil, cols, req.wants("insert")
	case c.new == nil:
		return cols, nil, req.wants("delete")
	case !req.wants("modify"):
		return nil, nil, false
	}
	// Old carries only the columns that actually changed (and are
	// selected); New carries all selected columns.
	for _, col := range cols {
		ov, inOld := c.old[col]
		nv, inNew := c.new[col]
		if inOld != inNew || inOld && !ValueEqual(ov, nv) {
			oldCols = append(oldCols, col)
		}
	}
	return oldCols, cols, len(oldCols) > 0
}

// selected calls yield for each change in flat the monitor reports, with
// the columns of its old and of its new image.
func (m *Monitor) selected(flat []changeRef, yield func(c *changeRef, oldCols, newCols []string)) {
	for i := range flat {
		c := &flat[i]
		if req := m.requests[c.table]; req != nil {
			if oldCols, newCols, ok := req.selection(c, m.cols[c.table]); ok {
				yield(c, oldCols, newCols)
			}
		}
	}
}

// render builds the TableUpdates a notify monitor receives for flat.
func (m *Monitor) render(flat []changeRef) TableUpdates {
	out := make(TableUpdates)
	m.selected(flat, func(c *changeRef, oldCols, newCols []string) {
		tu := out[c.table]
		if tu == nil {
			tu = make(TableUpdate)
			out[c.table] = tu
		}
		var ru RowUpdate
		if c.old != nil {
			ru.Old = project(c.old, oldCols)
		}
		if c.new != nil {
			ru.New = project(c.new, newCols)
		}
		tu[string(c.id)] = ru
	})
	return out
}

// renderWire is render for a notifyWire monitor: the same selection,
// appended as the JSON object json.Marshal makes of render's
// TableUpdates. flat is sorted by table, then row.
func (m *Monitor) renderWire(flat []changeRef) (out []byte, tables int, err error) {
	out = append(out, '{')
	table, rows := "", 0 // the table whose object is open (rows > 0) and how many rows it holds
	m.selected(flat, func(c *changeRef, oldCols, newCols []string) {
		if err != nil {
			return
		}
		if rows > 0 && c.table != table {
			out, rows = append(out, '}'), 0
		}
		if rows == 0 {
			out = append(wirejson.AppendString(sep(out, tables), c.table), ':', '{')
			table = c.table
			tables++
		}
		out = append(wirejson.AppendString(sep(out, rows), string(c.id)), ':', '{')
		rows++
		members := 0
		if c.old != nil {
			out, members, err = appendImage(out, `"old":`, c.old, oldCols, 0)
		}
		if c.new != nil && err == nil {
			out, _, err = appendImage(out, `"new":`, c.new, newCols, members)
		}
		out = append(out, '}')
	})
	if err != nil {
		return nil, 0, err
	}
	if rows > 0 {
		out = append(out, '}')
	}
	return append(out, '}'), tables, nil
}

// appendImage appends one member (old or new) of a row update, the row's
// image over cols, unless that image is empty — RowUpdate's omitempty.
// before is how many members precede it; it returns how many there are now.
func appendImage(dst []byte, name string, row Row, cols []string, before int) ([]byte, int, error) {
	start := len(dst)
	dst, n, err := appendWireRow(append(sep(dst, before), name...), row, cols)
	if n == 0 {
		return dst[:start], before, err
	}
	return dst, before + 1, err
}
