package ovsdb

import (
	"encoding/json"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/ovsdb/wal"
)

// Row is one table row: column name → value. The _uuid pseudo-column is
// stored separately as the row key (a select result carries it as a UUID
// column). This is the only in-memory form of a row (wire.go turns it into
// bytes and back), shared, not copied, between the database, operations,
// results and monitors: a Row handed out or handed in is read-only.
type Row map[string]Value

// clone returns a shallow copy (values are immutable by convention).
func (r Row) clone() Row {
	out := make(Row, len(r))
	for k, v := range r {
		out[k] = v
	}
	return out
}

// Database is an in-memory OVSDB database instance guarded by a mutex.
// Transactions are atomic: on error every modified row is rolled back.
type Database struct {
	mu     sync.Mutex
	schema *DatabaseSchema
	tables map[string]map[UUID]Row
	// idx enforces schema "indexes" uniqueness in O(1): per table, one
	// map per declared index from the index-columns key to the row UUID.
	// Maintained eagerly; rebuilt from the table on transaction rollback.
	idx map[string][]map[string]UUID

	// txnPool recycles per-transaction scratch (see txn).
	txnPool sync.Pool

	monMu    sync.Mutex
	monitors map[*Monitor]bool

	// txnSeq mints transaction IDs under db.mu, so IDs are monotonic in
	// commit order. ID 0 is reserved for "no transaction". Restore seeds
	// it from the recovered log so IDs stay monotonic across restarts.
	txnSeq uint64

	// Durability (see persist.go). wal is nil for a memory-only
	// database; walDead latches the first WAL failure (the database
	// keeps serving but reports itself degraded).
	wal     *wal.Log
	walDead bool

	// Gap-replay window for monitor cursor resumption: a ring of the
	// last winCap change-commits plus the floor below which history has
	// been dropped. freeBufs recycles evicted entries' change buffers.
	win      []gapEntry
	winHead  int
	winCount int
	winCap   int
	winFloor uint64
	freeBufs [][]changeRef

	// Observability (all nil-safe; zero overhead when unset).
	obs            *obs.Observer
	tracer         *obs.Tracer
	rec            *obs.Recorder
	mTxnTotal      *obs.Counter
	mTxnErrors     *obs.Counter
	mCommitSeconds *obs.Histogram
	mMonitorLag    *obs.Histogram
	mMonitorSends  *obs.Counter
	mGapReplays    *obs.Counter
	mGapMisses     *obs.Counter
}

// NewDatabase creates an empty database for the schema.
func NewDatabase(schema *DatabaseSchema) *Database {
	db := &Database{
		schema:   schema,
		tables:   make(map[string]map[UUID]Row, len(schema.Tables)),
		idx:      make(map[string][]map[string]UUID, len(schema.Tables)),
		monitors: make(map[*Monitor]bool),
	}
	for name, ts := range schema.Tables {
		db.tables[name] = make(map[UUID]Row)
		maps := make([]map[string]UUID, len(ts.Indexes))
		for i := range maps {
			maps[i] = make(map[string]UUID)
		}
		db.idx[name] = maps
	}
	return db
}

// indexKeyOf computes the key of row under one declared index.
func indexKeyOf(cols []string, row Row) string {
	var buf [128]byte
	k := buf[:0]
	for _, c := range cols {
		k = append(appendValueKey(k, row[c]), 0)
	}
	return string(k)
}

// reindexRow validates and applies the index-map changes for one row
// transition (oldRow nil on insert, newRow nil on delete).
func (db *Database) reindexRow(table string, ts *TableSchema, id UUID, oldRow, newRow Row) error {
	maps := db.idx[table]
	for i, cols := range ts.Indexes {
		var oldKey, newKey string
		if oldRow != nil {
			oldKey = indexKeyOf(cols, oldRow)
		}
		if newRow != nil {
			newKey = indexKeyOf(cols, newRow)
		}
		if oldRow != nil && newRow != nil && oldKey == newKey {
			continue
		}
		if newRow != nil {
			if other, exists := maps[i][newKey]; exists && other != id {
				return fmt.Errorf("duplicate value for index %v (row %s)", cols, other)
			}
		}
		if oldRow != nil {
			delete(maps[i], oldKey)
		}
		if newRow != nil {
			maps[i][newKey] = id
		}
	}
	return nil
}

// rebuildIndexes reconstructs a table's index maps from its rows (used
// after rollback).
func (db *Database) rebuildIndexes(table string) {
	ts := db.schema.Tables[table]
	maps := make([]map[string]UUID, len(ts.Indexes))
	for i := range maps {
		maps[i] = make(map[string]UUID)
	}
	for id, row := range db.tables[table] {
		for i, cols := range ts.Indexes {
			maps[i][indexKeyOf(cols, row)] = id
		}
	}
	db.idx[table] = maps
}

// Schema returns the database schema.
func (db *Database) Schema() *DatabaseSchema { return db.schema }

// SetObs attaches an observer to the database. A nil observer (the
// default) degrades every instrument, the flight recorder and the
// history to no-ops. Call before serving transactions.
func (db *Database) SetObs(o *obs.Observer) {
	db.obs = o
	db.tracer = o.Tr()
	db.rec = o.Rec()
	reg := o.Reg()
	db.mTxnTotal = reg.Counter("ovsdb_txn_total",
		"Committed OVSDB transactions.")
	db.mTxnErrors = reg.Counter("ovsdb_txn_errors_total",
		"OVSDB transactions aborted by an operation error.")
	db.mCommitSeconds = reg.Histogram("ovsdb_commit_seconds",
		"OVSDB transaction commit latency.", nil)
	db.mMonitorLag = reg.Histogram("ovsdb_monitor_lag_seconds",
		"Delay between commit and monitor callback delivery.", nil)
	db.mMonitorSends = reg.Counter("ovsdb_monitor_updates_total",
		"Monitor update notifications delivered.")
	db.mGapReplays = reg.Counter("ovsdb_monitor_gap_replays_total",
		"Monitor registrations resumed by gap replay from a txn cursor.")
	db.mGapMisses = reg.Counter("ovsdb_monitor_gap_misses_total",
		"Monitor cursor resumptions that fell back to a full snapshot.")
	o.TrackRate(obs.SeriesCommits, func() float64 { return float64(db.mTxnTotal.Value()) })
	o.TrackHistogramAvg(obs.SeriesMonitorLag, db.mMonitorLag)
	o.TrackHistogramAvg("ovsdb_commit_seconds", db.mCommitSeconds)
}

// LastTxnID returns the most recently minted transaction ID (0 if no
// transaction has committed).
func (db *Database) LastTxnID() uint64 {
	db.mu.Lock()
	defer db.mu.Unlock()
	return db.txnSeq
}

// Operation is one element of a transact request (RFC 7047 §5.2).
type Operation struct {
	Op        string               `json:"op"`
	Table     string               `json:"table,omitempty"`
	Row       Row                  `json:"row,omitempty"`
	Rows      []Row                `json:"rows,omitempty"`
	Where     [][3]json.RawMessage `json:"where,omitempty"`
	Columns   []string             `json:"columns,omitempty"`
	Mutations [][3]json.RawMessage `json:"mutations,omitempty"`
	UUIDName  string               `json:"uuid-name,omitempty"`
	Until     string               `json:"until,omitempty"`
	Timeout   int                  `json:"timeout,omitempty"`
	Comment   string               `json:"comment,omitempty"`

	// rowWire and rowsWire are what a transact request carried as row and
	// rows, in place of Row and Rows: bytes typeRow types once the
	// operation's table is known.
	rowWire  json.RawMessage
	rowsWire []json.RawMessage
}

// OpResult is the result of one operation.
type OpResult struct {
	Count   int    `json:"count,omitempty"`
	UUID    UUID   `json:"uuid,omitempty"`
	Rows    []Row  `json:"rows,omitempty"`
	Error   string `json:"error,omitempty"`
	Details string `json:"details,omitempty"`
}

// rowChange records a row's before/after images for rollback and monitor
// notification.
type rowChange struct {
	old Row // nil for insert
	new Row // nil for delete
}

// txn tracks one in-flight transaction. Instances and their interior
// maps are pooled: commits dominate the management plane's hot path,
// and the per-transaction bookkeeping (change maps, row-change records,
// the effective-changes snapshot) otherwise allocates on every commit.
type txn struct {
	db      *Database
	changes map[string]map[UUID]*rowChange
	named   map[string]UUID // named-uuid → real uuid
	// eff is effectiveChanges' reusable output map.
	eff map[string]map[UUID]*rowChange
	// rcs/rci are a fixed row-change scratch; transactions touching
	// more rows spill to individual heap allocations. The array is
	// never reallocated while pointers into it are live.
	rcs [64]rowChange
	rci int
}

// txnPool is per-database (not package-global): retained change-map
// keys are table names, which are only meaningful against one schema.
func newTxn(db *Database) *txn {
	if tx, ok := db.txnPool.Get().(*txn); ok {
		tx.db = db
		return tx
	}
	return &txn{
		db:      db,
		changes: make(map[string]map[UUID]*rowChange),
		named:   make(map[string]UUID),
		eff:     make(map[string]map[UUID]*rowChange),
	}
}

// release returns the transaction's scratch to the pool. Inner change
// maps are cleared but retained (keyed by table), so steady-state
// commits against the same tables stop allocating maps entirely. Safe
// once no row-change pointers are referenced — i.e. after monitor
// rendering, which copies what it needs.
func (tx *txn) release() {
	db := tx.db
	tx.db = nil
	for _, m := range tx.changes {
		clear(m)
	}
	for _, m := range tx.eff {
		clear(m)
	}
	clear(tx.named)
	tx.rci = 0
	db.txnPool.Put(tx)
}

func (tx *txn) newRowChange() *rowChange {
	if tx.rci < len(tx.rcs) {
		c := &tx.rcs[tx.rci]
		tx.rci++
		*c = rowChange{}
		return c
	}
	return &rowChange{}
}

func (tx *txn) change(table string, id UUID) *rowChange {
	m := tx.changes[table]
	if m == nil {
		m = make(map[UUID]*rowChange)
		tx.changes[table] = m
	}
	c := m[id]
	if c == nil {
		c = tx.newRowChange()
		if cur, ok := tx.db.tables[table][id]; ok {
			// Rows are copy-on-write (every writer clones before
			// modifying), so the before-image can share the stored row.
			c.old = cur
		}
		m[id] = c
	}
	return c
}

// Transact executes the operations atomically. The returned slice has one
// result per operation; if an operation fails, its result carries the
// error, later operations are not executed, and all changes are rolled
// back (per RFC 7047, the whole transaction is aborted).
func (db *Database) Transact(ops []Operation) []OpResult {
	start := time.Now()
	db.mu.Lock()

	tx := newTxn(db)
	results := make([]OpResult, 0, len(ops))
	failed := -1
	for i, op := range ops {
		res := db.applyOp(tx, &op)
		results = append(results, res)
		if res.Error != "" {
			failed = i
			break
		}
	}
	if failed >= 0 {
		// Roll back in-place modifications and rebuild the touched
		// tables' index maps.
		for table, rows := range tx.changes {
			if len(rows) == 0 {
				continue // retained scratch entry from a pooled reuse
			}
			for id, c := range rows {
				if c.old == nil {
					delete(db.tables[table], id)
				} else {
					db.tables[table][id] = c.old
				}
			}
			db.rebuildIndexes(table)
		}
		for len(results) < len(ops) {
			results = append(results, OpResult{})
		}
		db.mu.Unlock()
		tx.release()
		db.mTxnErrors.Inc()
		db.rec.Append(obs.Ev("ovsdb", "txn.abort").
			F("ops", int64(len(ops))).F("failed_op", int64(failed)))
		return results
	}
	// Resolve named UUIDs that leaked into stored rows.
	if err := tx.resolveNamed(); err != nil {
		// Treat as a constraint violation on the whole transaction.
		for table, rows := range tx.changes {
			if len(rows) == 0 {
				continue // retained scratch entry from a pooled reuse
			}
			for id, c := range rows {
				if c.old == nil {
					delete(db.tables[table], id)
				} else {
					db.tables[table][id] = c.old
				}
			}
			db.rebuildIndexes(table)
		}
		db.mu.Unlock()
		tx.release()
		db.mTxnErrors.Inc()
		db.rec.Append(obs.Ev("ovsdb", "txn.abort").F("ops", int64(len(ops))))
		return []OpResult{{Error: "constraint violation", Details: err.Error()}}
	}
	// Snapshot the effective changes and enqueue monitor notifications
	// before releasing the database lock, so monitors observe commits in
	// order. Delivery itself is asynchronous (per-monitor goroutines).
	// The txn ID is minted here, under db.mu, so IDs are monotonic in
	// commit order and monitors can correlate updates to transactions.
	db.txnSeq++
	txnID := db.txnSeq
	commit := time.Now()
	changes, changedTables := tx.effectiveChanges()
	var walTicket <-chan error
	if changedTables > 0 {
		// One pooled flat snapshot of the effective changes feeds both
		// the WAL appender and the gap-replay window (see persist.go).
		flat := db.captureChanges(changes)
		if db.wal != nil && !db.walDead {
			walTicket = db.walAppendLocked(txnID, flat)
		}
		db.notifyMonitors(txnID, commit, flat)
		db.appendGapLocked(txnID, flat)
	}
	db.mu.Unlock()
	// Monitor rendering (above, synchronous) copied everything it
	// needs, so the transaction scratch can be recycled.
	tx.release()
	if walTicket != nil {
		// Wait out the group fsync after releasing db.mu, so concurrent
		// commits batch behind one sync instead of serializing on it.
		if err := <-walTicket; err != nil {
			db.walFail(err)
		}
	}
	db.mTxnTotal.Inc()
	db.mCommitSeconds.ObserveDuration(commit.Sub(start))
	db.tracer.Record(txnID, "ovsdb", obs.Stage{Name: "commit", Start: start, End: commit}.
		F("ops", int64(len(ops))).F("changed_tables", int64(changedTables)))
	return results
}

// effectiveChanges drops no-op changes (rows restored to their original
// value within the transaction).
// The returned map is the transaction's reusable scratch: it may carry
// entries for previously-touched tables whose inner maps are empty, so
// callers use the returned count (tables with at least one change)
// rather than len() of the map.
func (tx *txn) effectiveChanges() (map[string]map[UUID]*rowChange, int) {
	out := tx.eff
	changedTables := 0
	for table, rows := range tx.changes {
		n := 0
		for id, c := range rows {
			if cur, ok := tx.db.tables[table][id]; ok {
				c.new = cur // copy-on-write rows: safe to share
			} else {
				c.new = nil
			}
			if c.old == nil && c.new == nil {
				continue // inserted and deleted within the txn
			}
			if c.old != nil && c.new != nil && rowsEqual(c.old, c.new) {
				continue
			}
			m := out[table]
			if m == nil {
				m = make(map[UUID]*rowChange)
				out[table] = m
			}
			m[id] = c
			n++
		}
		if n > 0 {
			changedTables++
		}
	}
	return out, changedTables
}

func rowsEqual(a, b Row) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok || !ValueEqual(v, w) {
			return false
		}
	}
	return true
}

// resolveNamed rewrites namedUUID placeholders in stored rows to the real
// UUIDs allocated by their inserts.
func (tx *txn) resolveNamed() error {
	if len(tx.named) == 0 {
		return nil
	}
	var err error
	resolveAtom := func(a Atom) Atom {
		if n, ok := a.(namedUUID); ok {
			real, found := tx.named[string(n)]
			if !found {
				err = fmt.Errorf("unknown named-uuid %q", string(n))
				return a
			}
			return real
		}
		return a
	}
	for table, rows := range tx.changes {
		for id := range rows {
			row, ok := tx.db.tables[table][id]
			if !ok {
				continue
			}
			for col, v := range row {
				switch v := v.(type) {
				case *Set:
					atoms := make([]Atom, len(v.Atoms))
					for i, a := range v.Atoms {
						atoms[i] = resolveAtom(a)
					}
					row[col] = NewSet(atoms...)
				case *Map:
					pairs := make([][2]Atom, len(v.Pairs))
					for i, p := range v.Pairs {
						pairs[i] = [2]Atom{resolveAtom(p[0]), resolveAtom(p[1])}
					}
					row[col] = NewMap(pairs...)
				default:
					row[col] = resolveAtom(v)
				}
			}
		}
	}
	return err
}

func (db *Database) applyOp(tx *txn, op *Operation) OpResult {
	switch op.Op {
	case "insert":
		return db.opInsert(tx, op)
	case "select":
		return db.opSelect(op)
	case "update":
		return db.opUpdate(tx, op)
	case "mutate":
		return db.opMutate(tx, op)
	case "delete":
		return db.opDelete(tx, op)
	case "wait":
		return db.opWait(op)
	case "comment":
		return OpResult{}
	case "abort":
		return OpResult{Error: "aborted", Details: "aborted by request"}
	default:
		return OpResult{Error: "unknown operation", Details: op.Op}
	}
}

func (db *Database) tableSchema(name string) (*TableSchema, map[UUID]Row, error) {
	ts := db.schema.Tables[name]
	if ts == nil {
		return nil, nil, fmt.Errorf("no table %q", name)
	}
	return ts, db.tables[name], nil
}

// typeRow returns the row an operation carries as ts types it: decoded
// from the request's bytes if there are any, else a checked copy of the
// Row an in-process caller built and still owns.
func typeRow(ts *TableSchema, wire []byte, given Row) (Row, error) {
	if wire != nil {
		row, err := decodeWireRow(wire, ts, true)
		if row == nil && err == nil { // "row": null
			row = make(Row, len(ts.Columns))
		}
		return row, err
	}
	row := make(Row, len(ts.Columns))
	for col, v := range given {
		cs := ts.Columns[col]
		if cs == nil {
			return nil, fmt.Errorf("unknown column %q", col)
		}
		v = cs.Type.normal(v)
		if err := cs.Type.CheckValue(v); err != nil {
			return nil, fmt.Errorf("column %q: %w", col, err)
		}
		row[col] = v
	}
	return row, nil
}

func (db *Database) opInsert(tx *txn, op *Operation) OpResult {
	ts, table, err := db.tableSchema(op.Table)
	if err != nil {
		return OpResult{Error: "unknown table", Details: err.Error()}
	}
	row, err := typeRow(ts, op.rowWire, op.Row)
	if err != nil {
		return OpResult{Error: "constraint violation", Details: err.Error()}
	}
	// Fill defaults.
	for col, cs := range ts.Columns {
		if _, ok := row[col]; !ok {
			row[col] = cs.Type.DefaultValue()
		}
	}
	if ts.MaxRows > 0 && len(table) >= ts.MaxRows {
		return OpResult{Error: "constraint violation",
			Details: fmt.Sprintf("table %q is full (maxRows %d)", op.Table, ts.MaxRows)}
	}
	id := NewUUID()
	if err := db.reindexRow(op.Table, ts, id, nil, row); err != nil {
		return OpResult{Error: "constraint violation", Details: err.Error()}
	}
	if op.UUIDName != "" {
		if _, dup := tx.named[op.UUIDName]; dup {
			return OpResult{Error: "duplicate uuid-name", Details: op.UUIDName}
		}
		tx.named[op.UUIDName] = id
	}
	tx.change(op.Table, id) // records old == nil
	table[id] = row
	return OpResult{UUID: id}
}

// matchRows returns the UUIDs of rows satisfying all where clauses, sorted
// for determinism.
func (db *Database) matchRows(tx *txn, name string, ts *TableSchema, table map[UUID]Row, where [][3]json.RawMessage) ([]UUID, error) {
	conds, err := parseConditions(tx, ts, where)
	if err != nil {
		return nil, err
	}
	// Fastpath: a lone equality condition on a declared single-column
	// index resolves through the index map the database already
	// maintains for uniqueness — O(1) instead of a table scan. Scalar
	// columns only, so the index key matches the condition value's key
	// without set/atom normalization.
	if len(conds) == 1 && conds[0].op == "==" && !conds[0].isUUID {
		c := &conds[0]
		if cs := ts.Columns[c.column]; cs != nil && cs.Type.Min == 1 && cs.Type.Max == 1 {
			if _, isSet := c.value.(*Set); !isSet {
				for i, cols := range ts.Indexes {
					if len(cols) != 1 || cols[0] != c.column {
						continue
					}
					var buf [64]byte
					id, ok := db.idx[name][i][string(append(appendValueKey(buf[:0], c.value), 0))]
					if !ok {
						return nil, nil
					}
					if _, live := table[id]; !live {
						return nil, nil
					}
					return []UUID{id}, nil
				}
			}
		}
	}
	var out []UUID
	for id, row := range table {
		ok := true
		for _, c := range conds {
			m, err := c.matches(id, row)
			if err != nil {
				return nil, err
			}
			if !m {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

func (db *Database) opSelect(op *Operation) OpResult {
	ts, table, err := db.tableSchema(op.Table)
	if err != nil {
		return OpResult{Error: "unknown table", Details: err.Error()}
	}
	ids, err := db.matchRows(nil, op.Table, ts, table, op.Where)
	if err != nil {
		return OpResult{Error: "constraint violation", Details: err.Error()}
	}
	rows := make([]Row, 0, len(ids))
	for _, id := range ids {
		rows = append(rows, selectRow(id, table[id], op.Columns))
	}
	return OpResult{Rows: rows}
}

func (db *Database) opUpdate(tx *txn, op *Operation) OpResult {
	ts, table, err := db.tableSchema(op.Table)
	if err != nil {
		return OpResult{Error: "unknown table", Details: err.Error()}
	}
	newVals, err := typeRow(ts, op.rowWire, op.Row)
	if err != nil {
		return OpResult{Error: "constraint violation", Details: err.Error()}
	}
	for col := range newVals {
		if !ts.Columns[col].Mutable {
			return OpResult{Error: "constraint violation",
				Details: fmt.Sprintf("column %q is immutable", col)}
		}
	}
	ids, err := db.matchRows(tx, op.Table, ts, table, op.Where)
	if err != nil {
		return OpResult{Error: "constraint violation", Details: err.Error()}
	}
	for _, id := range ids {
		tx.change(op.Table, id)
		row := table[id].clone()
		for col, v := range newVals {
			row[col] = v
		}
		if err := db.reindexRow(op.Table, ts, id, table[id], row); err != nil {
			return OpResult{Error: "constraint violation", Details: err.Error()}
		}
		table[id] = row
	}
	return OpResult{Count: len(ids)}
}

func (db *Database) opDelete(tx *txn, op *Operation) OpResult {
	ts, table, err := db.tableSchema(op.Table)
	if err != nil {
		return OpResult{Error: "unknown table", Details: err.Error()}
	}
	ids, err := db.matchRows(tx, op.Table, ts, table, op.Where)
	if err != nil {
		return OpResult{Error: "constraint violation", Details: err.Error()}
	}
	for _, id := range ids {
		tx.change(op.Table, id)
		if err := db.reindexRow(op.Table, ts, id, table[id], nil); err != nil {
			return OpResult{Error: "constraint violation", Details: err.Error()}
		}
		delete(table, id)
	}
	return OpResult{Count: len(ids)}
}

func (db *Database) opWait(op *Operation) OpResult {
	ts, table, err := db.tableSchema(op.Table)
	if err != nil {
		return OpResult{Error: "unknown table", Details: err.Error()}
	}
	ids, err := db.matchRows(nil, op.Table, ts, table, op.Where)
	if err != nil {
		return OpResult{Error: "constraint violation", Details: err.Error()}
	}
	cols := op.Columns
	if cols == nil {
		for c := range ts.Columns {
			cols = append(cols, c)
		}
	}
	// Project matched rows onto the requested columns.
	got := make([]Row, 0, len(ids))
	for _, id := range ids {
		proj := make(Row, len(cols))
		for _, c := range cols {
			proj[c] = table[id][c]
		}
		got = append(got, proj)
	}
	n := len(op.Rows)
	if op.rowsWire != nil {
		n = len(op.rowsWire)
	}
	want := make([]Row, n)
	for i := range want {
		if op.rowsWire != nil {
			want[i], err = typeRow(ts, op.rowsWire[i], nil)
		} else {
			want[i], err = typeRow(ts, nil, op.Rows[i])
		}
		if err != nil {
			return OpResult{Error: "constraint violation", Details: err.Error()}
		}
	}
	equal := rowMultisetEqual(got, want)
	switch op.Until {
	case "==":
		if !equal {
			return OpResult{Error: "timed out", Details: "rows do not match"}
		}
	case "!=":
		if equal {
			return OpResult{Error: "timed out", Details: "rows match"}
		}
	default:
		return OpResult{Error: "constraint violation", Details: "until must be == or !="}
	}
	return OpResult{}
}

func rowMultisetEqual(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	key := func(r Row) string {
		cols := make([]string, 0, len(r))
		for c := range r {
			cols = append(cols, c)
		}
		sort.Strings(cols)
		s := ""
		for _, c := range cols {
			s += c + "=" + valueKey(r[c]) + ";"
		}
		return s
	}
	counts := make(map[string]int, len(a))
	for _, r := range a {
		counts[key(r)]++
	}
	for _, r := range b {
		counts[key(r)]--
	}
	for _, n := range counts {
		if n != 0 {
			return false
		}
	}
	return true
}

// selectRow is a select's result for one row: the row with its _uuid, or
// its projection onto columns.
func selectRow(id UUID, row Row, columns []string) Row {
	if columns == nil {
		out := row.clone()
		out["_uuid"] = id
		return out
	}
	out := make(Row, len(columns))
	for _, col := range columns {
		if col == "_uuid" {
			out[col] = id
		} else if v, ok := row[col]; ok {
			out[col] = v
		}
	}
	return out
}

// Get returns a copy of a row by UUID (primarily for tests and tooling).
func (db *Database) Get(table string, id UUID) (Row, bool) {
	db.mu.Lock()
	defer db.mu.Unlock()
	t, ok := db.tables[table]
	if !ok {
		return nil, false
	}
	row, ok := t[id]
	if !ok {
		return nil, false
	}
	return row.clone(), true
}

// RowCount returns the number of rows in a table.
func (db *Database) RowCount(table string) int {
	db.mu.Lock()
	defer db.mu.Unlock()
	return len(db.tables[table])
}
