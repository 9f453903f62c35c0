package ovsdb

import (
	"encoding/json"
	"fmt"

	"repro/internal/obs"
	"repro/internal/ovsdb/wal"
)

// This file wires the database to its durability subsystem
// (internal/ovsdb/wal) and maintains the gap-replay window that backs
// monitor cursor resumption (AddMonitorSince).
//
// Per committed transaction the database captures one flat snapshot of
// the effective row changes — []changeRef — consumed by two readers:
// the WAL appender (rendered to a wire-form record) and the gap-replay
// window (retained verbatim). The snapshot buffers are pooled: the ring
// recycles the buffer of each entry it evicts, so steady-state commits
// reuse storage instead of allocating per commit.

// changeRef is one row transition in a committed transaction. The Row
// images are copy-on-write (writers clone before modifying), so holding
// them in the window pins memory but never observes later mutation.
type changeRef struct {
	table string
	id    UUID
	old   Row // nil for insert
	new   Row // nil for delete
}

// gapEntry is one committed transaction retained for gap replay.
type gapEntry struct {
	txn     uint64
	changes []changeRef
}

// defaultGapWindow is how many change-commits the database retains for
// monitor cursor resumption when SetGapWindow was not called.
const defaultGapWindow = 4096

var jsonNull = json.RawMessage("null")

// AttachWAL makes every subsequent committed transaction durable
// through l. Call at boot, after Restore and before serving: the log's
// last transaction must match the database's counter, or appends will
// be rejected as non-monotonic.
func (db *Database) AttachWAL(l *wal.Log) {
	db.mu.Lock()
	db.wal = l
	db.mu.Unlock()
}

// SetGapWindow bounds the number of change-commits retained for monitor
// cursor resumption (0 restores the default, negative disables the
// window). Call before serving transactions.
func (db *Database) SetGapWindow(n int) {
	db.mu.Lock()
	defer db.mu.Unlock()
	if n < 0 {
		n = -1
	}
	db.winCap = n
}

// takeChangeBuf returns a recycled flat-change buffer, or nil (callers
// append, so a nil slice is a valid empty buffer). Called under db.mu.
func (db *Database) takeChangeBuf() []changeRef {
	if n := len(db.freeBufs); n > 0 {
		b := db.freeBufs[n-1]
		db.freeBufs = db.freeBufs[:n-1]
		return b
	}
	return nil
}

// recycleChangeBuf returns a buffer to the pool, dropping its row
// references so recycled storage does not pin evicted rows.
func (db *Database) recycleChangeBuf(buf []changeRef) {
	if cap(buf) == 0 || len(db.freeBufs) >= 4 {
		return
	}
	for i := range buf {
		buf[i] = changeRef{}
	}
	db.freeBufs = append(db.freeBufs, buf[:0])
}

// captureChanges flattens a commit's effective changes into the pooled
// flat form shared by the WAL appender and the gap window. Called under
// db.mu; the rowChange pointers are pooled transaction scratch, so the
// images are copied out here, before tx.release.
func (db *Database) captureChanges(changes map[string]map[UUID]*rowChange) []changeRef {
	flat := db.takeChangeBuf()
	for table, rows := range changes {
		for id, c := range rows {
			flat = append(flat, changeRef{table: table, id: id, old: c.old, new: c.new})
		}
	}
	return flat
}

// appendGapLocked retains one commit in the gap-replay ring, taking
// ownership of flat. Called under db.mu in commit order. winFloor
// tracks the newest dropped transaction: every change-commit with a
// higher txn is retained, which is exactly the cursor-coverage
// condition AddMonitorSince checks.
func (db *Database) appendGapLocked(txn uint64, flat []changeRef) {
	capn := db.winCap
	if capn == 0 {
		capn = defaultGapWindow
	}
	if capn < 0 {
		db.winFloor = txn
		db.recycleChangeBuf(flat)
		return
	}
	if db.win == nil {
		db.win = make([]gapEntry, capn)
	}
	if db.winCount == len(db.win) {
		ev := &db.win[db.winHead]
		db.winFloor = ev.txn
		db.recycleChangeBuf(ev.changes)
		*ev = gapEntry{}
		db.winHead = (db.winHead + 1) % len(db.win)
		db.winCount--
	}
	db.win[(db.winHead+db.winCount)%len(db.win)] = gapEntry{txn: txn, changes: flat}
	db.winCount++
}

// walAppendLocked renders the commit as a wire-form WAL record and
// enqueues it. Called under db.mu, in commit order; the caller waits on
// the returned durability ticket after releasing the lock, so group
// commit batches concurrent transactions behind one fsync.
func (db *Database) walAppendLocked(txnID uint64, flat []changeRef) <-chan error {
	rec := &wal.Record{Txn: txnID, Tables: make(map[string]map[string]json.RawMessage)}
	for i := range flat {
		c := &flat[i]
		t := rec.Tables[c.table]
		if t == nil {
			t = make(map[string]json.RawMessage)
			rec.Tables[c.table] = t
		}
		if c.new == nil {
			t[string(c.id)] = jsonNull
			continue
		}
		b, _, err := appendWireRow(nil, c.new, nil)
		if err != nil {
			// CheckValue keeps out what JSON cannot carry; a failure here
			// is a WAL fault, reported through the ticket like any other.
			done := make(chan error, 1)
			done <- fmt.Errorf("ovsdb: encoding row %s/%s for wal: %w", c.table, c.id, err)
			return done
		}
		t[string(c.id)] = b
	}
	ticket, wantSnapshot := db.wal.Append(rec)
	if wantSnapshot {
		db.captureSnapshotLocked(txnID)
	}
	return ticket
}

// captureSnapshotLocked hands the log a compaction job whose render
// closure sees the database exactly as of txnID: a per-table shallow
// copy of the row maps taken under db.mu (rows themselves are
// copy-on-write, so sharing them is safe). Rendering to JSON happens on
// the log's goroutines, off the commit path.
func (db *Database) captureSnapshotLocked(txnID uint64) {
	tables := make(map[string]map[UUID]Row, len(db.tables))
	for t, rows := range db.tables {
		cp := make(map[UUID]Row, len(rows))
		for id, row := range rows {
			cp[id] = row
		}
		tables[t] = cp
	}
	db.wal.CompactAsync(func() (*wal.Snapshot, error) {
		s := &wal.Snapshot{Txn: txnID, Tables: make(map[string]map[string]json.RawMessage, len(tables))}
		for t, rows := range tables {
			out := make(map[string]json.RawMessage, len(rows))
			for id, row := range rows {
				b, _, err := appendWireRow(nil, row, nil)
				if err != nil {
					return nil, fmt.Errorf("ovsdb: encoding row %s/%s for snapshot: %w", t, id, err)
				}
				out[string(id)] = b
			}
			s.Tables[t] = out
		}
		return s, nil
	})
}

// walFail latches the first WAL failure. The database keeps serving
// from memory — losing durability must not take the management plane
// down with it — but reports itself degraded and stops appending.
func (db *Database) walFail(err error) {
	db.mu.Lock()
	if db.walDead {
		db.mu.Unlock()
		return
	}
	db.walDead = true
	db.mu.Unlock()
	db.obs.SetDegraded("ovsdb-wal", "wal failed: "+err.Error())
	db.rec.Append(obs.Ev("ovsdb", "wal.fail"))
}

// WALHealthy reports whether an attached log is still accepting
// appends (true when no log is attached).
func (db *Database) WALHealthy() bool {
	db.mu.Lock()
	defer db.mu.Unlock()
	return !db.walDead
}

// Restore loads recovered WAL state into an empty database: the
// snapshot rows, then the log tail replayed in commit order (which also
// seeds the gap-replay window, so clients whose cursor predates the
// crash can still resume by replay), and finally the transaction
// counter — txn IDs stay monotonic across restarts and trace or
// provenance attribution never aliases. Call once at boot, before
// AttachWAL and before serving.
func (db *Database) Restore(recov *wal.Recovered) error {
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.txnSeq != 0 {
		return fmt.Errorf("ovsdb: restore into a database that already committed transactions")
	}
	for table, rows := range recov.Snapshot.Tables {
		ts := db.schema.Tables[table]
		if ts == nil {
			return fmt.Errorf("ovsdb: recovered snapshot references unknown table %q", table)
		}
		for id, raw := range rows {
			row, err := recoverRow(ts, raw)
			if err != nil {
				return fmt.Errorf("ovsdb: snapshot row %s/%s: %w", table, id, err)
			}
			if row != nil {
				db.tables[table][UUID(id)] = row
			}
		}
	}
	db.winFloor = recov.Snapshot.Txn
	for _, rec := range recov.Tail {
		flat := db.takeChangeBuf()
		for table, rows := range rec.Tables {
			ts := db.schema.Tables[table]
			if ts == nil {
				return fmt.Errorf("ovsdb: recovered txn %d references unknown table %q", rec.Txn, table)
			}
			for id, raw := range rows {
				uid := UUID(id)
				old := db.tables[table][uid]
				row, err := recoverRow(ts, raw)
				if err != nil {
					return fmt.Errorf("ovsdb: recovered txn %d row %s/%s: %w", rec.Txn, table, id, err)
				}
				if row == nil {
					delete(db.tables[table], uid)
				} else {
					db.tables[table][uid] = row
				}
				flat = append(flat, changeRef{table: table, id: uid, old: old, new: row})
			}
		}
		db.appendGapLocked(rec.Txn, flat)
	}
	for table := range db.tables {
		db.rebuildIndexes(table)
	}
	db.txnSeq = recov.LastTxn
	return nil
}

// recoverRow parses a WAL row image back into typed column values; a JSON
// null (the delete marker) returns (nil, nil). Columns the image omits
// get schema defaults, guarding replay of logs written before a column
// was added.
func recoverRow(ts *TableSchema, raw json.RawMessage) (Row, error) {
	row, err := decodeWireRow(raw, ts, false)
	if err != nil || row == nil {
		return nil, err
	}
	for col, cs := range ts.Columns {
		if _, ok := row[col]; !ok {
			row[col] = cs.Type.DefaultValue()
		}
	}
	return row, nil
}
