package ovsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/ovsdb/wal"
)

// walDB opens a WAL in dir and wires it to a fresh test database,
// restoring whatever the directory already holds.
func walDB(t *testing.T, dir string) (*Database, *wal.Log, *wal.Recovered) {
	t.Helper()
	db := newTestDB(t)
	l, recovered, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if err := db.Restore(recovered); err != nil {
		t.Fatalf("Restore: %v", err)
	}
	db.AttachWAL(l)
	return db, l, recovered
}

// tableJSON renders every row of a table (keyed by UUID, _uuid elided)
// as canonical JSON for byte-level comparison across restarts.
func tableJSON(t *testing.T, db *Database, table string) map[string]string {
	t.Helper()
	out := make(map[string]string)
	for _, r := range mustTransact(t, db, OpSelect(table))[0].Rows {
		id, ok := r["_uuid"].(UUID)
		if !ok {
			t.Fatalf("row without _uuid: %v", r)
		}
		delete(r, "_uuid")
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		out[string(id)] = string(b)
	}
	return out
}

// TestWALRestoreRoundTrip commits inserts, updates, and deletes through
// a WAL-attached database and asserts a second database restored from
// the same directory reaches the identical state and transaction ID.
func TestWALRestoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, l, _ := walDB(t, dir)
	for i := 0; i < 10; i++ {
		mustTransact(t, db, OpInsert("Port", map[string]Value{
			"name":    fmt.Sprintf("p%d", i),
			"number":  int64(i),
			"enabled": true,
		}))
	}
	mustTransact(t, db,
		OpUpdate("Port", map[string]Value{"enabled": false}, Cond("name", "==", "p3")),
		OpDelete("Port", Cond("name", "==", "p7")),
		OpInsert("Bridge", map[string]Value{"name": "br0"}))
	want := tableJSON(t, db, "Port")
	wantBridges := tableJSON(t, db, "Bridge")
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	db2, l2, recovered := walDB(t, dir)
	defer l2.Close()
	if recovered.LastTxn != 11 {
		t.Errorf("recovered LastTxn %d, want 11", recovered.LastTxn)
	}
	got := tableJSON(t, db2, "Port")
	if len(got) != len(want) {
		t.Fatalf("restored %d Port rows, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("row %s diverged:\n want %s\n  got %s", id, w, got[id])
		}
	}
	gotBridges := tableJSON(t, db2, "Bridge")
	if len(gotBridges) != len(wantBridges) {
		t.Fatalf("restored %d Bridge rows, want %d", len(gotBridges), len(wantBridges))
	}
	for id, w := range wantBridges {
		if gotBridges[id] != w {
			t.Errorf("bridge %s diverged:\n want %s\n  got %s", id, w, gotBridges[id])
		}
	}

	// Restored indexes work: a duplicate indexed name must still be
	// rejected, and an indexed lookup must find the restored row.
	res := db2.Transact([]Operation{OpInsert("Port", map[string]Value{"name": "p0", "number": int64(99)})})
	if res[0].Error == "" {
		t.Error("restored index accepted a duplicate name")
	}
	if rows := mustTransact(t, db2, OpSelect("Port", Cond("name", "==", "p3")))[0].Rows; len(rows) != 1 {
		t.Errorf("indexed select found %d rows, want 1", len(rows))
	}
}

// TestWALTxnSeeding asserts the transaction counter continues above the
// recovered log instead of restarting at 1 — the property that keeps
// monitor cursors and event attribution unambiguous across restarts.
func TestWALTxnSeeding(t *testing.T) {
	dir := t.TempDir()
	db, l, _ := walDB(t, dir)
	for i := 0; i < 5; i++ {
		mustTransact(t, db, OpInsert("Port", map[string]Value{"name": fmt.Sprintf("p%d", i)}))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	db2, l2, recovered := walDB(t, dir)
	defer l2.Close()
	if recovered.LastTxn != 5 {
		t.Fatalf("recovered LastTxn %d, want 5", recovered.LastTxn)
	}
	txns := make(chan uint64, 1)
	m, _, err := db2.AddMonitor(map[string]*MonitorRequest{"Port": {}}, func(txn uint64, tu TableUpdates) {
		txns <- txn
	})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel()
	mustTransact(t, db2, OpInsert("Port", map[string]Value{"name": "p5"}))
	if got := <-txns; got != 6 {
		t.Errorf("first post-restore commit got txn %d, want 6", got)
	}
}

// TestRestoreRequiresEmptyDatabase: restoring over live state would
// silently merge two histories.
func TestRestoreRequiresEmptyDatabase(t *testing.T) {
	db := newTestDB(t)
	mustTransact(t, db, OpInsert("Port", map[string]Value{"name": "p0"}))
	err := db.Restore(&wal.Recovered{Snapshot: &wal.Snapshot{}})
	if err == nil {
		t.Fatal("Restore on a non-empty database succeeded")
	}
}

// TestMonitorGapReplay drives the cursor protocol directly against the
// database: a monitor registered with a covered cursor receives exactly
// the missed commits; an evicted cursor falls back to a full snapshot.
func TestMonitorGapReplay(t *testing.T) {
	db := newTestDB(t)
	for i := 0; i < 4; i++ {
		mustTransact(t, db, OpInsert("Port", map[string]Value{"name": fmt.Sprintf("p%d", i), "number": int64(i)}))
	}

	// Cursor at the current head: no commits missed, empty gap.
	m, found, lastTxn, gap, initial, err := db.AddMonitorSince(
		map[string]*MonitorRequest{"Port": {}}, 4, func(uint64, TableUpdates) {})
	if err != nil {
		t.Fatal(err)
	}
	if !found || lastTxn != 4 || len(gap) != 0 || initial != nil {
		t.Fatalf("head cursor: found=%v lastTxn=%d gap=%d initial=%v", found, lastTxn, len(gap), initial)
	}
	m.Cancel()

	// Miss three commits (one update, one delete, one insert), then
	// resume from txn 4: the gap must carry exactly txns 5..7 with the
	// right shapes.
	mustTransact(t, db,
		OpUpdate("Port", map[string]Value{"number": int64(100)}, Cond("name", "==", "p0")))
	mustTransact(t, db, OpDelete("Port", Cond("name", "==", "p1")))
	mustTransact(t, db, OpInsert("Port", map[string]Value{"name": "p4", "number": int64(4)}))

	m, found, lastTxn, gap, initial, err = db.AddMonitorSince(
		map[string]*MonitorRequest{"Port": {}}, 4, func(uint64, TableUpdates) {})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel()
	if !found || lastTxn != 7 || initial != nil {
		t.Fatalf("gap cursor: found=%v lastTxn=%d initial=%v", found, lastTxn, initial)
	}
	if len(gap) != 3 {
		t.Fatalf("gap has %d updates, want 3: %+v", len(gap), gap)
	}
	for i, g := range gap {
		if g.Txn != uint64(5+i) {
			t.Errorf("gap[%d].Txn = %d, want %d", i, g.Txn, 5+i)
		}
		if len(g.Updates["Port"]) != 1 {
			t.Errorf("gap[%d] carries %d rows, want 1", i, len(g.Updates["Port"]))
		}
	}
	for id, ru := range gap[0].Updates["Port"] {
		if ru.New == nil || ru.Old == nil {
			t.Errorf("update row %s: old=%v new=%v, want modify shape", id, ru.Old, ru.New)
		}
	}
	for id, ru := range gap[1].Updates["Port"] {
		if ru.New != nil || ru.Old == nil {
			t.Errorf("delete row %s: old=%v new=%v, want delete shape", id, ru.Old, ru.New)
		}
	}
	for id, ru := range gap[2].Updates["Port"] {
		if ru.New == nil || ru.Old != nil {
			t.Errorf("insert row %s: old=%v new=%v, want insert shape", id, ru.Old, ru.New)
		}
	}
}

// TestMonitorGapEviction shrinks the window below the outstanding gap:
// the cursor must miss (full snapshot fallback) instead of replaying a
// hole-ridden history.
func TestMonitorGapEviction(t *testing.T) {
	db := newTestDB(t)
	db.SetGapWindow(2)
	for i := 0; i < 6; i++ {
		mustTransact(t, db, OpInsert("Port", map[string]Value{"name": fmt.Sprintf("p%d", i)}))
	}
	// Cursor at txn 1: txns 2..4 were evicted (window holds 5,6).
	m, found, lastTxn, gap, initial, err := db.AddMonitorSince(
		map[string]*MonitorRequest{"Port": {}}, 1, func(uint64, TableUpdates) {})
	if err != nil {
		t.Fatal(err)
	}
	defer m.Cancel()
	if found {
		t.Fatalf("evicted cursor replayed a gap: %+v", gap)
	}
	if lastTxn != 6 {
		t.Errorf("lastTxn %d, want 6", lastTxn)
	}
	if len(initial["Port"]) != 6 {
		t.Errorf("fallback snapshot has %d rows, want 6", len(initial["Port"]))
	}

	// A still-covered cursor works with the shrunk window.
	m2, found2, _, gap2, _, err := db.AddMonitorSince(
		map[string]*MonitorRequest{"Port": {}}, 5, func(uint64, TableUpdates) {})
	if err != nil {
		t.Fatal(err)
	}
	defer m2.Cancel()
	if !found2 || len(gap2) != 1 || gap2[0].Txn != 6 {
		t.Errorf("covered cursor: found=%v gap=%+v, want txn 6 only", found2, gap2)
	}

	// Disabling the window entirely forces the fallback even at head-1.
	db2 := newTestDB(t)
	db2.SetGapWindow(-1)
	mustTransact(t, db2, OpInsert("Port", map[string]Value{"name": "x"}))
	_, found3, _, _, _, err := db2.AddMonitorSince(
		map[string]*MonitorRequest{"Port": {}}, 0, func(uint64, TableUpdates) {})
	if err != nil {
		t.Fatal(err)
	}
	if found3 {
		t.Error("disabled window still replayed a gap")
	}
}

// TestWALSnapshotCompactionRestore pushes enough commits through a tiny
// SnapshotEvery that the database-side capture path runs, then restores
// from the compacted directory.
func TestWALSnapshotCompactionRestore(t *testing.T) {
	dir := t.TempDir()
	db := newTestDB(t)
	l, recovered, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff, SnapshotEvery: 8})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Restore(recovered); err != nil {
		t.Fatal(err)
	}
	db.AttachWAL(l)
	const n = 30
	for i := 0; i < n; i++ {
		mustTransact(t, db, OpInsert("Port", map[string]Value{"name": fmt.Sprintf("p%d", i), "number": int64(i)}))
	}
	mustTransact(t, db, OpUpdate("Port", map[string]Value{"enabled": true}, Cond("name", "==", "p0")))
	want := tableJSON(t, db, "Port")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	db2, l2, recovered2 := walDB(t, dir)
	defer l2.Close()
	if recovered2.Snapshot.Txn == 0 {
		t.Error("no snapshot was compacted")
	}
	if recovered2.LastTxn != n+1 {
		t.Errorf("recovered LastTxn %d, want %d", recovered2.LastTxn, n+1)
	}
	got := tableJSON(t, db2, "Port")
	if len(got) != len(want) {
		t.Fatalf("restored %d rows, want %d", len(got), len(want))
	}
	for id, w := range want {
		if got[id] != w {
			t.Errorf("row %s diverged:\n want %s\n  got %s", id, w, got[id])
		}
	}
}

// TestWALRecoversParentLog recovers a log directory (a snapshot and a
// segment over every kind of value, testdata/parent-wal) written by the
// commit before rows were typed end to end, when the WAL went through
// json.Marshal of boxed rows: the rows come back as that commit read
// them, and appending the same transactions again writes the same bytes.
func TestWALRecoversParentLog(t *testing.T) {
	src := filepath.Join("testdata", "parent-wal")
	dir := t.TempDir() // Open tidies the directory it is given
	for _, name := range []string{"seg-0000000000000008.wal", "snap-0000000000000006.snap"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	schemaJSON, err := os.ReadFile(filepath.Join(src, "schema.json"))
	if err != nil {
		t.Fatal(err)
	}
	schema, err := ParseSchema(schemaJSON)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]map[string]json.RawMessage
	if b, err := os.ReadFile(filepath.Join(src, "rows.json")); err != nil || json.Unmarshal(b, &want) != nil {
		t.Fatalf("rows.json: %v", err)
	}

	l, recovered, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if recovered.Snapshot.Txn == 0 || len(recovered.Tail) == 0 || recovered.Truncated {
		t.Fatalf("recovered snapshot txn %d, %d tail records, truncated %v", recovered.Snapshot.Txn, len(recovered.Tail), recovered.Truncated)
	}
	db := NewDatabase(schema)
	if err := db.Restore(recovered); err != nil {
		t.Fatal(err)
	}
	for table, rows := range want {
		got := tableJSON(t, db, table)
		if len(got) != len(rows) {
			t.Errorf("%s: recovered %d rows, want %d", table, len(got), len(rows))
		}
		for id, row := range rows {
			var written bytes.Buffer // rows.json is indented
			if err := json.Compact(&written, row); err != nil {
				t.Fatal(err)
			}
			if got[id] != written.String() {
				t.Errorf("%s row %s:\n recovered %s\n   written %s", table, id, got[id], &written)
			}
		}
	}

	// The same transactions through this commit's appender, into a second
	// log: record for record the bytes the parent wrote.
	dir2 := t.TempDir()
	l2, _, err := wal.Open(wal.Options{Dir: dir2, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	db2 := NewDatabase(schema)
	db2.AttachWAL(l2)
	for _, rec := range recovered.Tail {
		var flat []changeRef
		for table, rows := range rec.Tables {
			for id, raw := range rows {
				row, err := recoverRow(schema.Tables[table], raw)
				if err != nil {
					t.Fatal(err)
				}
				flat = append(flat, changeRef{table: table, id: UUID(id), new: row})
			}
		}
		db2.mu.Lock()
		ticket := db2.walAppendLocked(rec.Txn, flat)
		db2.mu.Unlock()
		if err := <-ticket; err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	l3, again, err := wal.Open(wal.Options{Dir: dir2, Fsync: wal.FsyncOff})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if len(again.Tail) != len(recovered.Tail) {
		t.Fatalf("re-appended %d records, read back %d", len(recovered.Tail), len(again.Tail))
	}
	for i, rec := range recovered.Tail {
		want, err1 := wal.AppendRecord(nil, rec)
		got, err2 := wal.AppendRecord(nil, again.Tail[i])
		if err1 != nil || err2 != nil || !bytes.Equal(got, want) {
			t.Errorf("txn %d re-appended as\n %s (%v)\nthe parent wrote\n %s (%v)", rec.Txn, got, err2, want, err1)
		}
	}
	// And the snapshot's images, which compaction renders the same way.
	for table, rows := range recovered.Snapshot.Tables {
		for id, raw := range rows {
			row, err := recoverRow(schema.Tables[table], raw)
			if err != nil {
				t.Fatal(err)
			}
			if got, _, err := appendWireRow(nil, row, nil); err != nil || !bytes.Equal(got, raw) {
				t.Errorf("snapshot row %s/%s re-rendered as %s (%v), the parent wrote %s", table, id, got, err, raw)
			}
		}
	}
}
