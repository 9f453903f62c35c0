package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

func rowRecord(txn uint64, table, id, name string) *Record {
	return &Record{
		Txn: txn,
		Tables: map[string]map[string]json.RawMessage{
			table: {id: json.RawMessage(fmt.Sprintf(`{"name":%q}`, name))},
		},
	}
}

func mustAppend(t *testing.T, l *Log, rec *Record) bool {
	t.Helper()
	ticket, wantSnap := l.Append(rec)
	if err := <-ticket; err != nil {
		t.Fatalf("append txn %d: %v", rec.Txn, err)
	}
	return wantSnap
}

func TestLogAppendRecoverRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, recovered, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if recovered.LastTxn != 0 || len(recovered.Tail) != 0 || recovered.Truncated {
		t.Fatalf("fresh dir recovered %+v", recovered)
	}
	const n = 25
	for i := 1; i <= n; i++ {
		mustAppend(t, l, rowRecord(uint64(i), "Port", fmt.Sprintf("row-%d", i), fmt.Sprintf("p%d", i)))
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, rec2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if rec2.LastTxn != n {
		t.Errorf("recovered LastTxn %d, want %d", rec2.LastTxn, n)
	}
	if len(rec2.Tail) != n {
		t.Fatalf("recovered %d tail records, want %d", len(rec2.Tail), n)
	}
	if rec2.Truncated || rec2.DroppedBytes != 0 {
		t.Errorf("clean log reported truncation: %+v", rec2)
	}
	for i, r := range rec2.Tail {
		want := uint64(i + 1)
		if r.Txn != want {
			t.Errorf("tail[%d].Txn = %d, want %d", i, r.Txn, want)
		}
		raw := r.Tables["Port"][fmt.Sprintf("row-%d", want)]
		if !strings.Contains(string(raw), fmt.Sprintf(`"p%d"`, want)) {
			t.Errorf("tail[%d] row payload %s", i, raw)
		}
	}
	// Appending resumes above the recovered txn.
	mustAppend(t, l2, rowRecord(n+1, "Port", "row-x", "px"))
}

// TestLogTornTail crashes mid-write (simulated by appending half a frame
// to the active segment) and asserts recovery drops exactly the torn
// suffix, truncates it from disk, and keeps everything before it.
func TestLogTornTail(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 5; i++ {
		mustAppend(t, l, rowRecord(uint64(i), "Port", fmt.Sprintf("row-%d", i), fmt.Sprintf("p%d", i)))
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	segs, err := filepath.Glob(filepath.Join(dir, segPrefix+"*"+segSuffix))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v (%v)", segs, err)
	}
	seg := segs[len(segs)-1]
	frame, err := AppendRecord(nil, rowRecord(6, "Port", "row-6", "p6"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	torn := frame[:len(frame)-3]
	if _, err := f.Write(torn); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2, rec2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery refused a torn tail: %v", err)
	}
	if !rec2.Truncated || rec2.DroppedBytes != len(torn) {
		t.Errorf("Truncated=%v DroppedBytes=%d, want true/%d", rec2.Truncated, rec2.DroppedBytes, len(torn))
	}
	if rec2.LastTxn != 5 || len(rec2.Tail) != 5 {
		t.Errorf("recovered txn %d with %d records, want 5/5", rec2.LastTxn, len(rec2.Tail))
	}
	// The torn suffix is gone from disk: appending and re-recovering is
	// clean.
	mustAppend(t, l2, rowRecord(6, "Port", "row-6", "p6"))
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	_, rec3, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec3.Truncated || rec3.LastTxn != 6 {
		t.Errorf("third open: Truncated=%v LastTxn=%d, want clean/6", rec3.Truncated, rec3.LastTxn)
	}
}

// TestLogMidChainCorruption plants a bit flip in a non-final segment:
// that is real data loss, not a torn tail, and recovery must refuse to
// open rather than silently drop committed transactions.
func TestLogMidChainCorruption(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, txns ...uint64) {
		var buf []byte
		var err error
		for _, txn := range txns {
			buf, err = AppendRecord(buf, rowRecord(txn, "Port", fmt.Sprintf("row-%d", txn), "p"))
			if err != nil {
				t.Fatal(err)
			}
		}
		if err := os.WriteFile(filepath.Join(dir, name), buf, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write(segName(1), 1, 2)
	write(segName(3), 3, 4)

	// Sanity: the hand-built chain recovers.
	l, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastTxn != 4 || len(rec.Tail) != 4 {
		t.Fatalf("hand-built chain recovered %+v", rec)
	}
	l.Close()

	data, err := os.ReadFile(filepath.Join(dir, segName(1)))
	if err != nil {
		t.Fatal(err)
	}
	data[frameHeader+2] ^= 0xff // payload of the first record
	if err := os.WriteFile(filepath.Join(dir, segName(1)), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir}); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("mid-chain corruption: got %v, want ErrCorrupt", err)
	}
}

// TestLogSnapshotCompaction drives enough appends through a small
// SnapshotEvery to trigger compaction and asserts the snapshot file
// covers the state, superseded segments are deleted, and recovery is
// snapshot + short tail rather than a full replay.
func TestLogSnapshotCompaction(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	const n = 10
	snapshots := 0
	for i := 1; i <= n; i++ {
		rec := rowRecord(uint64(i), "Port", fmt.Sprintf("row-%d", i), fmt.Sprintf("p%d", i))
		ticket, wantSnap := l.Append(rec)
		if wantSnap {
			snapshots++
			txn := rec.Txn
			l.CompactAsync(func() (*Snapshot, error) {
				// Render a state image equivalent to replaying 1..txn.
				tables := map[string]map[string]json.RawMessage{"Port": {}}
				for j := uint64(1); j <= txn; j++ {
					tables["Port"][fmt.Sprintf("row-%d", j)] =
						json.RawMessage(fmt.Sprintf(`{"name":"p%d"}`, j))
				}
				return &Snapshot{Txn: txn, Tables: tables}, nil
			})
		}
		if err := <-ticket; err != nil {
			t.Fatalf("append %d: %v", i, err)
		}
	}
	if snapshots == 0 {
		t.Fatal("SnapshotEvery=4 never requested a snapshot over 10 appends")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	snaps, _ := filepath.Glob(filepath.Join(dir, snapPrefix+"*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("want exactly one retained snapshot, got %v", snaps)
	}
	_, rec2, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec2.Snapshot.Txn == 0 {
		t.Error("recovery ignored the snapshot")
	}
	if rec2.LastTxn != n {
		t.Errorf("recovered LastTxn %d, want %d", rec2.LastTxn, n)
	}
	if got := len(rec2.Tail); got >= n {
		t.Errorf("recovered %d tail records; compaction should have covered most of %d", got, n)
	}
	// Snapshot + tail must reproduce all n rows.
	total := len(rec2.Snapshot.Tables["Port"])
	for _, r := range rec2.Tail {
		total += len(r.Tables["Port"])
	}
	if total != n {
		t.Errorf("snapshot(%d rows) + tail = %d rows, want %d", len(rec2.Snapshot.Tables["Port"]), total, n)
	}
}

// TestLogAppendOrdering rejects non-monotonic transaction IDs and
// appends after close.
func TestLogAppendOrdering(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, l, rowRecord(5, "Port", "row-5", "p5"))
	ticket, _ := l.Append(rowRecord(5, "Port", "row-5", "p5"))
	if err := <-ticket; err == nil {
		t.Error("duplicate txn accepted")
	}
	ticket, _ = l.Append(rowRecord(4, "Port", "row-4", "p4"))
	if err := <-ticket; err == nil {
		t.Error("regressing txn accepted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	ticket, _ = l.Append(rowRecord(6, "Port", "row-6", "p6"))
	if err := <-ticket; err == nil {
		t.Error("append after close accepted")
	}
}

// TestLogGroupCommit pushes many appends through FsyncCommit from one
// committer (commit order is the caller's contract) while tickets are
// awaited concurrently: every acknowledged record must survive recovery,
// and the appender's fsync count shows how the batch sharing went
// (logged, not asserted — batching degree is timing-dependent).
func TestLogGroupCommit(t *testing.T) {
	dir := t.TempDir()
	observer := obs.NewObserver()
	l, _, err := Open(Options{Dir: dir, Fsync: FsyncCommit, Obs: observer})
	if err != nil {
		t.Fatal(err)
	}
	const n = 200
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 1; i <= n; i++ {
		ticket, _ := l.Append(rowRecord(uint64(i), "Port", fmt.Sprintf("row-%d", i), "p"))
		wg.Add(1)
		go func(i int, ticket <-chan error) {
			defer wg.Done()
			errs[i-1] = <-ticket
		}(i, ticket)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("append %d: %v", i+1, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	fsyncs := observer.Reg().Counter("ovsdb_wal_fsyncs_total", "").Value()
	if fsyncs == 0 {
		t.Error("FsyncCommit recorded zero fsyncs")
	}
	t.Logf("group commit: %d records, %d fsyncs", n, fsyncs)
	_, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if rec.LastTxn != n || len(rec.Tail) != n {
		t.Errorf("recovered %d/%d, want %d acknowledged records", rec.LastTxn, len(rec.Tail), n)
	}
}

// TestLogMidBatchFailureResolvesAllTickets hand-builds one drained
// appender batch of [record, snapshot job, record] over a sabotaged
// segment file: the first flush fails, and every ticket in the batch —
// including the records queued after the failure point — must resolve
// with the latched error instead of hanging its Transact caller.
func TestLogMidBatchFailureResolvesAllTickets(t *testing.T) {
	dir := t.TempDir()
	l, _, err := Open(Options{Dir: dir, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	mustAppend(t, l, rowRecord(1, "Port", "row-1", "p1"))

	frame2, err := AppendRecord(nil, rowRecord(2, "Port", "row-2", "p2"))
	if err != nil {
		t.Fatal(err)
	}
	frame3, err := AppendRecord(nil, rowRecord(3, "Port", "row-3", "p3"))
	if err != nil {
		t.Fatal(err)
	}
	done2 := make(chan error, 1)
	done3 := make(chan error, 1)
	l.mu.Lock()
	l.seg.Close() // the batch's first write fails
	l.queue = append(l.queue,
		item{frame: frame2, txn: 2, done: done2},
		item{snap: func() (*Snapshot, error) { return &Snapshot{Txn: 2}, nil }},
		item{frame: frame3, txn: 3, done: done3},
	)
	l.lastTxn = 3
	l.mu.Unlock()
	select {
	case l.wake <- struct{}{}:
	default:
	}

	for name, ch := range map[string]chan error{"before failure": done2, "after failure": done3} {
		select {
		case err := <-ch:
			if err == nil {
				t.Errorf("record %s acknowledged despite the failed batch", name)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("ticket of record %s never resolved", name)
		}
	}
	if l.Err() == nil {
		t.Error("batch failure did not latch")
	}
	ticket, _ := l.Append(rowRecord(4, "Port", "row-4", "p4"))
	if err := <-ticket; err == nil {
		t.Error("append after latched failure accepted")
	}
}

// TestLogCorruptSnapshotRecovery covers both sides of the fallback
// continuity check: when the newest snapshot is unreadable but the full
// segment chain survives, recovery replays it; when compaction has
// already deleted the covering segments, recovery must refuse rather
// than silently report an almost-empty database as success.
func TestLogCorruptSnapshotRecovery(t *testing.T) {
	// Safe fallback: corrupt snapshot, but segments cover from txn 1.
	dir := t.TempDir()
	var buf []byte
	var err error
	for txn := uint64(1); txn <= 4; txn++ {
		buf, err = AppendRecord(buf, rowRecord(txn, "Port", fmt.Sprintf("row-%d", txn), "p"))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, segName(1)), buf, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, snapName(3)), []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	l, rec, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("covered fallback refused: %v", err)
	}
	if rec.LastTxn != 4 || len(rec.Tail) != 4 {
		t.Errorf("covered fallback recovered %d/%d, want 4/4", rec.LastTxn, len(rec.Tail))
	}
	l.Close()

	// Unsafe fallback: a real compaction deletes the covered segments,
	// then the surviving snapshot rots.
	dir2 := t.TempDir()
	l2, _, err := Open(Options{Dir: dir2, SnapshotEvery: 4})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i <= 10; i++ {
		recd := rowRecord(uint64(i), "Port", fmt.Sprintf("row-%d", i), "p")
		ticket, wantSnap := l2.Append(recd)
		if wantSnap {
			txn := recd.Txn
			l2.CompactAsync(func() (*Snapshot, error) {
				return &Snapshot{Txn: txn, Tables: map[string]map[string]json.RawMessage{
					"Port": {"row-1": json.RawMessage(`{"name":"p"}`)},
				}}, nil
			})
		}
		if err := <-ticket; err != nil {
			t.Fatal(err)
		}
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	snaps, _ := filepath.Glob(filepath.Join(dir2, snapPrefix+"*"+snapSuffix))
	if len(snaps) != 1 {
		t.Fatalf("want one snapshot after compaction, got %v", snaps)
	}
	data, err := os.ReadFile(snaps[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0xff
	if err := os.WriteFile(snaps[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(Options{Dir: dir2}); err == nil || !errors.Is(err, ErrCorrupt) {
		t.Fatalf("uncovered fallback after compaction: got %v, want ErrCorrupt", err)
	}
}

// TestLogFreshnessGaugesAndReadyDetail covers the durability-freshness
// surface: the recovery-duration gauge, the scrape-time snapshot-age
// gauge, the anchor refresh on compaction and on recovery from an
// existing snapshot file, and the stale-snapshot line in the healthy
// /readyz body.
func TestLogFreshnessGaugesAndReadyDetail(t *testing.T) {
	dir := t.TempDir()
	o := obs.NewObserver()
	o.SetReady(true)
	l, _, err := Open(Options{Dir: dir, SnapshotEvery: -1, staleAfter: time.Nanosecond, Obs: o})
	if err != nil {
		t.Fatal(err)
	}

	snap := o.Reg().Snapshot()
	if v, ok := snap["ovsdb_wal_recovery_duration_seconds"]; !ok || v < 0 {
		t.Fatalf("recovery duration gauge missing or negative: %v (%v)", v, ok)
	}
	if age, ok := snap["ovsdb_wal_last_snapshot_age_seconds"]; !ok || age < 0 || age > 60 {
		t.Fatalf("fresh dir snapshot age = %v (%v), want ~0", age, ok)
	}

	// With a nanosecond staleness budget the healthy readiness body
	// carries the WAL detail line without flipping to 503.
	srv := httptest.NewServer(o.Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 4096)
	n, _ := resp.Body.Read(body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz = %s, want 200 (stale snapshot must not flip readiness)", resp.Status)
	}
	if text := string(body[:n]); !strings.HasPrefix(text, "ready\n") || !strings.Contains(text, "wal: last snapshot") {
		t.Fatalf("/readyz body missing WAL staleness detail:\n%s", text)
	}

	// Compaction refreshes the freshness anchor.
	before := l.snapAnchor.Load()
	mustAppend(t, l, rowRecord(1, "Port", "row-1", "p1"))
	l.CompactAsync(func() (*Snapshot, error) {
		return &Snapshot{Txn: 1, Tables: map[string]map[string]json.RawMessage{
			"Port": {"row-1": json.RawMessage(`{"name":"p1"}`)},
		}}, nil
	})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if after := l.snapAnchor.Load(); after <= before {
		t.Fatalf("snapshot anchor not refreshed by compaction: before=%d after=%d", before, after)
	}

	// Reopening anchors freshness at the snapshot file's mtime, not the
	// open instant.
	old := time.Now().Add(-time.Hour)
	if err := os.Chtimes(filepath.Join(dir, snapName(1)), old, old); err != nil {
		t.Fatal(err)
	}
	o2 := obs.NewObserver()
	l2, _, err := Open(Options{Dir: dir, Obs: o2})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if age := o2.Reg().Snapshot()["ovsdb_wal_last_snapshot_age_seconds"]; age < 3500 || age > 3700 {
		t.Fatalf("reopened snapshot age = %vs, want ~3600s (the file's mtime)", age)
	}
}
