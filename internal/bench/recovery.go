package bench

import (
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/faultnet"
	"repro/internal/ovsdb"
	"repro/internal/ovsdb/wal"
	"repro/internal/snvs"
)

// ---------------------------------------------------------------------
// Durability recovery — what restart-heavy operation costs with the
// management plane's WAL. Two measurements:
//
//  1. Cold recovery: commit a workload through the WAL, close it, and
//     time Open (snapshot load + tail replay + torn-tail scan) plus
//     Database.Restore into a fresh database.
//
//  2. Gap replay vs full resync: a resilient monitor client loses its
//     connection while the database keeps committing. With the cursor
//     inside the server's gap window, reconnection replays only the
//     missed commits; with the window disabled, it falls back to
//     delivering the whole fresh snapshot, which the subscriber diffs
//     against the state it holds. The rows delivered (missed rows vs
//     whole table) are the comparison the paper's restart story depends
//     on.
// ---------------------------------------------------------------------

// recoveryRows is the table size both measurements run against.
const recoveryRows = 500

// RecoveryResult is the machine-readable durability report.
type RecoveryResult struct {
	// Cold recovery. Commit is the time this run spent writing the Txns
	// commits through the WAL, the same-run control ColdRecovery is held
	// below: replaying a log must not cost more than writing it.
	Txns          int           `json:"txns"`
	Rows          int           `json:"rows"`
	WalBytes      int64         `json:"wal_bytes"`
	TailRecords   int           `json:"tail_records"`
	Commit        time.Duration `json:"commit_ns"`
	ColdRecovery  time.Duration `json:"cold_recovery_ns"`
	ColdRecovered uint64        `json:"cold_recovered_txn"`
	// Outage resumption: GapTxns commits happen while the client is
	// disconnected. The gap path delivers GapRowsDelivered rows (the
	// drift); the fallback path delivers the whole FullSnapshotRows-row
	// snapshot (FullRowsDelivered), from which the subscriber finds the
	// same drift.
	GapTxns           int           `json:"gap_txns"`
	GapRowsDelivered  int           `json:"gap_rows_delivered"`
	GapResync         time.Duration `json:"gap_resync_ns"`
	FullSnapshotRows  int           `json:"full_snapshot_rows"`
	FullRowsDelivered int           `json:"full_rows_delivered"`
	FullResync        time.Duration `json:"full_resync_ns"`
}

// RunRecovery measures cold-recovery time for a txns-commit WAL and the
// gap-replay vs full-resync cost for a gapTxns-commit outage.
func RunRecovery(txns, gapTxns int) (*RecoveryResult, error) {
	if txns <= 0 {
		txns = 4000
	}
	if gapTxns <= 0 {
		gapTxns = 50
	}
	if gapTxns > recoveryRows {
		gapTxns = recoveryRows
	}
	res := &RecoveryResult{Txns: txns, Rows: recoveryRows, GapTxns: gapTxns}
	if err := runColdRecovery(txns, res); err != nil {
		return nil, err
	}
	gapRows, gapDur, err := runOutageResync(gapTxns, true)
	if err != nil {
		return nil, err
	}
	res.GapRowsDelivered, res.GapResync = gapRows, gapDur
	fullRows, fullDur, err := runOutageResync(gapTxns, false)
	if err != nil {
		return nil, err
	}
	res.FullRowsDelivered, res.FullResync = fullRows, fullDur
	res.FullSnapshotRows = recoveryRows
	return res, nil
}

// runColdRecovery writes txns commits through a WAL (fsync off: the
// measurement is replay, not disk sync latency), then times recovering
// them into a fresh database.
func runColdRecovery(txns int, res *RecoveryResult) error {
	schema, err := snvs.Schema()
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp("", "nerpa-recovery-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	db := ovsdb.NewDatabase(schema)
	// Snapshot partway through so recovery exercises the real path:
	// snapshot load plus tail replay, not just one or the other.
	log, recovered, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff, SnapshotEvery: txns / 2})
	if err != nil {
		return err
	}
	if err := db.Restore(recovered); err != nil {
		return err
	}
	db.AttachWAL(log)

	start := time.Now()
	for i := 0; i < txns; i++ {
		var op ovsdb.Operation
		if i < recoveryRows {
			op = ovsdb.OpInsert("Port", map[string]ovsdb.Value{
				"name":      fmt.Sprintf("p%d", i),
				"port_num":  int64(i + 1),
				"vlan_mode": "access",
				"tag":       int64(10),
			})
		} else {
			op = ovsdb.OpUpdate("Port",
				map[string]ovsdb.Value{"tag": int64(10 + i%90)},
				ovsdb.Cond("name", "==", fmt.Sprintf("p%d", i%recoveryRows)))
		}
		for _, r := range db.Transact([]ovsdb.Operation{op}) {
			if r.Error != "" {
				return fmt.Errorf("bench: recovery workload txn %d: %s (%s)", i, r.Error, r.Details)
			}
		}
	}
	if err := log.Close(); err != nil {
		return fmt.Errorf("bench: closing workload wal: %w", err)
	}
	res.Commit = time.Since(start)
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			res.WalBytes += info.Size()
		}
	}

	start = time.Now()
	log2, recovered2, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
	if err != nil {
		return fmt.Errorf("bench: reopening wal: %w", err)
	}
	db2 := ovsdb.NewDatabase(schema)
	if err := db2.Restore(recovered2); err != nil {
		return fmt.Errorf("bench: restoring: %w", err)
	}
	res.ColdRecovery = time.Since(start)
	res.TailRecords = len(recovered2.Tail)
	res.ColdRecovered = recovered2.LastTxn
	log2.Close()
	if got := db2.RowCount("Port"); got != recoveryRows {
		return fmt.Errorf("bench: recovered %d Port rows, want %d", got, recoveryRows)
	}
	if recovered2.LastTxn != uint64(txns) {
		return fmt.Errorf("bench: recovered txn %d, want %d", recovered2.LastTxn, txns)
	}
	return nil
}

// runOutageResync seeds a server with recoveryRows rows, registers a
// resilient monitor through a killable connection, commits gapTxns
// single-row updates during an outage, and measures the rows delivered
// and the wall time from the kill until the subscriber sees every
// updated row. withWindow selects the gap-replay path; disabling the
// server's window forces the full-snapshot fallback on the same drift.
func runOutageResync(gapTxns int, withWindow bool) (rowsDelivered int, elapsed time.Duration, err error) {
	schema, err := snvs.Schema()
	if err != nil {
		return 0, 0, err
	}
	db := ovsdb.NewDatabase(schema)
	if !withWindow {
		db.SetGapWindow(-1)
	}
	srv := ovsdb.NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, 0, err
	}
	go srv.Serve(ln)
	defer srv.Close()

	ops := make([]ovsdb.Operation, 0, recoveryRows)
	for i := 0; i < recoveryRows; i++ {
		ops = append(ops, ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name":      fmt.Sprintf("p%d", i),
			"port_num":  int64(i + 1),
			"vlan_mode": "access",
			"tag":       int64(10),
		}))
	}
	for i, r := range db.Transact(ops) {
		if r.Error != "" {
			return 0, 0, fmt.Errorf("bench: resync seed op %d: %s (%s)", i, r.Error, r.Details)
		}
	}

	dialer := faultnet.NewDialer()
	cli, err := ovsdb.DialResilient(ovsdb.ResilientConfig{
		Addr:       ln.Addr().String(),
		Dial:       func(addr string) (io.ReadWriteCloser, error) { return dialer.Dial(addr) },
		BackoffMin: time.Millisecond,
		BackoffMax: 2 * time.Millisecond,
	})
	if err != nil {
		return 0, 0, err
	}
	defer cli.Close()

	var mu sync.Mutex
	var outage bool
	var delivered int
	moved := make(map[string]bool) // the rows the subscriber sees updated
	converged := make(chan struct{})
	_, err = cli.MonitorTxn("snvs", "bench", map[string]*ovsdb.MonitorRequest{
		"Port": {},
	}, func(txn uint64, tu ovsdb.TableUpdates) {
		mu.Lock()
		defer mu.Unlock()
		if !outage {
			return
		}
		if txn == ovsdb.SnapshotTxn {
			clear(moved) // the whole table replaces the subscriber's view
		}
		for id, ru := range tu["Port"] {
			delivered++
			if ru.New != nil && ru.New["tag"] != int64(10) {
				moved[id] = true
			} else {
				delete(moved, id)
			}
		}
		if len(moved) == gapTxns {
			select {
			case <-converged:
			default:
				close(converged)
			}
		}
	})
	if err != nil {
		return 0, 0, err
	}

	mu.Lock()
	outage = true
	mu.Unlock()
	start := time.Now()
	dialer.KillAll()
	for i := 0; i < gapTxns; i++ {
		res := db.Transact([]ovsdb.Operation{ovsdb.OpUpdate("Port",
			map[string]ovsdb.Value{"tag": int64(20 + i)},
			ovsdb.Cond("name", "==", fmt.Sprintf("p%d", i)))})
		if terr := firstOpError(res, nil); terr != nil {
			return 0, 0, fmt.Errorf("bench: outage txn %d: %w", i, terr)
		}
	}
	select {
	case <-converged:
	case <-time.After(30 * time.Second):
		return 0, 0, fmt.Errorf("bench: resync did not converge (delivered %d of %d)", delivered, gapTxns)
	}
	elapsed = time.Since(start)
	gap, snap := cli.ResyncStats()
	if withWindow && (gap != 1 || snap != 0) {
		return 0, 0, fmt.Errorf("bench: expected gap replay, got gap=%d snapshot=%d", gap, snap)
	}
	if !withWindow && snap != 1 {
		return 0, 0, fmt.Errorf("bench: expected snapshot fallback, got gap=%d snapshot=%d", gap, snap)
	}
	mu.Lock()
	rowsDelivered = delivered
	mu.Unlock()
	return rowsDelivered, elapsed, nil
}

func firstOpError(res []ovsdb.OpResult, err error) error {
	if err != nil {
		return err
	}
	for i, r := range res {
		if r.Error != "" {
			return fmt.Errorf("op %d: %s (%s)", i, r.Error, r.Details)
		}
	}
	return nil
}

// String renders the report.
func (r *RecoveryResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Durability recovery: WAL cold restart and outage resumption\n")
	fmt.Fprintf(&sb, "  cold recovery: %v for %d txns committed in %v (%d rows, %d tail records, %d wal bytes)\n",
		r.ColdRecovery, r.Txns, r.Commit, r.Rows, r.TailRecords, r.WalBytes)
	fmt.Fprintf(&sb, "  gap replay:    %d rows delivered in %v (%d missed txns)\n",
		r.GapRowsDelivered, r.GapResync, r.GapTxns)
	fmt.Fprintf(&sb, "  full resync:   %d rows delivered in %v (the whole %d-row snapshot, for the subscriber to reconcile)\n",
		r.FullRowsDelivered, r.FullResync, r.FullSnapshotRows)
	return sb.String()
}
