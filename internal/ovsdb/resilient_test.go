package ovsdb

import (
	"encoding/json"
	"io"
	"net"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/faultnet"
	"repro/internal/jsonrpc"
	"repro/internal/obs"
)

// TestMonitorTxnUnregistersOnBadInitialReply is the regression test for
// the monitor-registration leak: when the server's initial monitor reply
// fails to decode, the callback must be unregistered so the same id can
// be monitored again (pre-fix this reported a spurious duplicate).
func TestMonitorTxnUnregistersOnBadInitialReply(t *testing.T) {
	a, b := net.Pipe()
	var calls int // touched only on the server conn's read loop
	srv := jsonrpc.NewConn(b, jsonrpc.HandlerFunc(func(_ *jsonrpc.Conn, method string, _ json.RawMessage) (any, *jsonrpc.RPCError) {
		if method == "get_schema" { // rows are typed by it, so the client asks first
			return json.RawMessage(testSchema), nil
		}
		if method != "monitor" {
			return nil, &jsonrpc.RPCError{Code: "unknown method", Details: method}
		}
		calls++
		if calls == 1 {
			// An array is not a TableUpdates object: the client's decode of
			// the initial reply fails after the RPC itself succeeded.
			return []any{1, 2, 3}, nil
		}
		return map[string]any{}, nil
	}))
	defer srv.Close()
	c := NewClient(a)
	defer c.Close()

	cb := func(uint64, TableUpdates) {}
	if _, err := c.MonitorTxn("db", "m1", nil, cb); err == nil {
		t.Fatalf("garbage initial reply decoded successfully")
	}
	if _, err := c.MonitorTxn("db", "m1", nil, cb); err != nil {
		t.Fatalf("re-monitor after failed decode: %v (registration leaked?)", err)
	}
}

// txnCollector gathers txn-aware monitor updates.
type txnCollector struct {
	mu      sync.Mutex
	txns    []uint64
	updates []TableUpdates
}

func (c *txnCollector) add(txn uint64, tu TableUpdates) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.txns = append(c.txns, txn)
	c.updates = append(c.updates, tu)
}

// txn returns the transaction the i-th update was delivered with.
func (c *txnCollector) txn(i int) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txns[i]
}

func (c *txnCollector) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.updates)
}

func (c *txnCollector) waitFor(t *testing.T, n int) []TableUpdates {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		c.mu.Lock()
		if len(c.updates) >= n {
			out := append([]TableUpdates{}, c.updates...)
			c.mu.Unlock()
			return out
		}
		c.mu.Unlock()
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d updates (have %d)", n, c.count())
		}
		time.Sleep(time.Millisecond)
	}
}

// startResilient boots a server plus a resilient client dialing through a
// fault-injecting dialer, with a direct (unkillable) client for mutations.
func startResilient(t *testing.T, o *obs.Observer) (*ResilientClient, *Client, *faultnet.Dialer) {
	t.Helper()
	r, direct, d, _ := startResilientDB(t, o)
	return r, direct, d
}

// startResilientDB is startResilient for a test that configures the
// database before the first transaction.
func startResilientDB(t *testing.T, o *obs.Observer) (*ResilientClient, *Client, *faultnet.Dialer, *Database) {
	t.Helper()
	schema, err := ParseSchema([]byte(testSchema))
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(schema)
	srv := NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)

	d := faultnet.NewDialer()
	r, err := DialResilient(ResilientConfig{
		Addr:       ln.Addr().String(),
		Dial:       func(addr string) (io.ReadWriteCloser, error) { return d.Dial(addr) },
		BackoffMin: 2 * time.Millisecond,
		BackoffMax: 20 * time.Millisecond,
		Obs:        o,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { r.Close() })
	direct, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { direct.Close() })
	return r, direct, d, db
}

func portMonitorReqs() map[string]*MonitorRequest {
	return map[string]*MonitorRequest{
		"Port": {Columns: []string{"name", "number"}},
	}
}

func waitConnected(t *testing.T, r *ResilientClient) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !r.Connected() {
		if time.Now().After(deadline) {
			t.Fatalf("client never reconnected")
		}
		time.Sleep(time.Millisecond)
	}
}

// killAndWaitRedial kills every connection and blocks until the
// supervisor has published the session after it. It waits on the dial
// count, which only rises: polling Connected() for the outage itself can
// miss it entirely when the redial (2 ms here) outruns the poll.
func killAndWaitRedial(t *testing.T, r *ResilientClient, d *faultnet.Dialer) {
	t.Helper()
	dials := d.Dials()
	d.KillAll()
	deadline := time.Now().Add(5 * time.Second)
	for d.Dials() == dials {
		if time.Now().After(deadline) {
			t.Fatalf("drop never noticed")
		}
		time.Sleep(time.Millisecond)
	}
	waitConnected(t, r) // the redial unpublished the dead session first
}

// snapshotRows checks that update i of col is a fallback snapshot: tagged
// SnapshotTxn, every row an insert. It returns Port's rows by name.
func snapshotRows(t *testing.T, col *txnCollector, i int) map[string]Row {
	t.Helper()
	tu := col.waitFor(t, i+1)[i]
	if txn := col.txn(i); txn != SnapshotTxn {
		t.Fatalf("update %d has txn %d, want SnapshotTxn: %v", i, txn, tu)
	}
	rows := map[string]Row{}
	for _, ru := range tu["Port"] {
		if ru.Old != nil || ru.New == nil {
			t.Fatalf("snapshot row is not an insert: %+v", ru)
		}
		rows[ru.New["name"].(string)] = ru.New
	}
	return rows
}

func TestResilientResyncDeliversOutageDiff(t *testing.T) {
	// No gap window: a reconnection after any commit takes the snapshot
	// fallback.
	o := obs.NewObserver()
	r, direct, d, db := startResilientDB(t, o)
	db.SetGapWindow(-1)
	var col txnCollector
	if _, err := r.MonitorTxn("TestDB", "m", portMonitorReqs(), col.add); err != nil {
		t.Fatalf("MonitorTxn: %v", err)
	}
	if _, err := direct.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "eth0", "number": int64(1)}),
		OpInsert("Port", map[string]Value{"name": "eth9", "number": int64(9)})); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1)

	// Sever the client's connection and mutate the database while it is
	// down: delete eth0, add eth1, keep eth9.
	d.KillAll()
	if _, err := direct.TransactErr("TestDB",
		OpDelete("Port", Cond("name", "==", "eth0")),
		OpInsert("Port", map[string]Value{"name": "eth1", "number": int64(2)}),
	); err != nil {
		t.Fatal(err)
	}

	// The fallback delivers the fresh snapshot whole, once: every row the
	// server holds, and no sign of eth0 but its absence.
	rows := snapshotRows(t, &col, 1)
	if len(rows) != 2 || rows["eth1"] == nil || rows["eth9"] == nil {
		t.Fatalf("snapshot rows %v, want eth1 and eth9", rows)
	}
	waitConnected(t, r)
	if _, snaps := r.ResyncStats(); snaps != 1 {
		t.Fatalf("%d snapshot resyncs, want 1", snaps)
	}

	// Live updates keep flowing on the healed session, with their own
	// transaction.
	if _, err := r.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "eth2", "number": int64(3)})); err != nil {
		t.Fatalf("transact on healed client: %v", err)
	}
	col.waitFor(t, 3)
	if txn := col.txn(2); txn == SnapshotTxn || txn == 0 {
		t.Fatalf("live update after the heal has txn %d", txn)
	}

	if reasons := o.DegradedReasons(); len(reasons) != 0 {
		t.Fatalf("still degraded after recovery: %v", reasons)
	}
	var snap strings.Builder
	o.Reg().WritePrometheus(&snap)
	if !strings.Contains(snap.String(), "ovsdb_reconnects_total 1") {
		t.Fatalf("reconnect counter missing:\n%s", snap.String())
	}
}

func TestResilientResyncNoSpuriousDeltas(t *testing.T) {
	// No gap window: a reconnection after any commit takes the snapshot
	// fallback. All of Port's columns are monitored, so the snapshot
	// carries a set, a map and an optional scalar, set and empty, beside
	// the plain scalars: each must come back as the live update showed it.
	r, direct, d, db := startResilientDB(t, nil)
	db.SetGapWindow(-1)
	var col txnCollector
	if _, err := r.MonitorTxn("TestDB", "m", map[string]*MonitorRequest{"Port": {}}, col.add); err != nil {
		t.Fatalf("MonitorTxn: %v", err)
	}
	peer := NewUUID()
	if _, err := direct.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "eth0", "number": int64(1), "trunks": NewSet(int64(7), int64(3)),
			"options": NewMap([2]Atom{"k", "v"}, [2]Atom{"a", "b"}), "peer": NewSet(peer)}),
		OpInsert("Port", map[string]Value{"name": "bare"})); err != nil {
		t.Fatal(err)
	}
	seen := map[string]Row{}
	for _, ru := range col.waitFor(t, 1)[0]["Port"] {
		seen[ru.New["name"].(string)] = ru.New
	}

	// Nothing the monitor selects changes (the commit to Bridge only moves
	// the server past the client's cursor): the snapshot, delivered once,
	// holds every row exactly as it was.
	if _, err := direct.TransactErr("TestDB", OpInsert("Bridge", map[string]Value{"name": "br0"})); err != nil {
		t.Fatal(err)
	}
	killAndWaitRedial(t, r, d)
	rows := snapshotRows(t, &col, 1)
	if len(rows) != len(seen) {
		t.Fatalf("snapshot rows %v, want %v", rows, seen)
	}
	for name, row := range seen {
		if !rowsEqual(rows[name], row) {
			t.Fatalf("snapshot row %s = %v, want %v", name, rows[name], row)
		}
	}
	time.Sleep(20 * time.Millisecond)
	if n := col.count(); n != 2 {
		t.Fatalf("the resync delivered %d updates, want the snapshot once", n-1)
	}
	if _, snaps := r.ResyncStats(); snaps != 1 {
		t.Fatalf("%d snapshot resyncs, want 1", snaps)
	}

	// A change made after the heal arrives exactly once, live.
	if _, err := direct.TransactErr("TestDB",
		OpUpdate("Port", map[string]Value{"number": int64(9)}, Cond("name", "==", "eth0"))); err != nil {
		t.Fatal(err)
	}
	ups := col.waitFor(t, 3)
	if ru := ups[2]["Port"]; len(ru) != 1 || col.txn(2) == SnapshotTxn {
		t.Fatalf("post-heal update = %v (txn %d)", ups[2], col.txn(2))
	}

	// A change of each kind of value made during an outage reaches the
	// subscriber in the next snapshot, beside the unchanged row.
	for i, change := range []map[string]Value{
		{"trunks": NewSet(int64(7))}, {"options": NewMap([2]Atom{"k", "w"}, [2]Atom{"a", "b"})}, {"peer": NewSet()}, {"enabled": true},
	} {
		d.KillAll()
		if _, err := direct.TransactErr("TestDB", OpUpdate("Port", change, Cond("name", "==", "eth0"))); err != nil {
			t.Fatal(err)
		}
		rows := snapshotRows(t, &col, 3+i)
		if !rowsEqual(rows["bare"], seen["bare"]) {
			t.Fatalf("outage change %v: unchanged row resynced as %v", change, rows["bare"])
		}
		for c, v := range change {
			if !ValueEqual(rows["eth0"][c], v) {
				t.Fatalf("outage change %v resynced as %v", change, rows["eth0"])
			}
		}
		waitConnected(t, r)
	}
}

func TestResilientSurvivesRepeatedKills(t *testing.T) {
	r, direct, d := startResilient(t, nil)
	var col txnCollector
	if _, err := r.MonitorTxn("TestDB", "m", portMonitorReqs(), col.add); err != nil {
		t.Fatalf("MonitorTxn: %v", err)
	}
	want := 0
	for i := 0; i < 3; i++ {
		d.KillAll()
		if _, err := direct.TransactErr("TestDB",
			OpInsert("Port", map[string]Value{"name": "p" + string(rune('a'+i)), "number": int64(i)})); err != nil {
			t.Fatal(err)
		}
		want++
		col.waitFor(t, want) // each outage's change arrives via resync
		waitConnected(t, r)
		time.Sleep(2 * time.Millisecond) // let the healed session settle
	}
	select {
	case <-r.Done():
		t.Fatalf("resilient client died: transient drops must not close it")
	default:
	}
}

func TestResilientGoroutinesTerminateOnClose(t *testing.T) {
	// One shared server; the baseline is measured after it is up so only
	// the resilient clients' own goroutines (supervise, redial, conn
	// loops) are under test.
	schema, err := ParseSchema([]byte(testSchema))
	if err != nil {
		t.Fatal(err)
	}
	srv := NewServer(NewDatabase(schema))
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	time.Sleep(5 * time.Millisecond)
	base := runtime.NumGoroutine()

	for i := 0; i < 5; i++ {
		d := faultnet.NewDialer()
		r, err := DialResilient(ResilientConfig{
			Addr:       ln.Addr().String(),
			Dial:       func(addr string) (io.ReadWriteCloser, error) { return d.Dial(addr) },
			BackoffMin: 2 * time.Millisecond,
			BackoffMax: 20 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		var col txnCollector
		if _, err := r.MonitorTxn("TestDB", "m", portMonitorReqs(), col.add); err != nil {
			t.Fatal(err)
		}
		killAndWaitRedial(t, r, d) // exercise the redial loop before closing
		r.Close()
		select {
		case <-r.Done():
		case <-time.After(time.Second):
			t.Fatalf("Done not closed after Close")
		}
	}
	// Server-side conn goroutines die when their client closes; everything
	// must drain back to near the post-server baseline.
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutines leaked: %d (base %d)\n%s", runtime.NumGoroutine(), base, buf[:n])
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestResilientDropsSupersededConnectionUpdates is the regression test
// for stale delivery after resync: an update still queued in a dead
// connection's delivery goroutine carries an older monitor generation
// and must be dropped, neither advancing the cursor nor reaching the
// subscriber out of order.
func TestResilientDropsSupersededConnectionUpdates(t *testing.T) {
	r, direct, d := startResilient(t, nil)
	var col txnCollector
	if _, err := r.MonitorTxn("TestDB", "m", portMonitorReqs(), col.add); err != nil {
		t.Fatalf("MonitorTxn: %v", err)
	}
	if _, err := direct.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "eth0", "number": int64(1)})); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1)

	// A callback bound to generation 0 predates the current registration
	// (generation 1): the update must vanish without a trace.
	r.deliver(0, 42, TableUpdates{"Port": {
		"00000000-dead-beef-0000-000000000000": RowUpdate{New: Row{"name": "stale", "number": int64(9)}},
	}})
	if n := col.count(); n != 1 {
		t.Fatalf("superseded-generation update forwarded (%d updates)", n)
	}

	// The cursor did not advance to the dropped txn: an outage with no
	// state change resumes by gap replay with nothing to deliver (a cursor
	// ahead of the server would force a snapshot), and a real change
	// arrives exactly once.
	killAndWaitRedial(t, r, d)
	time.Sleep(20 * time.Millisecond)
	if n := col.count(); n != 1 {
		t.Fatalf("stale update leaked into the resync diff (%d updates)", n)
	}
	if _, err := direct.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "eth1", "number": int64(2)})); err != nil {
		t.Fatal(err)
	}
	ups := col.waitFor(t, 2)
	for _, ru := range ups[1]["Port"] {
		if ru.New != nil && ru.New["name"] == "stale" {
			t.Fatalf("stale row image surfaced after reconnect: %v", ups[1])
		}
	}
}
