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
	updates []TableUpdates
}

func (c *txnCollector) add(_ uint64, tu TableUpdates) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updates = append(c.updates, tu)
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

func TestResilientResyncDeliversOutageDiff(t *testing.T) {
	o := obs.NewObserver()
	r, direct, d := startResilient(t, o)
	var col txnCollector
	if _, err := r.MonitorTxn("TestDB", "m", portMonitorReqs(), col.add); err != nil {
		t.Fatalf("MonitorTxn: %v", err)
	}
	if _, err := direct.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "eth0", "number": int64(1)})); err != nil {
		t.Fatal(err)
	}
	col.waitFor(t, 1)

	// Sever the client's connection and mutate the database while it is
	// down: delete eth0, add eth1.
	d.KillAll()
	if _, err := direct.TransactErr("TestDB",
		OpDelete("Port", Cond("name", "==", "eth0")),
		OpInsert("Port", map[string]Value{"name": "eth1", "number": int64(2)}),
	); err != nil {
		t.Fatal(err)
	}

	// The resync diff must arrive as exactly one synthetic update carrying
	// the delete of eth0 and the insert of eth1.
	ups := col.waitFor(t, 2)
	tu := ups[1]["Port"]
	if len(tu) != 2 {
		t.Fatalf("resync update = %v, want 2 row updates", ups[1])
	}
	var sawDel, sawIns bool
	for _, ru := range tu {
		switch {
		case ru.New == nil && ru.Old != nil && ru.Old["name"] == "eth0":
			sawDel = true
		case ru.Old == nil && ru.New != nil && ru.New["name"] == "eth1":
			sawIns = true
		}
	}
	if !sawDel || !sawIns {
		t.Fatalf("resync diff missing changes: del=%v ins=%v (%v)", sawDel, sawIns, tu)
	}

	// Live updates keep flowing on the healed session.
	if _, err := r.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "eth2", "number": int64(3)})); err != nil {
		t.Fatalf("transact on healed client: %v", err)
	}
	col.waitFor(t, 3)

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
	// path, which compares each cached row with the fresh one. All of Port's columns
	// are monitored, so the comparison sees a set, a map and an optional
	// scalar, set and empty, beside the plain scalars.
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
	col.waitFor(t, 1)

	// Nothing the monitor selects changes (the commit to Bridge only moves
	// the server past the client's cursor): the subscriber must see no
	// synthetic update at all, not a no-op one.
	if _, err := direct.TransactErr("TestDB", OpInsert("Bridge", map[string]Value{"name": "br0"})); err != nil {
		t.Fatal(err)
	}
	killAndWaitRedial(t, r, d)
	time.Sleep(20 * time.Millisecond)
	if n := col.count(); n != 1 {
		t.Fatalf("unchanged state produced %d extra updates", n-1)
	}
	if _, snaps := r.ResyncStats(); snaps != 1 {
		t.Fatalf("%d snapshot resyncs, want 1: the comparison under test did not run", snaps)
	}

	// A change made after the heal arrives exactly once.
	if _, err := direct.TransactErr("TestDB",
		OpUpdate("Port", map[string]Value{"number": int64(9)}, Cond("name", "==", "eth0"))); err != nil {
		t.Fatal(err)
	}
	ups := col.waitFor(t, 2)
	ru := ups[1]["Port"]
	if len(ru) != 1 {
		t.Fatalf("post-heal update = %v", ups[1])
	}

	// And a change of each kind of value made during an outage is what the
	// comparison finds: one synthetic update, of that row alone.
	for i, change := range []map[string]Value{
		{"trunks": NewSet(int64(7))}, {"options": NewMap([2]Atom{"k", "w"}, [2]Atom{"a", "b"})}, {"peer": NewSet()}, {"enabled": true},
	} {
		d.KillAll()
		if _, err := direct.TransactErr("TestDB", OpUpdate("Port", change, Cond("name", "==", "eth0"))); err != nil {
			t.Fatal(err)
		}
		ups := col.waitFor(t, 3+i)
		rows := ups[2+i]["Port"]
		if len(rows) != 1 {
			t.Fatalf("outage change %v resynced as %v", change, ups[2+i])
		}
		for _, ru := range rows {
			for c, v := range change {
				if !ValueEqual(ru.New[c], v) || ValueEqual(ru.Old[c], v) {
					t.Fatalf("outage change %v resynced as %+v", change, ru)
				}
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
// and must be dropped, not applied to the cache or forwarded to the
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

	// The cache was not poisoned: an outage with no state change still
	// produces no synthetic update, and a real change arrives exactly once.
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
