package ovsdb

import (
	"encoding/json"
	"net"
	"sync"
	"testing"
	"time"
)

// startServer runs a Server on an ephemeral port and returns a connected
// client.
func startServer(t *testing.T) (*Server, *Client, *Database) {
	t.Helper()
	schema, err := ParseSchema([]byte(testSchema))
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	db := NewDatabase(schema)
	srv := NewServer(db)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	go srv.Serve(ln)
	t.Cleanup(srv.Close)
	client, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	t.Cleanup(func() { client.Close() })
	testAddrs.Store(client, ln.Addr().String())
	return srv, client, db
}

func TestClientListDbsAndSchema(t *testing.T) {
	_, client, _ := startServer(t)
	dbs, err := client.ListDbs()
	if err != nil || len(dbs) != 1 || dbs[0] != "TestDB" {
		t.Fatalf("ListDbs = %v, %v", dbs, err)
	}
	schema, err := client.GetSchema("TestDB")
	if err != nil {
		t.Fatalf("GetSchema: %v", err)
	}
	if schema.Name != "TestDB" || schema.Tables["Port"] == nil {
		t.Fatalf("schema round trip broken: %+v", schema)
	}
	if !schema.Tables["Port"].Columns["trunks"].Type.IsScalar() == false {
		t.Fatalf("trunks type lost in round trip")
	}
	if _, err := client.GetSchema("Nope"); err == nil {
		t.Fatalf("GetSchema(Nope) succeeded")
	}
}

func TestClientEcho(t *testing.T) {
	_, client, _ := startServer(t)
	if err := client.Echo(); err != nil {
		t.Fatalf("Echo: %v", err)
	}
}

func TestClientTransactRoundTrip(t *testing.T) {
	_, client, db := startServer(t)
	results, err := client.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "eth0", "number": int64(4)}),
		OpSelect("Port", Cond("name", "==", "eth0")),
	)
	if err != nil {
		t.Fatalf("Transact: %v", err)
	}
	if results[0].UUID == "" {
		t.Fatalf("insert uuid = %v", results[0].UUID)
	}
	if len(results[1].Rows) != 1 {
		t.Fatalf("select rows = %v", results[1].Rows)
	}
	// The row comes back as typed values.
	row := results[1].Rows[0]
	if row["number"] != int64(4) {
		t.Fatalf("number = %v (%T)", row["number"], row["number"])
	}
	if db.RowCount("Port") != 1 {
		t.Fatalf("server row count = %d", db.RowCount("Port"))
	}
}

func TestClientTransactError(t *testing.T) {
	_, client, _ := startServer(t)
	_, err := client.TransactErr("TestDB", Operation{Op: "insert", Table: "Nope"})
	if err == nil {
		t.Fatalf("bad transact succeeded")
	}
	if _, err := client.Transact("NoDB", OpSelect("Port")); err == nil {
		t.Fatalf("unknown database accepted")
	}
}

// collector gathers monitor updates safely.
type collector struct {
	mu      sync.Mutex
	updates []TableUpdates
}

func (c *collector) add(tu TableUpdates) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.updates = append(c.updates, tu)
}

func (c *collector) waitFor(t *testing.T, n int) []TableUpdates {
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
			t.Fatalf("timed out waiting for %d updates", n)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestMonitorInitialAndUpdates(t *testing.T) {
	_, client, _ := startServer(t)
	// Pre-populate one row for the initial dump.
	if _, err := client.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "pre", "number": int64(1)})); err != nil {
		t.Fatal(err)
	}
	col := &collector{}
	initial, err := client.Monitor("TestDB", "mon1", map[string]*MonitorRequest{
		"Port": {Columns: []string{"name", "number"}},
	}, col.add)
	if err != nil {
		t.Fatalf("Monitor: %v", err)
	}
	if len(initial["Port"]) != 1 {
		t.Fatalf("initial = %v", initial)
	}
	for _, ru := range initial["Port"] {
		if ru.New["name"] != "pre" {
			t.Fatalf("initial row = %v", ru)
		}
		if ru.Old != nil {
			t.Fatalf("initial row has old: %v", ru)
		}
	}
	// Insert, modify, delete -> three ordered notifications.
	if _, err := client.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "live", "number": int64(2)})); err != nil {
		t.Fatal(err)
	}
	if _, err := client.TransactErr("TestDB",
		OpUpdate("Port", map[string]Value{"number": int64(3)}, Cond("name", "==", "live"))); err != nil {
		t.Fatal(err)
	}
	if _, err := client.TransactErr("TestDB",
		OpDelete("Port", Cond("name", "==", "live"))); err != nil {
		t.Fatal(err)
	}
	ups := col.waitFor(t, 3)
	// 1: insert (new only)
	for _, ru := range ups[0]["Port"] {
		if ru.Old != nil || ru.New["name"] != "live" {
			t.Fatalf("insert update = %+v", ru)
		}
	}
	// 2: modify (old has only the changed column)
	for _, ru := range ups[1]["Port"] {
		if ru.New == nil || ru.Old == nil {
			t.Fatalf("modify update = %+v", ru)
		}
		if _, hasName := ru.Old["name"]; hasName {
			t.Fatalf("modify old contains unchanged column: %+v", ru.Old)
		}
		if _, hasNum := ru.Old["number"]; !hasNum {
			t.Fatalf("modify old lacks changed column: %+v", ru.Old)
		}
	}
	// 3: delete (old only)
	for _, ru := range ups[2]["Port"] {
		if ru.New != nil || ru.Old["name"] != "live" {
			t.Fatalf("delete update = %+v", ru)
		}
	}
}

func TestMonitorUnselectedTableSilent(t *testing.T) {
	_, client, _ := startServer(t)
	col := &collector{}
	if _, err := client.Monitor("TestDB", 7, map[string]*MonitorRequest{
		"Bridge": {},
	}, col.add); err != nil {
		t.Fatalf("Monitor: %v", err)
	}
	if _, err := client.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "x"})); err != nil {
		t.Fatal(err)
	}
	if _, err := client.TransactErr("TestDB",
		OpInsert("Bridge", map[string]Value{"name": "br"})); err != nil {
		t.Fatal(err)
	}
	ups := col.waitFor(t, 1)
	if _, hasPort := ups[0]["Port"]; hasPort {
		t.Fatalf("monitor leaked unselected table: %v", ups[0])
	}
	if _, hasBridge := ups[0]["Bridge"]; !hasBridge {
		t.Fatalf("monitor missed selected table")
	}
}

func TestMonitorCancel(t *testing.T) {
	_, client, _ := startServer(t)
	col := &collector{}
	if _, err := client.Monitor("TestDB", "c1", map[string]*MonitorRequest{
		"Port": {},
	}, col.add); err != nil {
		t.Fatal(err)
	}
	if err := client.MonitorCancel("c1"); err != nil {
		t.Fatalf("MonitorCancel: %v", err)
	}
	if _, err := client.TransactErr("TestDB",
		OpInsert("Port", map[string]Value{"name": "after"})); err != nil {
		t.Fatal(err)
	}
	time.Sleep(30 * time.Millisecond)
	col.mu.Lock()
	n := len(col.updates)
	col.mu.Unlock()
	if n != 0 {
		t.Fatalf("cancelled monitor still received %d updates", n)
	}
	if err := client.MonitorCancel("c1"); err == nil {
		t.Fatalf("double cancel succeeded")
	}
}

// TestMonitorAfterTeardownIsCancelled: a Close from another goroutine
// (a server shutting down) ends a connection, and runs its teardown,
// while the read loop may still be serving a monitor request. The monitor
// that request registers must not outlive the connection.
func TestMonitorAfterTeardownIsCancelled(t *testing.T) {
	schema, err := ParseSchema([]byte(testSchema))
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase(schema)
	sc := &serverConn{server: NewServer(db), monitors: make(map[string]*Monitor)}
	sc.teardown()
	if _, rpcErr := sc.handleMonitor(json.RawMessage(`["TestDB","m",{"Port":{}}]`)); rpcErr == nil {
		t.Error("monitor on a torn-down connection succeeded")
	}
	db.monMu.Lock()
	n := len(db.monitors)
	db.monMu.Unlock()
	if n != 0 {
		t.Fatalf("%d monitors registered after teardown, want 0", n)
	}
}

func TestMonitorErrors(t *testing.T) {
	_, client, _ := startServer(t)
	if _, err := client.Monitor("TestDB", "bad", map[string]*MonitorRequest{
		"Nope": {},
	}, func(TableUpdates) {}); err == nil {
		t.Fatalf("monitor on unknown table succeeded")
	}
	if _, err := client.Monitor("TestDB", "bad2", map[string]*MonitorRequest{
		"Port": {Columns: []string{"nope"}},
	}, func(TableUpdates) {}); err == nil {
		t.Fatalf("monitor on unknown column succeeded")
	}
}

func TestServerSurvivesMalformedClient(t *testing.T) {
	srv, client, _ := startServer(t)
	_ = srv
	// A raw connection that sends garbage must not take the server down.
	nc, err := net.Dial("tcp", clientAddr(t, client))
	if err != nil {
		t.Fatalf("re-dial failed: %v", err)
	}
	nc.Write([]byte("garbage not json"))
	nc.Close()
	time.Sleep(20 * time.Millisecond)
	// The original client still works.
	if _, err := client.ListDbs(); err != nil {
		t.Fatalf("server broke after malformed client: %v", err)
	}
}

// testAddrs records each test client's server address, letting tests dial
// additional raw connections to the same server.
var testAddrs sync.Map

func clientAddr(t *testing.T, c *Client) string {
	t.Helper()
	v, ok := testAddrs.Load(c)
	if !ok {
		t.Fatal("no recorded address for client")
	}
	return v.(string)
}

func TestConcurrentTransactions(t *testing.T) {
	_, client, db := startServer(t)
	var wg sync.WaitGroup
	errs := make(chan error, 50)
	for i := 0; i < 50; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, err := client.TransactErr("TestDB", OpInsert("Port", map[string]Value{
				"name": "p" + string(rune('A'+i%26)) + string(rune('0'+i/26)),
			}))
			errs <- err
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatalf("concurrent transact: %v", err)
		}
	}
	if db.RowCount("Port") != 50 {
		t.Fatalf("row count = %d, want 50", db.RowCount("Port"))
	}
}

func TestMonitorOrderingUnderLoad(t *testing.T) {
	_, client, _ := startServer(t)
	type numbered struct {
		n  int64
		op string
	}
	var mu sync.Mutex
	var seen []numbered
	_, err := client.Monitor("TestDB", "ord", map[string]*MonitorRequest{
		"Port": {Columns: []string{"number"}},
	}, func(tu TableUpdates) {
		mu.Lock()
		defer mu.Unlock()
		for _, ru := range tu["Port"] {
			if ru.New != nil {
				v, _ := ru.New["number"].(int64)
				seen = append(seen, numbered{n: v, op: "ins"})
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	const n = 100
	for i := 0; i < n; i++ {
		if _, err := client.TransactErr("TestDB", OpInsert("Port", map[string]Value{
			"name":   "ord" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676)),
			"number": int64(i),
		})); err != nil {
			t.Fatal(err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		count := len(seen)
		mu.Unlock()
		if count >= n {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("saw %d/%d updates", count, n)
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	defer mu.Unlock()
	for i := 0; i < n; i++ {
		if seen[i].n != int64(i) {
			t.Fatalf("update %d out of order: got number %d", i, seen[i].n)
		}
	}
}

// TestTransactIntegerExact: integers cross the wire and come back as the
// int64 they are, beyond what a float64 holds; a number that is not an
// integer is that operation's error, not a rounded value.
func TestTransactIntegerExact(t *testing.T) {
	_, client, db := startServer(t)
	var mu sync.Mutex
	seen := map[string]Value{} // name → number, as the monitor reported it
	if _, err := client.Monitor("TestDB", "exact", map[string]*MonitorRequest{"Port": {Columns: []string{"name", "number"}}},
		func(tu TableUpdates) {
			mu.Lock()
			defer mu.Unlock()
			for _, ru := range tu["Port"] {
				seen[ru.New["name"].(string)] = ru.New["number"]
			}
		}); err != nil {
		t.Fatal(err)
	}
	exact := map[string]int64{"big": 9007199254740993, "min": -9223372036854775808}
	for name, n := range exact {
		if _, err := client.TransactErr("TestDB", OpInsert("Port", map[string]Value{"name": name, "number": n})); err != nil {
			t.Fatal(err)
		}
	}
	for name, n := range exact {
		res, err := client.TransactErr("TestDB", OpSelect("Port", Cond("number", "==", n)))
		if err != nil || len(res[0].Rows) != 1 || res[0].Rows[0]["name"] != name || res[0].Rows[0]["number"] != n {
			t.Errorf("select number == %d: %+v, %v", n, res, err)
		}
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		done := len(seen) == len(exact)
		mu.Unlock()
		if done || time.Now().After(deadline) {
			break
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	for name, n := range exact {
		if seen[name] != n {
			t.Errorf("monitor reported %s as %v (%T), want %d", name, seen[name], seen[name], n)
		}
	}
	mu.Unlock()

	for _, number := range []string{"1.5", "1e3"} {
		var reply []struct {
			UUID  json.RawMessage
			Error string
			Count *int
		}
		params := json.RawMessage(`["TestDB",{"op":"insert","table":"Port","row":{"name":"before"}},` +
			`{"op":"insert","row":{"name":"n","number":` + number + `},"table":"Port"},{"op":"comment"}]`)
		if err := client.conn.Call("transact", params, &reply); err != nil {
			t.Fatalf("transact with number %s failed as a whole: %v", number, err)
		}
		if len(reply) != 3 || reply[0].UUID == nil || reply[1].Error != "constraint violation" || reply[2].Count == nil {
			t.Errorf("number %s in an integer column: reply %+v", number, reply)
		}
	}
	if n := db.RowCount("Port"); n != len(exact) {
		t.Errorf("%d rows after the refused inserts, want %d", n, len(exact))
	}
}
