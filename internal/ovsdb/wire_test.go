package ovsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// The oracles below are the reflection paths the hand-written codec
// replaced, kept verbatim as the reference it is compared against.

func oracleTransact(params []byte) (db string, ops []Operation, err error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(params, &raw); err != nil || len(raw) < 1 {
		return "", nil, fmt.Errorf("transact expects [db-name, op...]")
	}
	if err := json.Unmarshal(raw[0], &db); err != nil {
		return "", nil, err
	}
	for _, r := range raw[1:] {
		var op Operation
		if err := json.Unmarshal(r, &op); err != nil {
			return "", nil, err
		}
		ops = append(ops, op)
	}
	return db, ops, nil
}

func oracleTransactParams(db string, ops []Operation) ([]byte, error) {
	params := []any{db}
	for i := range ops {
		params = append(params, &ops[i])
	}
	return json.Marshal(params)
}

func oracleOpResultToJSON(r *OpResult) map[string]any {
	m := make(map[string]any)
	if r.Error != "" {
		m["error"] = r.Error
		if r.Details != "" {
			m["details"] = r.Details
		}
		return m
	}
	if r.UUID != nil {
		m["uuid"] = r.UUID
	}
	if r.Rows != nil {
		m["rows"] = r.Rows
	}
	if r.UUID == nil && r.Rows == nil {
		m["count"] = r.Count
	}
	return m
}

func oracleReply(data []byte) ([]OpResult, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	results := make([]OpResult, len(raw))
	for i, r := range raw {
		var m struct {
			Count   *int             `json:"count"`
			UUID    []any            `json:"uuid"`
			Rows    []map[string]any `json:"rows"`
			Error   string           `json:"error"`
			Details string           `json:"details"`
		}
		dec := json.NewDecoder(bytes.NewReader(r))
		dec.UseNumber()
		if err := dec.Decode(&m); err != nil {
			return nil, err
		}
		results[i] = OpResult{Rows: m.Rows, Error: m.Error, Details: m.Details}
		if m.Count != nil {
			results[i].Count = *m.Count
		}
		if len(m.UUID) == 2 {
			if s, ok := m.UUID[1].(string); ok {
				results[i].UUID = UUID(s)
			}
		}
	}
	return results, nil
}

func oracleUpdate(params []byte) (monID string, tu TableUpdates, txn uint64, err error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(params, &raw); err != nil || len(raw) < 2 {
		return "", nil, 0, fmt.Errorf("update expects [id, updates]")
	}
	dec := json.NewDecoder(bytes.NewReader(raw[1]))
	dec.UseNumber()
	if err := dec.Decode(&tu); err != nil {
		return "", nil, 0, err
	}
	if len(raw) >= 3 {
		_ = json.Unmarshal(raw[2], &txn)
	}
	return canonicalJSON(raw[0]), tu, txn, nil
}

func checkTransact(t *testing.T, params []byte) {
	t.Helper()
	wantDB, want, wantErr := oracleTransact(params)
	db, got, err := parseTransact(params)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("parseTransact(%q) error = %v, encoding/json: %v", params, err, wantErr)
	}
	if err != nil {
		return
	}
	if db != wantDB || len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
		t.Fatalf("parseTransact(%q) = %q %+v, encoding/json: %q %+v", params, db, got, wantDB, want)
	}
	wantText, wantErr := oracleTransactParams(db, want)
	text, err := transactParams{db: db, ops: got}.AppendJSON(nil)
	if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(text, wantText) {
		t.Fatalf("transactParams.AppendJSON = %s, %v; json.Marshal: %s, %v", text, err, wantText, wantErr)
	}
}

func checkReply(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := oracleReply(data)
	var got transactReply
	err := got.ParseJSON(data)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("ParseJSON(%q) error = %v, encoding/json: %v", data, err, wantErr)
	}
	if err == nil && (len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual([]OpResult(got), want)) {
		t.Fatalf("ParseJSON(%q) = %+v, encoding/json: %+v", data, got, want)
	}
}

func checkUpdate(t *testing.T, params []byte) {
	t.Helper()
	wantID, want, wantTxn, wantErr := oracleUpdate(params)
	id, got, txn, err := parseUpdate(params)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("parseUpdate(%q) error = %v, encoding/json: %v", params, err, wantErr)
	}
	if err != nil {
		return
	}
	if canonicalJSON(id) != wantID || txn != wantTxn || !reflect.DeepEqual(got, want) {
		t.Fatalf("parseUpdate(%q) = %s %+v %d, encoding/json: %s %+v %d", params, id, got, txn, wantID, want, wantTxn)
	}
}

var transactSeeds = []string{
	`["db"]`, `["db",{"op":"comment","comment":"why <not>"}]`, `[null,null,{}]`, ` [ "d" , { "op" : "abort" } ] `,
	`["TestDB",{"op":"insert","table":"Port","row":{"name":"p1","number":1,"trunks":["set",[1,2.5,-3e2]],"options":["map",[["k","v"]]],"peer":["named-uuid","x"]},"uuid-name":"x"}]`,
	`["TestDB",{"op":"select","table":"Port","where":[["name","==","p1"],["number","<",5]],"columns":["name","_uuid"]},{"op":"wait","table":"Port","where":[],"rows":[{"name":"p"},null,{}],"until":"==","timeout":0,"columns":[]}]`,
	`["TestDB",{"op":"mutate","table":"Port","mutations":[["number","+=",1],["trunks","insert",["set",[7]]]],"where":[["_uuid","==",["uuid","00000000-0000-0000-0000-000000000000"]]]}]`,
	`["d",{"OP":"delete","Table":"T","WHERE":[[ "a" , "==" , {"x":[1, 2]} , "extra"],["short"],null,[]],"where":[["b","!=",null]]}]`,
	`["d",{"row":{"a":1},"row":{"b":[null,true,"s"]},"rows":[{"x":1},{"y":2}],"rows":[{"z":3}],"columns":["a","b"],"columns":[null],"timeout":null,"until":null}]`,
	`["d",{"op":"insert","row":null,"rows":null,"where":null,"columns":null,"mutations":null,"unknown":{"deep":[{"er":null}]}}]`,
	// Refused by both.
	``, `null`, `[]`, `{}`, `[1]`, `["d",1]`, `["d",[]]`, `["d",{"op":1}]`, `["d",{"row":[]}]`, `["d",{"where":[1]}]`, `["d",{"where":{}}]`,
	`["d",{"columns":[1]}]`, `["d",{"timeout":1.5}]`, `["d",{"timeout":"1"}]`, `["d",{"row":{"a":1e999}}]`, `["d",{"op":"x"}`, `["d",{"op":"x"}]]`, `["d",{"where":[["a","b",tru]]}]`,
}

var replySeeds = []string{
	`[]`, `null`, `[{"count":1},{"count":0},{}]`, `[{"uuid":["uuid","7b1c8de2-3a52-4b6c-9f0e-5c6f7a8b9c0d"]}]`, `[null,{"error":"constraint violation","details":"nope"},{}]`,
	`[{"rows":[{"_uuid":["uuid","u"],"number":12345678901234567890,"trunks":["set",[]]}],"count":null}]`, `[{"rows":[],"uuid":["uuid",7],"Count":3,"ERROR":"e"}]`,
	`[{"uuid":["a","b","c"]},{"uuid":null},{"uuid":[]},{"rows":[null,{"a":1}],"rows":[{"b":2}]}]`,
	``, `{}`, `[1]`, `[{"count":"1"}]`, `[{"count":1.5}]`, `[{"uuid":"u"}]`, `[{"rows":{}}]`, `[{"rows":[1]}]`, `[{"error":1}]`, `[{}`, `[{}]x`,
}

var updateSeeds = []string{
	`["m",{}]`, `["m",null]`, `[null,{"T":null},0]`, `[["a",{"b":1.0}],{"T":{"u":null}},7,"ignored",{}]`, ` [ "m" , { "Port" : { "u1" : { "new" : { "name" : "p<1>" } } } } , 18446744073709551615 ] `,
	`["m",{"Port":{"u1":{"old":{"number":1},"new":{"number":2,"trunks":["set",[1,2]]}},"u2":{"old":{"name":"x"}},"u3":{}},"Bridge":{}},12]`,
	`["m",{"T":{"u":{"OLD":{"a":1},"old":{"b":2},"New":null,"other":[1]}},"T":{"v":{}}},-1]`, `["m",{},1.5]`, `["m",{},"7"]`, `["m",{},null]`, `["m",{},[1]]`,
	``, `null`, `[]`, `["m"]`, `{}`, `["m",[]]`, `["m",{"T":[]}]`, `["m",{"T":{"u":[]}}]`, `["m",{"T":{"u":{"old":[]}}}]`, `["m",{"T":{"u":{"new":1}}}]`, `["m",{}`, `["m",{}]]`, `[tru,{}]`, `["m",{},tru]`,
}

func TestWireDifferential(t *testing.T) {
	for _, s := range transactSeeds {
		checkTransact(t, []byte(s))
	}
	for _, s := range replySeeds {
		checkReply(t, []byte(s))
	}
	for _, s := range updateSeeds {
		checkUpdate(t, []byte(s))
	}
}

func FuzzTransactParams(f *testing.F) {
	for _, s := range transactSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, params []byte) { checkTransact(t, params) })
}

func FuzzTransactReply(f *testing.F) {
	for _, s := range replySeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkReply(t, data) })
}

func FuzzUpdateParams(f *testing.F) {
	for _, s := range updateSeeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, params []byte) { checkUpdate(t, params) })
}

// TestWireEncodersMatchMarshal drives every operation kind through a real
// database and holds the request, reply and value encoders to
// json.Marshal of the forms they replaced.
func TestWireEncodersMatchMarshal(t *testing.T) {
	db := newTestDB(t)
	peer := NewUUID()
	batches := [][]Operation{
		{OpInsertNamed("Port", "p", map[string]Value{"name": "p<1>", "number": int64(-7), "enabled": true,
			"trunks": NewSet(int64(3), int64(1)), "options": NewMap([2]Atom{"k\"", "v"}, [2]Atom{"a", ""}), "peer": NewSet(peer)}),
			OpInsert("Bridge", map[string]Value{"name": "br", "ports": NewSet(namedUUID("p"))})},
		{OpInsert("Port", map[string]Value{"name": "p2", "trunks": NewSet(int64(9))})},
		{OpSelect("Port"), OpSelect("Port", Cond("name", "==", "p2")), {Op: "select", Table: "Port", Columns: []string{"name", "_uuid"}}},
		{OpUpdate("Port", map[string]Value{"number": int64(5)}, Cond("name", "==", "p2")),
			OpMutate("Port", [][3]json.RawMessage{Mutation("number", "+=", int64(2))}, Cond("number", ">", int64(0)))},
		{{Op: "wait", Table: "Port", Until: "==", Timeout: 3, Columns: []string{"name"}, Rows: []map[string]any{{"name": "p2"}, {"name": "p<1>"}}}, {Op: "comment", Comment: "c"}},
		{OpDelete("Port", Cond("name", "==", "p2")), OpInsert("Port", map[string]Value{"name": "p<1>"})}, // fails: duplicate index
		{{Op: "abort"}}, {{Op: "nonsense", Table: "x"}},
	}
	for _, ops := range batches {
		want, err := oracleTransactParams("TestDB", ops)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := (transactParams{db: "TestDB", ops: ops}).AppendJSON(nil); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("transactParams.AppendJSON = %s, %v; json.Marshal: %s", got, err, want)
		}
		results := db.Transact(ops)
		out := make([]any, len(results))
		for i := range results {
			out[i] = oracleOpResultToJSON(&results[i])
		}
		want, err = json.Marshal(out)
		if err != nil {
			t.Fatal(err)
		}
		got, err := transactReply(results).AppendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("transactReply.AppendJSON = %s, %v; json.Marshal: %s", got, err, want)
		}
		checkReply(t, got)
	}
	for _, v := range []Value{int64(1), 2.5, 1e21, true, "s<", peer, namedUUID("n"), NewSet(), NewSet("one"), NewSet("b", "a"),
		NewSet(peer, ZeroUUID), NewMap(), NewMap([2]Atom{int64(1), "x"}, [2]Atom{int64(0), peer})} {
		want, err := json.Marshal(ValueToJSON(v))
		if err != nil {
			t.Fatal(err)
		}
		if got, err := appendWireValue(nil, v); err != nil || !bytes.Equal(got, want) {
			t.Errorf("appendWireValue(%v) = %s, %v; json.Marshal: %s", v, got, err, want)
		}
	}
}

// TestRenderWireMatchesMarshal registers each monitor request twice, once
// delivered as TableUpdates and once rendered to JSON, and checks that for
// every transaction of a random workload the rendered bytes are
// json.Marshal of the TableUpdates.
func TestRenderWireMatchesMarshal(t *testing.T) {
	no := false
	for name, reqs := range map[string]map[string]*MonitorRequest{
		"all columns": {"Port": {}, "Bridge": {}},
		"selected":    {"Port": {Columns: []string{"number", "name", "number", "trunks"}}},
		"no columns":  {"Port": {Columns: []string{}}},
		"no modify":   {"Port": {Columns: []string{"enabled"}, Select: &MonitorSelect{Modify: &no}}, "Bridge": {Select: &MonitorSelect{Insert: &no, Delete: &no}}},
	} {
		db := newTestDB(t)
		var mu sync.Mutex
		values, wire := map[uint64][]byte{}, map[uint64][]byte{}
		if _, _, err := db.AddMonitor(reqs, func(txn uint64, tu TableUpdates) {
			b, err := json.Marshal(tu)
			if err != nil {
				t.Error(err)
			}
			mu.Lock()
			values[txn] = b
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		if _, _, _, _, _, err := db.addMonitor(reqs, NoCursor, nil, func(txn uint64, updates []byte) {
			mu.Lock()
			wire[txn] = bytes.Clone(updates)
			mu.Unlock()
		}); err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(7))
		var names []string
		for i := 0; i < 200; i++ {
			var ops []Operation
			for n := 1 + r.Intn(3); n > 0; n-- {
				switch k := r.Intn(10); {
				case k < 4 || len(names) == 0:
					name := fmt.Sprintf("p%d-%d", i, n)
					names = append(names, name)
					ops = append(ops, OpInsert("Port", map[string]Value{"name": name, "number": int64(r.Intn(5)),
						"trunks": NewSet(int64(r.Intn(3)), int64(r.Intn(3))), "options": NewMap([2]Atom{"k", name})}))
				case k < 5:
					ops = append(ops, OpInsert("Bridge", map[string]Value{"name": fmt.Sprintf("b%d", i)}))
				case k < 8:
					ops = append(ops, OpUpdate("Port", map[string]Value{"number": int64(r.Intn(5)), "enabled": r.Intn(2) == 0},
						Cond("name", "==", names[r.Intn(len(names))])))
				default:
					j := r.Intn(len(names))
					ops = append(ops, OpDelete("Port", Cond("name", "==", names[j])))
					names = append(names[:j], names[j+1:]...)
				}
			}
			mustTransact(t, db, ops...)
		}
		// A sentinel every request set above selects (a Port insert), so
		// both monitors report it; each delivers in commit order, so once
		// both have, neither has anything still in flight.
		mustTransact(t, db, OpInsert("Port", map[string]Value{"name": "sentinel"}))
		last := db.LastTxnID()
		deadline := time.Now().Add(5 * time.Second)
		for {
			mu.Lock()
			_, a := values[last]
			_, b := wire[last]
			mu.Unlock()
			if a && b {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: sentinel txn %d seen as values: %v, rendered: %v", name, last, a, b)
			}
			time.Sleep(time.Millisecond)
		}
		mu.Lock()
		if len(values) == 0 || len(values) != len(wire) {
			t.Errorf("%s: %d updates as values, %d rendered", name, len(values), len(wire))
		}
		for txn, want := range values {
			if !bytes.Equal(wire[txn], want) {
				t.Errorf("%s: txn %d rendered %s, json.Marshal: %s", name, txn, wire[txn], want)
			}
		}
		mu.Unlock()
	}
}

// TestRenderSparseRows holds the two renderers to each other on rows the
// database itself never produces — images that lack columns — where the
// column walk, not the data, decides what is reported as changed.
func TestRenderSparseRows(t *testing.T) {
	db := newTestDB(t)
	flat := []changeRef{
		{table: "Bridge", id: "b1", new: Row{}},
		{table: "Port", id: "p1", old: Row{"name": "a"}, new: Row{"name": "a", "number": int64(1)}},
		{table: "Port", id: "p2", old: Row{"name": "b", "enabled": true}, new: Row{"name": "b"}},
		{table: "Port", id: "p3", old: Row{"name": "c"}, new: Row{"name": "c"}},
		{table: "Port", id: "p4", old: Row{"number": int64(2)}},
	}
	for name, reqs := range map[string]map[string]*MonitorRequest{
		"all columns": {"Port": {}, "Bridge": {}},
		"selected":    {"Port": {Columns: []string{"number", "name"}}},
	} {
		m, _, _, _, _, err := db.addMonitor(reqs, NoCursor, func(uint64, TableUpdates) {}, nil)
		if err != nil {
			t.Fatal(err)
		}
		tu := m.render(flat)
		want, _ := json.Marshal(tu)
		got, tables, err := m.renderWire(flat)
		if err != nil || tables != len(tu) || !bytes.Equal(got, want) {
			t.Errorf("%s: rendered %s (%d tables, %v), json.Marshal of render: %s", name, got, tables, err, want)
		}
		if _, reported := tu["Port"]["p1"]; !reported {
			t.Errorf("%s: a column only the new image has is not reported as a change: %s", name, want)
		}
		m.Cancel()
	}
}

// TestServerKeepsNoAliasIntoReadBuffer: what the server retains from a
// request (the monitor id, the rows) must not change when the next,
// larger request overwrites the connection's read buffer.
func TestServerKeepsNoAliasIntoReadBuffer(t *testing.T) {
	db := newTestDB(t)
	srv := NewServer(db)
	defer srv.Close()
	a, b := net.Pipe()
	defer b.Close()
	srv.ServeConn(a)
	peer := json.NewDecoder(b)
	send := func(method string, params ...any) {
		t.Helper()
		req, _ := json.Marshal(map[string]any{"method": method, "params": params, "id": 1})
		b.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := b.Write(req); err != nil {
			t.Fatal(err)
		}
	}
	recv := func() (m struct {
		Method string
		Params []json.RawMessage
		Error  any
	}) {
		t.Helper()
		if err := peer.Decode(&m); err != nil || m.Error != nil {
			t.Fatalf("recv: %+v, %v", m, err)
		}
		return m
	}
	send("monitor", "TestDB", []any{"first-monitor-id", 1}, map[string]any{"Port": map[string]any{"columns": []string{"name"}}})
	recv()
	send("transact", "TestDB", OpInsert("Port", map[string]Value{"name": "first-port-name"}))
	for i := 0; i < 2; i++ { // the reply and the update, in either order
		if m := recv(); m.Method == "update" && string(m.Params[0]) != `["first-monitor-id",1]` {
			t.Fatalf("update carries monitor id %s", m.Params[0])
		}
	}
	// Overwrite the buffer that held both requests, then look again.
	send("transact", "TestDB", OpInsert("Port", map[string]Value{"name": strings.Repeat("S", 2000)}))
	for i := 0; i < 2; i++ {
		if m := recv(); m.Method == "update" && string(m.Params[0]) != `["first-monitor-id",1]` {
			t.Fatalf("after a larger request, update carries monitor id %s", m.Params[0])
		}
	}
	res := mustTransact(t, db, OpSelect("Port", Cond("name", "==", "first-port-name")))
	if len(res[0].Rows) != 1 {
		t.Fatalf("the first request's row, read back after the second: %+v", res[0].Rows)
	}
}
