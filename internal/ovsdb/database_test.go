package ovsdb

import (
	"encoding/json"
	"strings"
	"testing"
)

const testSchema = `{
  "name": "TestDB",
  "version": "1.0.0",
  "tables": {
    "Port": {
      "columns": {
        "name": {"type": "string"},
        "number": {"type": "integer"},
        "enabled": {"type": "boolean"},
        "trunks": {"type": {"key": "integer", "min": 0, "max": "unlimited"}},
        "options": {"type": {"key": "string", "value": "string", "min": 0, "max": "unlimited"}},
        "peer": {"type": {"key": "uuid", "min": 0, "max": 1}}
      },
      "indexes": [["name"]],
      "isRoot": true
    },
    "Bridge": {
      "columns": {
        "name": {"type": "string"},
        "ports": {"type": {"key": "uuid", "min": 0, "max": "unlimited"}}
      },
      "isRoot": true
    }
  }
}`

func newTestDB(t *testing.T) *Database {
	t.Helper()
	schema, err := ParseSchema([]byte(testSchema))
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	return NewDatabase(schema)
}

func mustTransact(t *testing.T, db *Database, ops ...Operation) []OpResult {
	t.Helper()
	results := db.Transact(ops)
	for i, r := range results {
		if r.Error != "" {
			t.Fatalf("op %d failed: %s (%s)", i, r.Error, r.Details)
		}
	}
	return results
}

func TestParseSchemaShapes(t *testing.T) {
	db := newTestDB(t)
	ts := db.Schema().Tables["Port"]
	if ts == nil {
		t.Fatal("Port table missing")
	}
	if !ts.Columns["name"].Type.IsScalar() {
		t.Errorf("name should be scalar")
	}
	tr := ts.Columns["trunks"].Type
	if tr.IsScalar() || tr.IsMap() || tr.Max != Unlimited || tr.Min != 0 {
		t.Errorf("trunks type parsed wrong: %+v", tr)
	}
	if !ts.Columns["options"].Type.IsMap() {
		t.Errorf("options should be a map")
	}
}

func TestParseSchemaErrors(t *testing.T) {
	bad := map[string]string{
		"no name":      `{"tables":{"T":{"columns":{"c":{"type":"string"}}}}}`,
		"no columns":   `{"name":"X","tables":{"T":{"columns":{}}}}`,
		"reserved col": `{"name":"X","tables":{"T":{"columns":{"_uuid":{"type":"uuid"}}}}}`,
		"bad type":     `{"name":"X","tables":{"T":{"columns":{"c":{"type":"blob"}}}}}`,
		"bad index":    `{"name":"X","tables":{"T":{"columns":{"c":{"type":"string"}},"indexes":[["nope"]]}}}`,
		"min gt max":   `{"name":"X","tables":{"T":{"columns":{"c":{"type":{"key":"integer","min":1,"max":0}}}}}}`,
		"not json":     `{`,
	}
	for name, src := range bad {
		if _, err := ParseSchema([]byte(src)); err == nil {
			t.Errorf("%s: ParseSchema succeeded", name)
		}
	}
}

func TestInsertAndSelect(t *testing.T) {
	db := newTestDB(t)
	res := mustTransact(t, db, OpInsert("Port", map[string]Value{
		"name":    "eth0",
		"number":  int64(1),
		"enabled": true,
		"trunks":  NewSet(int64(10), int64(20)),
		"options": NewMap([2]Atom{"speed", "fast"}),
	}))
	if len(res[0].UUID) != 36 {
		t.Fatalf("insert result uuid = %v", res[0].UUID)
	}
	sel := mustTransact(t, db, OpSelect("Port", Cond("name", "==", "eth0")))
	if len(sel[0].Rows) != 1 {
		t.Fatalf("select returned %d rows", len(sel[0].Rows))
	}
	row := sel[0].Rows[0]
	if row["number"] != int64(1) && row["number"] != float64(1) {
		t.Errorf("number = %v (%T)", row["number"], row["number"])
	}
	// Defaults: unset column "peer" must be an empty set.
	if _, ok := row["peer"]; !ok {
		t.Errorf("peer default missing: %v", row)
	}
}

func TestInsertDefaultsAndUnknownColumn(t *testing.T) {
	db := newTestDB(t)
	res := db.Transact([]Operation{{Op: "insert", Table: "Port",
		Row: Row{"nope": int64(1)}}})
	if res[0].Error == "" {
		t.Fatalf("insert with unknown column succeeded")
	}
	res = db.Transact([]Operation{{Op: "insert", Table: "Port", Row: Row{}}})
	if res[0].Error != "" {
		t.Fatalf("insert with all defaults failed: %v", res[0])
	}
}

func TestIndexUniqueness(t *testing.T) {
	db := newTestDB(t)
	mustTransact(t, db, OpInsert("Port", map[string]Value{"name": "dup"}))
	res := db.Transact([]Operation{OpInsert("Port", map[string]Value{"name": "dup"})})
	if res[0].Error != "constraint violation" {
		t.Fatalf("duplicate index insert = %+v", res[0])
	}
	if db.RowCount("Port") != 1 {
		t.Errorf("row count = %d after failed insert", db.RowCount("Port"))
	}
}

func TestUpdateAndDelete(t *testing.T) {
	db := newTestDB(t)
	mustTransact(t, db,
		OpInsert("Port", map[string]Value{"name": "a", "number": int64(1)}),
		OpInsert("Port", map[string]Value{"name": "b", "number": int64(2)}),
	)
	res := mustTransact(t, db, OpUpdate("Port",
		map[string]Value{"enabled": true}, Cond("number", ">", int64(1))))
	if res[0].Count != 1 {
		t.Fatalf("update count = %d", res[0].Count)
	}
	sel := mustTransact(t, db, OpSelect("Port", Cond("enabled", "==", true)))
	if len(sel[0].Rows) != 1 || sel[0].Rows[0]["name"] != "b" {
		t.Fatalf("updated rows = %v", sel[0].Rows)
	}
	res = mustTransact(t, db, OpDelete("Port", Cond("name", "==", "a")))
	if res[0].Count != 1 || db.RowCount("Port") != 1 {
		t.Fatalf("delete count = %d, rows = %d", res[0].Count, db.RowCount("Port"))
	}
	// Delete with no where deletes everything.
	res = mustTransact(t, db, OpDelete("Port"))
	if res[0].Count != 1 || db.RowCount("Port") != 0 {
		t.Fatalf("delete all failed: %+v", res[0])
	}
}

func TestMutateSetAndMap(t *testing.T) {
	db := newTestDB(t)
	mustTransact(t, db, OpInsert("Port", map[string]Value{
		"name": "p", "number": int64(5), "trunks": NewSet(int64(1)),
	}))
	mustTransact(t, db, OpMutate("Port", [][3]json.RawMessage{
		Mutation("trunks", "insert", NewSet(int64(2), int64(3))),
		Mutation("number", "+=", int64(10)),
		Mutation("options", "insert", NewMap([2]Atom{"k", "v"})),
	}, Cond("name", "==", "p")))
	sel := mustTransact(t, db, OpSelect("Port"))
	row := sel[0].Rows[0]
	trunks, ok := row["trunks"].(*Set)
	if !ok {
		t.Fatalf("trunks = %v", row["trunks"])
	}
	if n := len(trunks.Atoms); n != 3 {
		t.Fatalf("trunks has %d elements", n)
	}
	mustTransact(t, db, OpMutate("Port", [][3]json.RawMessage{
		Mutation("trunks", "delete", NewSet(int64(2))),
	}, Cond("name", "==", "p")))
	sel = mustTransact(t, db, OpSelect("Port", Cond("trunks", "includes", NewSet(int64(2)))))
	if len(sel[0].Rows) != 0 {
		t.Fatalf("deleted trunk still present")
	}
	sel = mustTransact(t, db, OpSelect("Port", Cond("number", "==", int64(15))))
	if len(sel[0].Rows) != 1 {
		t.Fatalf("+= mutation lost")
	}
}

func TestTransactionRollback(t *testing.T) {
	db := newTestDB(t)
	mustTransact(t, db, OpInsert("Port", map[string]Value{"name": "keep", "number": int64(1)}))
	// Second op fails (duplicate index): the first op must roll back.
	res := db.Transact([]Operation{
		OpUpdate("Port", map[string]Value{"number": int64(99)}),
		OpInsert("Port", map[string]Value{"name": "keep"}),
	})
	if res[1].Error == "" {
		t.Fatalf("expected failure on duplicate insert")
	}
	sel := mustTransact(t, db, OpSelect("Port"))
	if sel[0].Rows[0]["number"] != int64(1) && sel[0].Rows[0]["number"] != float64(1) {
		t.Fatalf("update was not rolled back: %v", sel[0].Rows[0])
	}
}

func TestAbortRollsBack(t *testing.T) {
	db := newTestDB(t)
	res := db.Transact([]Operation{
		OpInsert("Port", map[string]Value{"name": "x"}),
		{Op: "abort"},
	})
	if res[1].Error != "aborted" {
		t.Fatalf("abort result = %+v", res[1])
	}
	if db.RowCount("Port") != 0 {
		t.Fatalf("abort did not roll back")
	}
}

func TestNamedUUID(t *testing.T) {
	db := newTestDB(t)
	mustTransact(t, db,
		OpInsertNamed("Port", "myport", map[string]Value{"name": "p1"}),
		Operation{Op: "insert", Table: "Bridge", Row: Row{
			"name":  "br0",
			"ports": NewSet(namedUUID("myport")),
		}},
	)
	sel := mustTransact(t, db,
		OpSelect("Port", Cond("name", "==", "p1")),
		OpSelect("Bridge"),
	)
	portUUID := sel[0].Rows[0]["_uuid"].(UUID)
	if ports := sel[1].Rows[0]["ports"]; !ValueEqual(ports, NewSet(portUUID)) {
		t.Fatalf("bridge ports = %v, want uuid %s", ports, portUUID)
	}
}

func TestWaitOp(t *testing.T) {
	db := newTestDB(t)
	mustTransact(t, db, OpInsert("Port", map[string]Value{"name": "w", "number": int64(3)}))
	// until == with matching rows succeeds.
	res := db.Transact([]Operation{{
		Op: "wait", Table: "Port", Until: "==",
		Where:   [][3]json.RawMessage{Cond("name", "==", "w")},
		Columns: []string{"number"},
		Rows:    []Row{{"number": int64(3)}},
	}})
	if res[0].Error != "" {
		t.Fatalf("wait == failed: %+v", res[0])
	}
	// until == with mismatching rows fails the transaction.
	res = db.Transact([]Operation{{
		Op: "wait", Table: "Port", Until: "==",
		Where:   [][3]json.RawMessage{Cond("name", "==", "w")},
		Columns: []string{"number"},
		Rows:    []Row{{"number": int64(4)}},
	}})
	if res[0].Error != "timed out" {
		t.Fatalf("wait mismatch = %+v", res[0])
	}
}

func TestSelectByUUIDAndRelops(t *testing.T) {
	db := newTestDB(t)
	res := mustTransact(t, db, OpInsert("Port", map[string]Value{"name": "u", "number": int64(7)}))
	id := res[0].UUID
	sel := mustTransact(t, db, OpSelect("Port", Cond("_uuid", "==", id)))
	if len(sel[0].Rows) != 1 {
		t.Fatalf("select by uuid found %d rows", len(sel[0].Rows))
	}
	sel = mustTransact(t, db, OpSelect("Port", Cond("number", "<=", int64(7)),
		Cond("number", ">", int64(6))))
	if len(sel[0].Rows) != 1 {
		t.Fatalf("relational select found %d rows", len(sel[0].Rows))
	}
}

func TestUnknownTableAndOp(t *testing.T) {
	db := newTestDB(t)
	res := db.Transact([]Operation{{Op: "insert", Table: "Nope"}})
	if res[0].Error != "unknown table" {
		t.Fatalf("unknown table = %+v", res[0])
	}
	res = db.Transact([]Operation{{Op: "frobnicate"}})
	if res[0].Error != "unknown operation" {
		t.Fatalf("unknown op = %+v", res[0])
	}
}

func TestValueWireRoundTrip(t *testing.T) {
	ct := &ColumnType{Key: BaseType{Type: "integer"}, Min: 0, Max: Unlimited}
	orig := NewSet(int64(3), int64(1), int64(2))
	back, err := decodeWireValue(wireValue(t, orig), ct)
	if err != nil {
		t.Fatalf("decodeWireValue: %v", err)
	}
	if !ValueEqual(orig, back) {
		t.Fatalf("set round trip: %v != %v", orig, back)
	}
	mct := &ColumnType{Key: BaseType{Type: "string"}, Value: &BaseType{Type: "uuid"}, Min: 0, Max: Unlimited}
	u := NewUUID()
	om := NewMap([2]Atom{"a", u})
	back, err = decodeWireValue(wireValue(t, om), mct)
	if err != nil {
		t.Fatalf("map decodeWireValue: %v", err)
	}
	if !ValueEqual(om, back) {
		t.Fatalf("map round trip: %v != %v", om, back)
	}
}

func wireValue(t *testing.T, v Value) []byte {
	t.Helper()
	b, err := appendWireValue(nil, v)
	if err != nil {
		t.Fatalf("appendWireValue: %v", err)
	}
	return b
}

func TestUUIDFormat(t *testing.T) {
	u := NewUUID()
	if len(string(u)) != 36 || strings.Count(string(u), "-") != 4 {
		t.Fatalf("UUID format: %s", u)
	}
	if NewUUID() == NewUUID() {
		t.Fatalf("UUIDs collide")
	}
}

func TestEnumConstraint(t *testing.T) {
	schema, err := ParseSchema([]byte(`{
	  "name": "E",
	  "tables": {"T": {"columns": {
	    "kind": {"type": {"key": {"type": "string", "enum": ["set", ["a", "b"]]}}}
	  }}}
	}`))
	if err != nil {
		t.Fatalf("ParseSchema: %v", err)
	}
	db := NewDatabase(schema)
	res := db.Transact([]Operation{OpInsert("T", map[string]Value{"kind": "a"})})
	if res[0].Error != "" {
		t.Fatalf("enum value rejected: %+v", res[0])
	}
	res = db.Transact([]Operation{OpInsert("T", map[string]Value{"kind": "z"})})
	if res[0].Error == "" {
		t.Fatalf("non-enum value accepted")
	}
}
