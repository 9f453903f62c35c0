package ovsdb

import (
	"encoding/json"
	"math"
	"testing"

	"repro/internal/ovsdb/wal"
)

const mutSchema = `{
  "name": "Mut",
  "tables": {
    "T": {
      "columns": {
        "name": {"type": "string"},
        "count": {"type": "integer"},
        "weight": {"type": "real"},
        "nums": {"type": {"key": "integer", "min": 0, "max": "unlimited"}},
        "opts": {"type": {"key": "string", "value": "string", "min": 0, "max": "unlimited"}},
        "few": {"type": {"key": "integer", "min": 0, "max": 2}},
        "reals": {"type": {"key": "real", "min": 0, "max": "unlimited"}}
      }
    }
  }
}`

func newMutDB(t *testing.T) *Database {
	t.Helper()
	schema, err := ParseSchema([]byte(mutSchema))
	if err != nil {
		t.Fatal(err)
	}
	return NewDatabase(schema)
}

func selectOne(t *testing.T, db *Database) Row {
	t.Helper()
	res := db.Transact([]Operation{OpSelect("T")})
	if res[0].Error != "" || len(res[0].Rows) != 1 {
		t.Fatalf("select: %+v", res[0])
	}
	return res[0].Rows[0]
}

func TestMutateArithmetic(t *testing.T) {
	db := newMutDB(t)
	mustTransact(t, db, OpInsert("T", map[string]Value{
		"name": "x", "count": int64(10), "weight": 2.5,
		"nums": NewSet(int64(2), int64(4)),
	}))
	where := Cond("name", "==", "x")
	cases := []struct {
		mutator string
		arg     int64
		want    int64
	}{
		{"-=", 3, 7},
		{"*=", 4, 28},
		{"/=", 2, 14},
		{"%=", 5, 4},
	}
	for _, c := range cases {
		mustTransact(t, db, OpMutate("T", [][3]json.RawMessage{
			Mutation("count", c.mutator, c.arg),
		}, where))
		row := selectOne(t, db)
		if row["count"] != int64(c.want) && row["count"] != float64(c.want) {
			// The select path returns JSON-ready values; both encodings
			// carry the same number.
			t.Fatalf("%s: count = %v, want %d", c.mutator, row["count"], c.want)
		}
	}
	// Real column arithmetic.
	mustTransact(t, db, OpMutate("T", [][3]json.RawMessage{
		Mutation("weight", "*=", int64(2)),
	}, where))
	if row := selectOne(t, db); row["weight"] != 5.0 {
		t.Fatalf("weight = %v", row["weight"])
	}
	// Set-valued arithmetic mutates every element.
	mustTransact(t, db, OpMutate("T", [][3]json.RawMessage{
		Mutation("nums", "+=", int64(10)),
	}, where))
	res := db.Transact([]Operation{OpSelect("T", Cond("nums", "includes", NewSet(int64(12), int64(14))))})
	if len(res[0].Rows) != 1 {
		t.Fatalf("set arithmetic lost: %+v", res[0])
	}
}

func TestMutateErrors(t *testing.T) {
	db := newMutDB(t)
	mustTransact(t, db, OpInsert("T", map[string]Value{"name": "x", "count": int64(1)}))
	where := Cond("name", "==", "x")
	bad := [][3]json.RawMessage{
		Mutation("count", "/=", int64(0)),
		Mutation("count", "%=", int64(0)),
		Mutation("name", "+=", int64(1)),
		Mutation("name", "insert", "y"),
		Mutation("count", "frob", int64(1)),
		Mutation("weight", "%=", 1.0),
	}
	for i, m := range bad {
		res := db.Transact([]Operation{OpMutate("T", [][3]json.RawMessage{m}, where)})
		if res[0].Error == "" {
			t.Errorf("mutation %d succeeded", i)
		}
	}
	// Cardinality violation via insert into a max-2 set.
	res := db.Transact([]Operation{OpMutate("T", [][3]json.RawMessage{
		Mutation("few", "insert", NewSet(int64(1), int64(2), int64(3))),
	}, where)})
	if res[0].Error == "" {
		t.Errorf("cardinality violation accepted")
	}
}

func TestMapMutations(t *testing.T) {
	db := newMutDB(t)
	mustTransact(t, db, OpInsert("T", map[string]Value{
		"name": "x",
		"opts": NewMap([2]Atom{"a", "1"}, [2]Atom{"b", "2"}),
	}))
	where := Cond("name", "==", "x")
	// Map insert does not replace existing keys.
	mustTransact(t, db, OpMutate("T", [][3]json.RawMessage{
		Mutation("opts", "insert", NewMap([2]Atom{"a", "other"}, [2]Atom{"c", "3"})),
	}, where))
	res := db.Transact([]Operation{OpSelect("T",
		Cond("opts", "includes", NewMap([2]Atom{"a", "1"}, [2]Atom{"c", "3"})))})
	if len(res[0].Rows) != 1 {
		t.Fatalf("map insert semantics wrong: %+v", res[0])
	}
	// Delete by key set.
	mustTransact(t, db, OpMutate("T", [][3]json.RawMessage{
		Mutation("opts", "delete", NewSet("a")),
	}, where))
	res = db.Transact([]Operation{OpSelect("T", Cond("opts", "excludes", NewMap([2]Atom{"a", "1"})))})
	if len(res[0].Rows) != 1 {
		t.Fatalf("map key delete failed")
	}
	// Delete by exact pair only removes matching pairs.
	mustTransact(t, db, OpMutate("T", [][3]json.RawMessage{
		Mutation("opts", "delete", NewMap([2]Atom{"b", "wrong"})),
	}, where))
	res = db.Transact([]Operation{OpSelect("T", Cond("opts", "includes", NewMap([2]Atom{"b", "2"})))})
	if len(res[0].Rows) != 1 {
		t.Fatalf("pair delete removed a non-matching pair")
	}
	mustTransact(t, db, OpMutate("T", [][3]json.RawMessage{
		Mutation("opts", "delete", NewMap([2]Atom{"b", "2"})),
	}, where))
	res = db.Transact([]Operation{OpSelect("T", Cond("opts", "includes", NewMap([2]Atom{"b", "2"})))})
	if len(res[0].Rows) != 0 {
		t.Fatalf("pair delete failed")
	}
}

func TestIncludesExcludesScalars(t *testing.T) {
	db := newMutDB(t)
	mustTransact(t, db, OpInsert("T", map[string]Value{"name": "x", "count": int64(5)}))
	res := db.Transact([]Operation{OpSelect("T", Cond("count", "includes", int64(5)))})
	if len(res[0].Rows) != 1 {
		t.Fatalf("scalar includes failed")
	}
	res = db.Transact([]Operation{OpSelect("T", Cond("count", "excludes", int64(4)))})
	if len(res[0].Rows) != 1 {
		t.Fatalf("scalar excludes failed")
	}
	// Relational operators on non-numeric columns are rejected.
	res = db.Transact([]Operation{OpSelect("T", Cond("name", "<", "zzz"))})
	if res[0].Error == "" {
		t.Fatalf("relational condition on string accepted")
	}
	// Unknown operator.
	res = db.Transact([]Operation{OpSelect("T", Cond("count", "~~", int64(1)))})
	if res[0].Error == "" {
		t.Fatalf("unknown operator accepted")
	}
}

func TestDatabaseGet(t *testing.T) {
	db := newMutDB(t)
	res := mustTransact(t, db, OpInsert("T", map[string]Value{"name": "g"}))
	id := res[0].UUID
	row, ok := db.Get("T", id)
	if !ok || row["name"] != "g" {
		t.Fatalf("Get = %v, %v", row, ok)
	}
	if _, ok := db.Get("T", "nonexistent"); ok {
		t.Errorf("Get(nonexistent) succeeded")
	}
	if _, ok := db.Get("Nope", id); ok {
		t.Errorf("Get on unknown table succeeded")
	}
}

func TestSelectColumnsProjection(t *testing.T) {
	db := newMutDB(t)
	mustTransact(t, db, OpInsert("T", map[string]Value{"name": "p", "count": int64(9)}))
	res := db.Transact([]Operation{{
		Op: "select", Table: "T", Columns: []string{"name", "_uuid"},
	}})
	if res[0].Error != "" || len(res[0].Rows) != 1 {
		t.Fatalf("select: %+v", res[0])
	}
	row := res[0].Rows[0]
	if _, has := row["count"]; has {
		t.Errorf("projection leaked column: %v", row)
	}
	if _, has := row["_uuid"]; !has {
		t.Errorf("projection lost _uuid")
	}
	if row["name"] != "p" {
		t.Errorf("projection row = %v", row)
	}
}

// TestNonFiniteRealIsRangeError: a real that overflows to infinity is no
// value JSON (so the wire, so the WAL) can carry. It is refused where
// every written value is checked, as that operation's error, and the log
// stays usable.
func TestNonFiniteRealIsRangeError(t *testing.T) {
	dir := t.TempDir()
	open := func() (*Database, *wal.Log) {
		db := newMutDB(t)
		l, recovered, err := wal.Open(wal.Options{Dir: dir, Fsync: wal.FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		if err := db.Restore(recovered); err != nil {
			t.Fatal(err)
		}
		db.AttachWAL(l)
		return db, l
	}
	db, l := open()
	mustTransact(t, db, OpInsert("T", map[string]Value{"name": "x", "weight": 1e308}))
	res := db.Transact([]Operation{
		OpUpdate("T", map[string]Value{"count": int64(1)}, Cond("name", "==", "x")),
		OpMutate("T", [][3]json.RawMessage{Mutation("weight", "*=", 1e308)}, Cond("name", "==", "x")),
	})
	if res[0].Count != 1 || res[1].Error != "range error" {
		t.Fatalf("weight *= 1e308 on 1e308: %+v", res)
	}
	if row := selectOne(t, db); row["weight"] != 1e308 || row["count"] != int64(0) {
		t.Errorf("the transaction was not rolled back: %v", row)
	}
	for name, op := range map[string]Operation{
		"insert": OpInsert("T", map[string]Value{"name": "inf", "weight": math.Inf(1)}),
		"update": OpUpdate("T", map[string]Value{"weight": math.NaN()}, Cond("name", "==", "x")),
	} {
		if res := db.Transact([]Operation{op}); res[0].Error != "constraint violation" {
			t.Errorf("%s of a non-finite real: %+v", name, res[0])
		}
	}
	if !db.WALHealthy() {
		t.Fatal("the refused values killed the log")
	}
	mustTransact(t, db, OpInsert("T", map[string]Value{"name": "after"}))
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	db2, l2 := open()
	defer l2.Close()
	if n := db2.RowCount("T"); n != 2 {
		t.Errorf("%d rows recovered, want the 2 committed around the refused ones", n)
	}
}

// TestRealZeroMutateAndWait: ±0 are one real in a mutate's set insert
// and delete and in a wait's row comparison.
func TestRealZeroMutateAndWait(t *testing.T) {
	db := newMutDB(t)
	negZero := math.Copysign(0, -1)
	mustTransact(t, db, OpInsert("T", map[string]Value{
		"name": "z", "weight": negZero, "reals": NewSet(negZero, 1.5),
	}))
	where := Cond("name", "==", "z")
	res := db.Transact([]Operation{{
		Op: "wait", Table: "T", Until: "==", Where: [][3]json.RawMessage{where},
		Columns: []string{"weight", "reals"},
		Rows:    []Row{{"weight": 0.0, "reals": NewSet(1.5, 0.0)}},
	}})
	if res[0].Error != "" {
		t.Fatalf("wait for 0 on a row holding -0: %+v", res[0])
	}
	mustTransact(t, db, OpMutate("T", [][3]json.RawMessage{Mutation("reals", "insert", NewSet(0.0))}, where))
	if got := selectOne(t, db)["reals"].(*Set).Atoms; len(got) != 2 {
		t.Fatalf("inserting 0 into {-0, 1.5} gave %v", got)
	}
	mustTransact(t, db, OpMutate("T", [][3]json.RawMessage{Mutation("reals", "delete", NewSet(0.0))}, where))
	if got := selectOne(t, db)["reals"].(*Set).Atoms; len(got) != 1 || got[0] != 1.5 {
		t.Fatalf("deleting 0 from {-0, 1.5} gave %v, want [1.5]", got)
	}
}
