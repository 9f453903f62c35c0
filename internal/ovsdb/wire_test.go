package ovsdb

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"
)

// wireSchema types the rows of the differential and fuzz tests: the
// tables of testSchema and of snvs (whose traffic the committed corpora
// hold) in one, T for the seeds' junk, and Every with one column per kind
// of value.
var wireSchema = func() *DatabaseSchema {
	schema, err := ParseSchema([]byte(`{"name": "wire", "tables": {
	  "Port": {"columns": {
	    "name": {"type": "string"}, "number": {"type": "integer"}, "enabled": {"type": "boolean"},
	    "trunks": {"type": {"key": "integer", "min": 0, "max": "unlimited"}},
	    "options": {"type": {"key": "string", "value": "string", "min": 0, "max": "unlimited"}},
	    "peer": {"type": {"key": "uuid", "min": 0, "max": 1}},
	    "port_num": {"type": "integer"}, "tag": {"type": "integer"},
	    "vlan_mode": {"type": {"key": {"type": "string", "enum": ["set", ["access", "trunk"]]}}}}},
	  "Bridge": {"columns": {"name": {"type": "string"}, "ports": {"type": {"key": "uuid", "min": 0, "max": "unlimited"}}}},
	  "SwitchCfg": {"columns": {"name": {"type": "string"}, "flood_unknown": {"type": "boolean"}}},
	  "T": {"columns": {"a": {"type": "integer"}, "b": {"type": "integer"}, "x": {"type": "integer"}, "y": {"type": "integer"}, "z": {"type": "integer"}}},
	  "Every": {"columns": {
	    "i": {"type": "integer"}, "r": {"type": "real"}, "b": {"type": "boolean"}, "s": {"type": "string"}, "u": {"type": "uuid"},
	    "oi": {"type": {"key": "integer", "min": 0, "max": 1}}, "or": {"type": {"key": "real", "min": 0, "max": 1}},
	    "os": {"type": {"key": "string", "min": 0, "max": 1}}, "ou": {"type": {"key": "uuid", "min": 0, "max": 1}},
	    "si": {"type": {"key": "integer", "min": 0, "max": "unlimited"}}, "sr": {"type": {"key": "real", "min": 0, "max": 3}},
	    "ss": {"type": {"key": "string", "min": 1, "max": "unlimited"}}, "su": {"type": {"key": "uuid", "min": 0, "max": "unlimited"}},
	    "sb": {"type": {"key": "boolean", "min": 0, "max": 2}},
	    "mss": {"type": {"key": "string", "value": "string", "min": 0, "max": "unlimited"}},
	    "mis": {"type": {"key": "integer", "value": "string", "min": 0, "max": "unlimited"}},
	    "msu": {"type": {"key": "string", "value": "uuid", "min": 0, "max": 2}},
	    "mur": {"type": {"key": "uuid", "value": "real", "min": 0, "max": "unlimited"}},
	    "e": {"type": {"key": {"type": "string", "enum": ["set", ["red", "green"]]}}},
	    "ei": {"type": {"key": {"type": "integer", "enum": ["set", [1, 2, 3]]}, "min": 0, "max": "unlimited"}},
	    "e1": {"type": {"key": {"type": "string", "enum": "only"}, "min": 0, "max": 1}}}}}}`))
	if err != nil {
		panic(err)
	}
	return schema
}()

// The boxed reference: a row as encoding/json decodes it (numbers as
// json.Number) or marshals it, and the converters between that form and
// typed values that the wire path went through before it had the typed
// codec. The codec's bytes are held to json.Marshal of refRowToJSON, and
// what it accepts to refRowFromJSON.

func refAtomToJSON(a Atom) any {
	switch v := a.(type) {
	case UUID:
		return []any{"uuid", string(v)}
	case namedUUID:
		return []any{"named-uuid", string(v)}
	}
	return a
}

func refValueToJSON(v Value) any {
	switch v := v.(type) {
	case *Set:
		if len(v.Atoms) == 1 {
			return refAtomToJSON(v.Atoms[0])
		}
		elems := make([]any, len(v.Atoms))
		for i, a := range v.Atoms {
			elems[i] = refAtomToJSON(a)
		}
		return []any{"set", elems}
	case *Map:
		pairs := make([]any, len(v.Pairs))
		for i, p := range v.Pairs {
			pairs[i] = []any{refAtomToJSON(p[0]), refAtomToJSON(p[1])}
		}
		return []any{"map", pairs}
	}
	return refAtomToJSON(v)
}

func refRowToJSON(row Row) map[string]any {
	if row == nil {
		return nil
	}
	out := make(map[string]any, len(row))
	for col, v := range row {
		out[col] = refValueToJSON(v)
	}
	return out
}

func refRowsToJSON(rows []Row) []map[string]any {
	if rows == nil {
		return nil
	}
	out := make([]map[string]any, len(rows))
	for i, row := range rows {
		out[i] = refRowToJSON(row)
	}
	return out
}

func refAtomFromJSON(raw any, base string) (Atom, error) {
	switch n := raw.(type) {
	case json.Number:
		switch base {
		case "integer":
			// Exactly an integer: json.Number.Int64 would read "1e3" as an error
			// but "1.0" too, which is what the codec is asked to do.
			if i, err := n.Int64(); err == nil {
				return i, nil
			}
		case "real":
			if f, err := n.Float64(); err == nil {
				return f, nil
			}
		}
	case bool:
		if base == "boolean" {
			return n, nil
		}
	case string:
		if base == "string" {
			return n, nil
		}
	case []any:
		if len(n) == 2 && base == "uuid" {
			tag, _ := n[0].(string)
			if id, ok := n[1].(string); ok && tag == "uuid" {
				return UUID(id), nil
			} else if ok && tag == "named-uuid" {
				return namedUUID(id), nil
			}
		}
	}
	return nil, fmt.Errorf("JSON value %v is not a valid %s", raw, base)
}

func refValueFromJSON(raw any, ct *ColumnType) (Value, error) {
	if arr, ok := raw.([]any); ok && len(arr) >= 1 {
		if tag, _ := arr[0].(string); tag == "set" || tag == "map" {
			if len(arr) != 2 {
				return nil, fmt.Errorf("malformed %s", tag)
			}
			elems, ok := arr[1].([]any)
			if !ok {
				return nil, fmt.Errorf("malformed %s payload", tag)
			}
			if tag == "set" {
				if ct.Value != nil {
					return nil, fmt.Errorf("set value for map column")
				}
				atoms := make([]Atom, 0, len(elems))
				for _, e := range elems {
					a, err := refAtomFromJSON(e, ct.Key.Type)
					if err != nil {
						return nil, err
					}
					atoms = append(atoms, a)
				}
				return ct.normal(NewSet(atoms...)), nil
			}
			if ct.Value == nil {
				return nil, fmt.Errorf("map value for non-map column")
			}
			pairs := make([][2]Atom, 0, len(elems))
			for _, e := range elems {
				kv, ok := e.([]any)
				if !ok || len(kv) != 2 {
					return nil, fmt.Errorf("malformed map pair %v", e)
				}
				k, err := refAtomFromJSON(kv[0], ct.Key.Type)
				if err != nil {
					return nil, err
				}
				v, err := refAtomFromJSON(kv[1], ct.Value.Type)
				if err != nil {
					return nil, err
				}
				pairs = append(pairs, [2]Atom{k, v})
			}
			return NewMap(pairs...), nil
		}
	}
	atom, err := refAtomFromJSON(raw, ct.Key.Type)
	if err != nil {
		return nil, err
	}
	if ct.Value != nil {
		return nil, fmt.Errorf("atom given for map column")
	}
	return ct.normal(atom), nil
}

// refRowFromJSON is parseWireRow over the boxed form: strict as the
// server reads a client's row, otherwise as anyone reads a server's.
func refRowFromJSON(ts *TableSchema, obj map[string]any, strict bool) (Row, error) {
	if obj == nil {
		return nil, nil
	}
	row := make(Row, len(obj))
	for col, rv := range obj {
		ct := &uuidType
		if cs := ts.Columns[col]; cs != nil {
			ct = &cs.Type
		} else if strict {
			return nil, fmt.Errorf("unknown column %q", col)
		} else if col != "_uuid" {
			continue
		}
		v, err := refValueFromJSON(rv, ct)
		if err == nil && strict {
			err = ct.CheckValue(v)
		}
		if err != nil {
			return nil, fmt.Errorf("column %q: %w", col, err)
		}
		row[col] = v
	}
	return row, nil
}

// decodeBoxed decodes one JSON text the way the wire path used to: into
// an empty interface, numbers as json.Number.
func decodeBoxed(text []byte, into any) error {
	if !json.Valid(text) {
		return fmt.Errorf("not one JSON text")
	}
	dec := json.NewDecoder(bytes.NewReader(text))
	dec.UseNumber()
	return dec.Decode(into)
}

// refParseRow is the reference for parseWireRow over one JSON text.
func refParseRow(ts *TableSchema, text []byte, strict bool) (Row, error) {
	var obj map[string]any
	if err := decodeBoxed(text, &obj); err != nil {
		return nil, err
	}
	return refRowFromJSON(ts, obj, strict)
}

// hasDuplicateKeys reports whether some object in text names a member
// twice, or twice up to case. encoding/json resolves those by merging
// and folding (and so never types the value a later one replaces); the
// typed decoders read every member and let the last one stand. The
// differential checks hold the two to each other on every other text.
func hasDuplicateKeys(text []byte) bool {
	dec := json.NewDecoder(bytes.NewReader(text))
	dec.UseNumber() // or a number beyond float64 ends the walk early
	type frame struct {
		keys  map[string]bool // nil for an array
		onKey bool
	}
	var stack []frame
	for {
		tok, err := dec.Token()
		if err != nil {
			return false
		}
		top := len(stack) - 1
		if delim, ok := tok.(json.Delim); ok {
			switch delim {
			case '{':
				stack = append(stack, frame{keys: map[string]bool{}, onKey: true})
				continue
			case '[':
				stack = append(stack, frame{})
				continue
			}
			stack = stack[:top]
			top--
		} else if top >= 0 && stack[top].onKey {
			k := strings.ToLower(tok.(string))
			if stack[top].keys[k] {
				return true
			}
			stack[top].keys[k] = true
			stack[top].onKey = false
			continue
		}
		if top >= 0 && stack[top].keys != nil {
			stack[top].onKey = true // a member's value just ended
		}
	}
}

// refOperation is Operation as encoding/json reads it off the wire: the
// rows as the bytes parseTransact keeps until the table types them.
type refOperation struct {
	Op        string               `json:"op"`
	Table     string               `json:"table,omitempty"`
	Row       json.RawMessage      `json:"row,omitempty"`
	Rows      []json.RawMessage    `json:"rows,omitempty"`
	Where     [][3]json.RawMessage `json:"where,omitempty"`
	Columns   []string             `json:"columns,omitempty"`
	Mutations [][3]json.RawMessage `json:"mutations,omitempty"`
	UUIDName  string               `json:"uuid-name,omitempty"`
	Until     string               `json:"until,omitempty"`
	Timeout   int                  `json:"timeout,omitempty"`
	Comment   string               `json:"comment,omitempty"`
}

// boxedOperation is Operation as the wire path used to marshal it.
type boxedOperation struct {
	Op        string               `json:"op"`
	Table     string               `json:"table,omitempty"`
	Row       map[string]any       `json:"row,omitempty"`
	Rows      []map[string]any     `json:"rows,omitempty"`
	Where     [][3]json.RawMessage `json:"where,omitempty"`
	Columns   []string             `json:"columns,omitempty"`
	Mutations [][3]json.RawMessage `json:"mutations,omitempty"`
	UUIDName  string               `json:"uuid-name,omitempty"`
	Until     string               `json:"until,omitempty"`
	Timeout   int                  `json:"timeout,omitempty"`
	Comment   string               `json:"comment,omitempty"`
}

func boxOperation(op *Operation) boxedOperation {
	return boxedOperation{op.Op, op.Table, refRowToJSON(op.Row), refRowsToJSON(op.Rows), op.Where, op.Columns,
		op.Mutations, op.UUIDName, op.Until, op.Timeout, op.Comment}
}

func oracleTransact(params []byte) (db string, ops []refOperation, err error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(params, &raw); err != nil || len(raw) < 1 {
		return "", nil, fmt.Errorf("transact expects [db-name, op...]")
	}
	if err := json.Unmarshal(raw[0], &db); err != nil {
		return "", nil, err
	}
	for _, r := range raw[1:] {
		var op refOperation
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
		params = append(params, boxOperation(&ops[i]))
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
	if r.UUID != "" {
		m["uuid"] = refAtomToJSON(r.UUID)
	}
	if r.Rows != nil {
		m["rows"] = refRowsToJSON(r.Rows)
	}
	if r.UUID == "" && r.Rows == nil {
		m["count"] = r.Count
	}
	return m
}

// replyOps is what checkReply decodes a reply as the reply to: selects
// on Port, so the rows of every result (up to that many) are Port's.
var replyOps = func() []Operation {
	ops := make([]Operation, 16)
	for i := range ops {
		ops[i] = OpSelect("Port")
	}
	return ops
}()

func oracleReply(data []byte) ([]OpResult, error) {
	var raw []json.RawMessage
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, err
	}
	results := make([]OpResult, len(raw))
	for i, r := range raw {
		var m struct {
			Count   *int            `json:"count"`
			UUID    json.RawMessage `json:"uuid"`
			Rows    json.RawMessage `json:"rows"`
			Error   string          `json:"error"`
			Details string          `json:"details"`
		}
		if err := json.Unmarshal(r, &m); err != nil {
			return nil, err
		}
		results[i] = OpResult{Error: m.Error, Details: m.Details}
		if m.Count != nil {
			results[i].Count = *m.Count
		}
		if m.UUID != nil && string(m.UUID) != "null" {
			var boxed any
			if err := decodeBoxed(m.UUID, &boxed); err != nil {
				return nil, err
			}
			id, err := refAtomFromJSON(boxed, "uuid")
			if err != nil {
				return nil, err
			}
			results[i].UUID, _ = id.(UUID)
		}
		if m.Rows != nil && i < len(replyOps) {
			var boxed []map[string]any
			if err := decodeBoxed(m.Rows, &boxed); err != nil {
				return nil, err
			}
			if boxed != nil {
				results[i].Rows = make([]Row, len(boxed))
			}
			for j, obj := range boxed {
				var err error
				if results[i].Rows[j], err = refRowFromJSON(wireSchema.Tables["Port"], obj, false); err != nil {
					return nil, err
				}
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
	var tables map[string]json.RawMessage
	if err := json.Unmarshal(raw[1], &tables); err != nil {
		return "", nil, 0, err
	}
	if tables != nil {
		tu = make(TableUpdates)
	}
	for table, text := range tables {
		ts := wireSchema.Tables[table]
		if ts == nil {
			continue // skipped unread, as a column the schema lacks would be
		}
		var rows map[string]struct {
			Old map[string]any `json:"old"`
			New map[string]any `json:"new"`
		}
		if err := decodeBoxed(text, &rows); err != nil {
			return "", nil, 0, err
		}
		var typed TableUpdate
		if rows != nil {
			typed = make(TableUpdate)
		}
		for uuid, ru := range rows {
			var t RowUpdate
			if t.Old, err = refRowFromJSON(ts, ru.Old, false); err != nil {
				return "", nil, 0, err
			}
			if t.New, err = refRowFromJSON(ts, ru.New, false); err != nil {
				return "", nil, 0, err
			}
			typed[uuid] = t
		}
		tu[table] = typed
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
	gotRef := make([]refOperation, len(got))
	for i, op := range got {
		gotRef[i] = refOperation{op.Op, op.Table, op.rowWire, op.rowsWire, op.Where, op.Columns,
			op.Mutations, op.UUIDName, op.Until, op.Timeout, op.Comment}
	}
	if db != wantDB || len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(gotRef, want) {
		t.Fatalf("parseTransact(%q) = %q %+v, encoding/json: %q %+v", params, db, gotRef, wantDB, want)
	}
	// Type the rows as db.Transact would; where they all type, the typed
	// operations encode to what json.Marshal makes of the boxed ones.
	typed := make([]Operation, len(got))
	for i, op := range got {
		ts := wireSchema.Tables[op.Table]
		if ts == nil {
			return
		}
		typed[i] = op
		typed[i].rowWire, typed[i].rowsWire = nil, nil
		wires := op.rowsWire
		if op.rowWire != nil {
			wires = append(wires[:len(wires):len(wires)], op.rowWire)
		}
		for j, wire := range wires {
			row, err := typeRow(ts, wire, nil)
			ref, refErr := refParseRow(ts, wire, true)
			if hasDuplicateKeys(wire) {
				return
			}
			if (err != nil) != (refErr != nil) {
				t.Fatalf("typeRow(%s, %q) error = %v, reference: %v", op.Table, wire, err, refErr)
			}
			if err != nil {
				return
			}
			if ref == nil {
				ref = Row{} // "row": null inserts the defaults
			}
			if !reflect.DeepEqual(row, ref) {
				t.Fatalf("typeRow(%s, %q) = %v, reference: %v", op.Table, wire, row, ref)
			}
			if j < len(op.rowsWire) {
				typed[i].Rows = append(typed[i].Rows, row)
			} else {
				typed[i].Row = row
			}
		}
	}
	wantText, wantErr := oracleTransactParams(db, typed)
	text, err := transactParams{db: db, ops: typed}.AppendJSON(nil)
	if (err != nil) != (wantErr != nil) || err == nil && !bytes.Equal(text, wantText) {
		t.Fatalf("transactParams.AppendJSON = %s, %v; json.Marshal: %s, %v", text, err, wantText, wantErr)
	}
}

func checkReply(t *testing.T, data []byte) {
	t.Helper()
	want, wantErr := oracleReply(data)
	got := transactReply{ops: replyOps, schema: wireSchema}
	err := got.ParseJSON(data)
	if hasDuplicateKeys(data) {
		return
	}
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("ParseJSON(%q) error = %v, encoding/json: %v", data, err, wantErr)
	}
	if err == nil && (len(got.results) != len(want) || len(want) > 0 && !reflect.DeepEqual(got.results, want)) {
		t.Fatalf("ParseJSON(%q) = %+v, encoding/json: %+v", data, got.results, want)
	}
}

func checkUpdate(t *testing.T, params []byte) {
	t.Helper()
	wantID, want, wantTxn, wantErr := oracleUpdate(params)
	id, got, txn, err := parseUpdate(params, func([]byte) *DatabaseSchema { return wireSchema })
	if hasDuplicateKeys(params) {
		return
	}
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
	// Rows that do not type: the operation's error, once its table is known, not the request's.
	`["d",{"table":"T","row":[]}]`, `["d",{"row":{"a":1e999},"table":"T"}]`, `["d",{"table":"T","row":{"a":1.5},"rows":[1,{"nope":1}]}]`,
	// Refused by both.
	``, `null`, `[]`, `{}`, `[1]`, `["d",1]`, `["d",[]]`, `["d",{"op":1}]`, `["d",{"rows":{}}]`, `["d",{"where":[1]}]`, `["d",{"where":{}}]`,
	`["d",{"columns":[1]}]`, `["d",{"timeout":1.5}]`, `["d",{"timeout":"1"}]`, `["d",{"row":{"a":1e}}]`, `["d",{"op":"x"}`, `["d",{"op":"x"}]]`, `["d",{"where":[["a","b",tru]]}]`,
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
		{{Op: "wait", Table: "Port", Until: "==", Timeout: 3, Columns: []string{"name"}, Rows: []Row{{"name": "p2"}, {"name": "p<1>"}}}, {Op: "comment", Comment: "c"}},
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
		got, err := transactReply{results: results}.AppendJSON(nil)
		if err != nil || !bytes.Equal(got, want) {
			t.Fatalf("transactReply.AppendJSON = %s, %v; json.Marshal: %s", got, err, want)
		}
		checkReply(t, got)
	}
	for _, v := range []Value{int64(1), 2.5, 1e21, true, "s<", peer, namedUUID("n"), NewSet(), NewSet("one"), NewSet("b", "a"),
		NewSet(peer, ZeroUUID), NewMap(), NewMap([2]Atom{int64(1), "x"}, [2]Atom{int64(0), peer})} {
		want, err := json.Marshal(refValueToJSON(v))
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

// checkWireRow holds parseWireRow and appendWireRow to each other and to
// the boxed reference on one JSON text, read as a row of every table of
// wireSchema both strictly and not. Where the text is accepted: the reference
// accepts it as the same row; the row encodes to what json.Marshal makes
// of its boxed form; and those bytes decode to the row and encode to
// themselves again. (appendWireRow(parseWireRow(b)) is not compact(b)
// for every b: a row has many spellings — member order, 1.0 for 1,
// ["set",[x]] for x, escapes — and one canonical one, which is what the
// encoder writes and what this checks is a fixed point.)
func checkWireRow(t *testing.T, text []byte) {
	t.Helper()
	dup := hasDuplicateKeys(text)
	for table, ts := range wireSchema.Tables {
		for _, strict := range []bool{true, false} {
			row, err := decodeWireRow(text, ts, strict)
			if dup {
				continue
			}
			ref, refErr := refParseRow(ts, text, strict)
			if (err != nil) != (refErr != nil) {
				t.Fatalf("parseWireRow(%s, %q, strict %v) error = %v, reference: %v", table, text, strict, err, refErr)
			}
			if err != nil {
				continue
			}
			if !reflect.DeepEqual(row, ref) {
				t.Fatalf("parseWireRow(%s, %q, strict %v) = %#v, reference: %#v", table, text, strict, row, ref)
			}
			wire, _, err := appendWireRow(nil, row, nil)
			want, wantErr := json.Marshal(refRowToJSON(row))
			if err != nil || wantErr != nil || !bytes.Equal(wire, want) {
				t.Fatalf("appendWireRow(%v) = %s, %v; json.Marshal: %s, %v", row, wire, err, want, wantErr)
			}
			back, err := decodeWireRow(wire, ts, strict)
			if err != nil || !reflect.DeepEqual(back, row) {
				t.Fatalf("parseWireRow(%s, appendWireRow(%v) = %s) = %v, %v", table, row, wire, back, err)
			}
			if again, _, err := appendWireRow(nil, back, nil); err != nil || !bytes.Equal(again, wire) {
				t.Fatalf("%s encodes to %s the second time round (%v)", wire, again, err)
			}
		}
	}
}

var rowSeeds = []string{
	`null`, `{}`, ` { "i" : 1 } `, `{"i":-9223372036854775808,"r":-0.5,"b":true,"s":"s<é>","u":["uuid","7b1c8de2-3a52-4b6c-9f0e-5c6f7a8b9c0d"]}`,
	`{"i":9007199254740993,"r":9007199254740993,"oi":9223372036854775807}`, `{"r":1e21,"sr":["set",[1e-7,123456789.125,5]]}`, `{"r":1}`, `{"r":-0}`, `{"sr":["set",[0,-0]]}`, `{"u":[]"uuid","x"]}`, `{"su":[]"set",[]]}`, `{"u":[]}`, `{"sr":["set",[-0,1,0]]}`,
	`{"oi":["set",[]],"or":2.5,"os":"x","ou":["named-uuid","n"]}`, `{"oi":7,"os":["set",["x"]],"i":["set",[4]]}`,
	`{"si":["set",[3,1,2,1]],"ss":["set",["b","a"]],"ss":"one","su":["set",[["uuid","b"],["uuid","a"]]],"sb":["set",[true,false]]}`,
	`{"mss":["map",[["k","v"],["a",""]]],"mis":["map",[[2,"two"],[-1,"m"]]],"msu":["map",[["p",["uuid","u"]]]],"mur":["map",[[["uuid","u"],1.5]]],"mss":["map",[]]}`,
	`{"e":"red","ei":["set",[1,3]],"e1":"only","_uuid":["uuid","x"],"unknown":{"deep":[1]}}`,
	// Refused: not the column's type, not a value at all, not an integer, out of range.
	`{"i":1.5}`, `{"i":1e3}`, `{"i":1.0}`, `{"i":9223372036854775808}`, `{"i":"1"}`, `{"i":null}`, `{"i":true}`, `{"r":"1"}`, `{"r":1e999}`, `{"b":1}`, `{"s":1}`, `{"s":null}`,
	`{"u":"7b1c"}`, `{"u":["uuid"]}`, `{"u":["uuid","a","b"]}`, `{"u":["uuid",1]}`, `{"u":["other","a"]}`, `{"u":[]}`, `{"i":["uuid","a"]}`, `{"i":[1,2]}`,
	`{"si":["set"]}`, `{"si":["set",1]}`, `{"si":["set",[1],2]}`, `{"si":["set",["a"]]}`, `{"si":["map",[]]}`, `{"si":[null,[]]}`, `{"si":{}}`,
	`{"mss":["map",[["k"]]]}`, `{"mss":["map",[["k","v","w"]]]}`, `{"mss":["map",[[1,"v"]]]}`, `{"mss":["map",["k"]]}`, `{"mss":"k"}`, `{"mss":["set",["k"]]}`, `{"mss":["map"]}`,
	// Refused only by the strict reading: cardinality, enum, unknown column.
	`{"ss":["set",[]]}`, `{"sr":["set",[1,2,3,4]]}`, `{"oi":["set",[1,2]]}`, `{"i":["set",[]]}`, `{"e":"blue"}`, `{"ei":4}`, `{"msu":["map",[["a",["uuid","u"]],["b",["uuid","u"]],["c",["uuid","u"]]]]}`, `{"nope":1}`,
	``, `[]`, `1`, `{"i":1}x`, `{"i":1`, `{"i":}`,
}

func TestWireRow(t *testing.T) {
	for _, s := range rowSeeds {
		checkWireRow(t, []byte(s))
	}
}

// FuzzWireRow fuzzes checkWireRow from rowSeeds and from every row the
// transact and update seeds and committed corpora carry.
func FuzzWireRow(f *testing.F) {
	for _, s := range rowSeeds {
		f.Add([]byte(s))
	}
	messages := map[string][]string{"FuzzTransactParams": transactSeeds, "FuzzUpdateParams": updateSeeds}
	for target := range messages {
		files, err := filepath.Glob(filepath.Join("testdata", "fuzz", target, "*"))
		if err != nil || len(files) == 0 {
			f.Fatalf("no committed corpus for %s: %v", target, err)
		}
		for _, file := range files {
			// go test fuzz v1, then one line: []byte("…")
			b, err := os.ReadFile(file)
			_, lit, ok := strings.Cut(strings.TrimSpace(string(b)), "\n[]byte(")
			if err != nil || !ok {
				f.Fatalf("%s: not a one-argument corpus file (%v)", file, err)
			}
			msg, err := strconv.Unquote(strings.TrimSuffix(lit, ")"))
			if err != nil {
				f.Fatalf("%s: %v", file, err)
			}
			messages[target] = append(messages[target], msg)
		}
	}
	for _, msg := range messages["FuzzTransactParams"] {
		_, ops, _ := parseTransact([]byte(msg))
		for _, op := range ops {
			for _, row := range append(op.rowsWire, op.rowWire) {
				f.Add([]byte(row))
			}
		}
	}
	for _, msg := range messages["FuzzUpdateParams"] {
		var params []json.RawMessage
		var updates map[string]map[string]map[string]json.RawMessage
		if json.Unmarshal([]byte(msg), &params) == nil && len(params) > 1 && json.Unmarshal(params[1], &updates) == nil {
			for _, rows := range updates {
				for _, ru := range rows {
					for _, row := range ru {
						f.Add([]byte(row))
					}
				}
			}
		}
	}
	f.Fuzz(func(t *testing.T, text []byte) { checkWireRow(t, text) })
}
