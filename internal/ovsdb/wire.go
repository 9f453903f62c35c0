package ovsdb

import (
	"encoding/json"
	"fmt"
	"slices"
	"strconv"

	"repro/internal/wirejson"
)

// A row has two forms: the typed Row the database stores, monitors
// deliver and clients hold, and RFC 7047 JSON bytes on the socket and in
// the WAL. This file is the one codec between them (appendWireRow and
// parseWireRow, with their value and atom parts) and the hand-written
// shapes of the messages a steady-state deployment exchanges for every
// change: the transact request and reply and the update notification.
// Decoding a row needs its table's schema; wire_test.go holds the bytes to
// json.Marshal of a boxed reference and the decoders to encoding/json.

// transactParams is the transact request's params: [db-name, op…].
type transactParams struct {
	db  string
	ops []Operation
}

func (p transactParams) AppendJSON(dst []byte) ([]byte, error) {
	dst = wirejson.AppendString(append(dst, '['), p.db)
	for i := range p.ops {
		var err error
		if dst, err = appendOperation(append(dst, ','), &p.ops[i]); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// sep appends the comma that precedes every element but the first.
func sep(dst []byte, i int) []byte {
	if i > 0 {
		dst = append(dst, ',')
	}
	return dst
}

// appendStr appends the member name (given with its punctuation) and s,
// unless s is empty.
func appendStr(dst []byte, name, s string) []byte {
	if s != "" {
		dst = wirejson.AppendString(append(dst, name...), s)
	}
	return dst
}

// appendClauses appends a where or mutations member unless it is empty.
func appendClauses(dst []byte, name string, cs [][3]json.RawMessage) (_ []byte, err error) {
	if len(cs) == 0 {
		return dst, nil
	}
	dst = append(append(dst, name...), '[')
	for i, c := range cs {
		dst = append(sep(dst, i), '[')
		for j, raw := range c {
			if dst, err = wirejson.AppendCompact(sep(dst, j), raw); err != nil {
				return dst, err
			}
		}
		dst = append(dst, ']')
	}
	return append(dst, ']'), nil
}

func appendOperation(dst []byte, op *Operation) (_ []byte, err error) {
	dst = wirejson.AppendString(append(dst, `{"op":`...), op.Op)
	dst = appendStr(dst, `,"table":`, op.Table)
	if len(op.Row) > 0 {
		if dst, _, err = appendWireRow(append(dst, `,"row":`...), op.Row, nil); err != nil {
			return dst, err
		}
	}
	if len(op.Rows) > 0 {
		if dst, err = appendWireRows(append(dst, `,"rows":`...), op.Rows); err != nil {
			return dst, err
		}
	}
	if dst, err = appendClauses(dst, `,"where":`, op.Where); err != nil {
		return dst, err
	}
	if len(op.Columns) > 0 {
		dst = append(dst, `,"columns":[`...)
		for i, c := range op.Columns {
			dst = wirejson.AppendString(sep(dst, i), c)
		}
		dst = append(dst, ']')
	}
	if dst, err = appendClauses(dst, `,"mutations":`, op.Mutations); err != nil {
		return dst, err
	}
	dst = appendStr(dst, `,"uuid-name":`, op.UUIDName)
	dst = appendStr(dst, `,"until":`, op.Until)
	if op.Timeout != 0 {
		dst = strconv.AppendInt(append(dst, `,"timeout":`...), int64(op.Timeout), 10)
	}
	dst = appendStr(dst, `,"comment":`, op.Comment)
	return append(dst, '}'), nil
}

func appendWireRows(dst []byte, rows []Row) (_ []byte, err error) {
	dst = append(dst, '[')
	for i, row := range rows {
		if dst, _, err = appendWireRow(sep(dst, i), row, nil); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// parseTransact decodes the transact params. The operations' rows and
// where and mutation clauses are params' own bytes, typed only once
// db.Transact knows the operation's table (JSON member order lets "row"
// precede "table"): they are for it to consume before the handler
// returns, not to keep.
func parseTransact(params []byte) (db string, ops []Operation, err error) {
	var d wirejson.Dec
	d.Init(params)
	if d.Null() || !d.Array() || !d.Elem() {
		return "", nil, fmt.Errorf("transact expects [db-name, op...]")
	}
	if d.String(&db); d.Err() != nil {
		return "", nil, fmt.Errorf("db-name must be a string")
	}
	for d.Elem() {
		ops = append(ops, Operation{})
		parseOperation(&d, &ops[len(ops)-1])
	}
	if err := d.End(); err != nil {
		return "", nil, fmt.Errorf("bad operation: %w", err)
	}
	return db, ops, nil
}

func parseOperation(d *wirejson.Dec, op *Operation) {
	if d.Null() || !d.Object() {
		return
	}
	for k := d.Key(); k != nil; k = d.Key() {
		switch wirejson.Field(k, "op", "table", "row", "rows", "where", "columns", "mutations", "uuid-name", "until", "timeout", "comment") {
		case 0:
			d.String(&op.Op)
		case 1:
			d.String(&op.Table)
		case 2:
			op.rowWire = d.Raw()
		case 3:
			wirejson.Slice(d, &op.rowsWire, func(d *wirejson.Dec, raw *json.RawMessage) { *raw = d.Raw() })
		case 4:
			wirejson.Slice(d, &op.Where, parseClause)
		case 5:
			wirejson.Slice(d, &op.Columns, (*wirejson.Dec).String)
		case 6:
			wirejson.Slice(d, &op.Mutations, parseClause)
		case 7:
			d.String(&op.UUIDName)
		case 8:
			d.String(&op.Until)
		case 9:
			wirejson.Int(d, &op.Timeout)
		case 10:
			d.String(&op.Comment)
		default:
			d.Skip()
		}
	}
}

// parseClause decodes a [column, op, value] triple as encoding/json
// fills a [3]json.RawMessage: missing elements nil, extra ones dropped.
func parseClause(d *wirejson.Dec, c *[3]json.RawMessage) {
	if d.Null() || !d.Array() {
		return
	}
	i := 0
	for ; d.Elem(); i++ {
		if raw := d.Raw(); i < len(c) {
			c[i] = raw
		}
	}
	for ; i < len(c); i++ {
		c[i] = nil
	}
}

// transactReply is the transact result: one object per operation, with
// meaningful zeroes kept (a count of 0 is reported, not omitted). The
// server fills results and encodes; the client decodes, typing the rows
// of result i by the table of ops[i] in schema.
type transactReply struct {
	results []OpResult
	ops     []Operation
	schema  *DatabaseSchema
}

func (rs transactReply) AppendJSON(dst []byte) (_ []byte, err error) {
	dst = append(dst, '[')
	for i := range rs.results {
		dst = sep(dst, i)
		r := &rs.results[i]
		switch {
		case r.Error != "":
			dst = append(dst, '{')
			if r.Details != "" {
				dst = wirejson.AppendString(append(dst, `"details":`...), r.Details)
				dst = append(dst, ',')
			}
			dst = wirejson.AppendString(append(dst, `"error":`...), r.Error)
		case r.UUID == "" && r.Rows == nil:
			dst = strconv.AppendInt(append(dst, `{"count":`...), int64(r.Count), 10)
		default:
			dst = append(dst, '{')
			if r.Rows != nil {
				if dst, err = appendWireRows(append(dst, `"rows":`...), r.Rows); err != nil {
					return dst, err
				}
			}
			if r.UUID != "" {
				if r.Rows != nil {
					dst = append(dst, ',')
				}
				dst = append(wirejson.AppendString(append(dst, `"uuid":["uuid",`...), string(r.UUID)), ']')
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// ParseJSON decodes the transact result on the client.
func (rs *transactReply) ParseJSON(data []byte) error {
	var d wirejson.Dec
	d.Init(data)
	i := 0
	wirejson.Slice(&d, &rs.results, func(d *wirejson.Dec, r *OpResult) {
		var ts *TableSchema
		if i < len(rs.ops) && rs.schema != nil {
			ts = rs.schema.Tables[rs.ops[i].Table]
		}
		i++
		if d.Null() || !d.Object() {
			return
		}
		for k := d.Key(); k != nil; k = d.Key() {
			switch wirejson.Field(k, "count", "uuid", "rows", "error", "details") {
			case 0:
				wirejson.Int(d, &r.Count)
			case 1:
				if !d.Null() {
					r.UUID, _ = parseWireAtom(d, "uuid").(UUID)
				}
			case 2:
				if ts == nil {
					d.Skip() // rows of no select this client sent
					break
				}
				wirejson.Slice(d, &r.Rows, func(d *wirejson.Dec, row *Row) { *row = parseWireRow(d, ts, false) })
			case 3:
				d.String(&r.Error)
			case 4:
				d.String(&r.Details)
			default:
				d.Skip()
			}
		}
	})
	if err := d.End(); err != nil {
		return fmt.Errorf("ovsdb: bad transact result: %w", err)
	}
	return nil
}

// updateParams is the update notification's params: [monitor-id,
// table-updates, txn], the first two already rendered.
type updateParams struct {
	id, updates []byte
	txn         uint64
}

func (p updateParams) AppendJSON(dst []byte) ([]byte, error) {
	dst = append(append(append(dst, '['), p.id...), ',')
	dst = append(append(dst, p.updates...), ',')
	return append(strconv.AppendUint(dst, p.txn, 10), ']'), nil
}

// parseUpdate decodes the update notification's params, typing the rows
// by the schema schemaOf gives for the monitor id (nil, for an id not
// registered, skips them). id aliases params; nothing else does. A
// missing or malformed txn is 0.
func parseUpdate(params []byte, schemaOf func(id []byte) *DatabaseSchema) (id []byte, tu TableUpdates, txn uint64, err error) {
	var d wirejson.Dec
	d.Init(params)
	n := 0
	if !d.Null() && d.Array() {
		for ; d.Elem(); n++ {
			switch n {
			case 0:
				id = d.Raw()
			case 1:
				if schema := schemaOf(id); schema != nil {
					tu = parseTableUpdates(&d, schema)
				} else {
					d.Skip()
				}
			case 2:
				var num wirejson.Dec
				num.Init(d.Raw())
				if wirejson.Uint(&num, &txn); num.End() != nil {
					txn = 0
				}
			default:
				d.Skip()
			}
		}
	}
	if d.Err() == nil && n < 2 {
		return nil, nil, 0, fmt.Errorf("update expects [id, updates]")
	}
	return id, tu, txn, d.End()
}

// parseTableUpdates decodes a table-updates object (an update's, or a
// monitor reply's); null is nil. A table the schema lacks is skipped, as
// its columns would be.
func parseTableUpdates(d *wirejson.Dec, schema *DatabaseSchema) TableUpdates {
	if d.Null() || !d.Object() {
		return nil
	}
	tu := make(TableUpdates)
	for k := d.Key(); k != nil; k = d.Key() {
		table := string(k)
		ts := schema.Tables[table]
		if ts == nil {
			d.Skip()
			continue
		}
		var rows TableUpdate
		if !d.Null() && d.Object() {
			rows = make(TableUpdate)
			for k := d.Key(); k != nil; k = d.Key() {
				uuid := string(k)
				var ru RowUpdate
				if !d.Null() && d.Object() {
					for k := d.Key(); k != nil; k = d.Key() {
						switch wirejson.Field(k, "old", "new") {
						case 0:
							ru.Old = parseWireRow(d, ts, false)
						case 1:
							ru.New = parseWireRow(d, ts, false)
						default:
							d.Skip()
						}
					}
				}
				rows[uuid] = ru
			}
		}
		tu[table] = rows
	}
	return tu
}

// monitorReply decodes a monitor call's result: the initial table
// updates, or for a call with a cursor [found, last-txn, gap-or-initial].
type monitorReply struct {
	schema *DatabaseSchema
	cursor bool

	found   bool
	lastTxn uint64
	initial TableUpdates
	gap     []GapUpdate
}

func (r *monitorReply) ParseJSON(data []byte) error {
	var d wirejson.Dec
	d.Init(data)
	if r.cursor {
		// Read by position: a missing element fails the reply.
		d.Array()
		nextElem(&d)
		d.Bool(&r.found)
		nextElem(&d)
		wirejson.Uint(&d, &r.lastTxn)
		nextElem(&d)
	}
	if r.found {
		wirejson.Slice(&d, &r.gap, func(d *wirejson.Dec, g *GapUpdate) {
			if d.Null() || !d.Object() {
				return
			}
			for k := d.Key(); k != nil; k = d.Key() {
				switch wirejson.Field(k, "txn", "updates") {
				case 0:
					wirejson.Uint(d, &g.Txn)
				case 1:
					g.Updates = parseTableUpdates(d, r.schema)
				default:
					d.Skip()
				}
			}
		})
	} else {
		r.initial = parseTableUpdates(&d, r.schema)
	}
	if r.cursor {
		endArray(&d)
	}
	if err := d.End(); err != nil {
		return fmt.Errorf("ovsdb: bad monitor reply: %w", err)
	}
	return nil
}

// appendWireValue appends v's RFC 7047 JSON form: an atom, ["set",[…]]
// (a singleton set as its bare atom) or ["map",[[k,v]…]].
func appendWireValue(dst []byte, v Value) ([]byte, error) {
	switch v := v.(type) {
	case *Set:
		if len(v.Atoms) == 1 {
			return appendWireAtom(dst, v.Atoms[0])
		}
		dst = append(dst, `["set",[`...)
		for i, a := range v.Atoms {
			var err error
			if dst, err = appendWireAtom(sep(dst, i), a); err != nil {
				return dst, err
			}
		}
		return append(dst, "]]"...), nil
	case *Map:
		dst = append(dst, `["map",[`...)
		for i, p := range v.Pairs {
			var err error
			if dst, err = appendWireAtom(append(sep(dst, i), '['), p[0]); err != nil {
				return dst, err
			}
			if dst, err = appendWireAtom(append(dst, ','), p[1]); err != nil {
				return dst, err
			}
			dst = append(dst, ']')
		}
		return append(dst, "]]"...), nil
	}
	return appendWireAtom(dst, v)
}

// appendWireAtom appends an atom; the only one JSON cannot carry is a
// non-finite real.
func appendWireAtom(dst []byte, a Atom) ([]byte, error) {
	switch a := a.(type) {
	case string:
		return wirejson.AppendString(dst, a), nil
	case int64:
		return strconv.AppendInt(dst, a, 10), nil
	case bool:
		return strconv.AppendBool(dst, a), nil
	case float64:
		return wirejson.AppendFloat(dst, a)
	case UUID:
		return append(wirejson.AppendString(append(dst, `["uuid",`...), string(a)), ']'), nil
	case namedUUID:
		return append(wirejson.AppendString(append(dst, `["named-uuid",`...), string(a)), ']'), nil
	}
	return dst, fmt.Errorf("ovsdb: %v (%T) is not an atom", a, a)
}

// appendWireRow appends the columns of row named in cols (sorted; nil
// for all of them) as a JSON object and reports how many it wrote. A nil
// row is null.
func appendWireRow(dst []byte, row Row, cols []string) (_ []byte, n int, err error) {
	if row == nil {
		return append(dst, "null"...), 0, nil
	}
	if cols == nil {
		var stack [16]string
		cols = stack[:0]
		for col := range row {
			cols = append(cols, col)
		}
		slices.Sort(cols)
	}
	dst = append(dst, '{')
	for _, col := range cols {
		v, ok := row[col]
		if !ok {
			continue
		}
		if n++; n > 1 {
			dst = append(dst, ',')
		}
		dst = append(wirejson.AppendString(dst, col), ':')
		if dst, err = appendWireValue(dst, v); err != nil {
			return dst, n, err
		}
	}
	return append(dst, '}'), n, nil
}

// MarshalJSON renders the row in wire form, so whatever still goes
// through encoding/json (a monitor's first reply, debug output) reads the
// same as the hand-encoded messages.
func (r Row) MarshalJSON() ([]byte, error) {
	b, _, err := appendWireRow(nil, r, nil)
	return b, err
}

// MarshalJSON renders the set in wire form (a schema's enum).
func (s *Set) MarshalJSON() ([]byte, error) { return appendWireValue(nil, s) }

// uuidType types the _uuid pseudo-column.
var uuidType = ColumnType{Key: BaseType{Type: "uuid"}, Min: 1, Max: 1}

// parseWireRow decodes a JSON object as a row of ts; null is the nil row.
// strict is the server reading what a client wants written: every column
// must be the table's and hold a value its type admits. Otherwise it is a
// row some server rendered (an update, a select result, a WAL image):
// _uuid is read as a UUID and any other column ts lacks is skipped.
func parseWireRow(d *wirejson.Dec, ts *TableSchema, strict bool) Row {
	if d.Null() || !d.Object() {
		return nil
	}
	row := make(Row, len(ts.Columns))
	for k := d.Key(); k != nil; k = d.Key() {
		col := string(k)
		ct := &uuidType
		if cs := ts.Columns[col]; cs != nil {
			ct = &cs.Type
		} else if strict {
			d.Fail("unknown column %q", col)
			return nil
		} else if col != "_uuid" {
			d.Skip()
			continue
		}
		v := parseWireValue(d, ct)
		if strict && d.Err() == nil {
			if err := ct.CheckValue(v); err != nil {
				d.Fail("column %q: %v", col, err)
			}
		}
		row[col] = v
	}
	return row
}

// parseWireValue decodes a column value of type ct from its RFC 7047
// form into the form a column of that type stores (see normal). Integers
// are read exactly: a fraction or an exponent in one is an error. A
// missing element fails the decode (nextElem).
func parseWireValue(d *wirejson.Dec, ct *ColumnType) Value {
	var atom Atom
	if d.Kind() != '[' {
		atom = parseWireAtom(d, ct.Key.Type)
	} else {
		d.Array()
		nextElem(d)
		switch tag, _ := d.StringBytes(); string(tag) {
		case "set", "map":
			isMap := tag[0] == 'm'
			if isMap != ct.IsMap() {
				d.Fail("%s value for a column that holds none", tag)
				return nil
			}
			var atoms []Atom // a map's keys and values alternate
			if nextElem(d); d.Array() {
				for d.Elem() {
					if isMap {
						d.Array()
						nextElem(d)
						atoms = append(atoms, parseWireAtom(d, ct.Key.Type))
						nextElem(d)
						atoms = append(atoms, parseWireAtom(d, ct.Value.Type))
						endArray(d)
					} else {
						atoms = append(atoms, parseWireAtom(d, ct.Key.Type))
					}
				}
			}
			endArray(d)
			switch {
			case d.Err() != nil:
				return nil
			case isMap:
				pairs := make([][2]Atom, len(atoms)/2)
				for i := range pairs {
					pairs[i] = [2]Atom{atoms[2*i], atoms[2*i+1]}
				}
				return NewMap(pairs...)
			case len(atoms) == 0:
				return defaultEmptySet // shared: values are copy-on-write
			}
			return ct.normal(NewSet(atoms...))
		default:
			atom = parseUUIDRest(d, string(tag), ct.Key.Type)
		}
	}
	// A bare atom stands for itself or for the singleton set; a map
	// column has no atoms.
	if ct.IsMap() {
		d.Fail("atom given for map column")
	}
	if d.Err() != nil {
		return nil
	}
	return ct.normal(atom)
}

// decodeWireValue decodes a whole JSON text as a value of type ct (no
// value to speak of when it reports an error).
func decodeWireValue(raw []byte, ct *ColumnType) (Value, error) {
	var d wirejson.Dec
	d.Init(raw)
	v := parseWireValue(&d, ct)
	return v, d.End()
}

// decodeWireRow decodes a whole JSON text as a row of ts, likewise.
func decodeWireRow(raw []byte, ts *TableSchema, strict bool) (Row, error) {
	var d wirejson.Dec
	d.Init(raw)
	row := parseWireRow(&d, ts, strict)
	return row, d.End()
}

// nextElem moves to an array element that has to come next.
func nextElem(d *wirejson.Dec) {
	if !d.Elem() {
		d.Fail("missing element")
	}
}

// endArray consumes the ']' that has to come next.
func endArray(d *wirejson.Dec) {
	if d.Elem() {
		d.Fail("too many elements")
	}
}

// parseWireAtom decodes an atom of the given base type.
func parseWireAtom(d *wirejson.Dec, base string) Atom {
	k := d.Kind()
	number := k == '-' || '0' <= k && k <= '9'
	switch {
	case base == "integer" && number:
		i, err := strconv.ParseInt(string(d.Raw()), 10, 64) // exact, or not an integer
		if err != nil {
			d.Fail("%v", err)
		}
		return i
	case base == "real" && number:
		f, err := strconv.ParseFloat(string(d.Raw()), 64)
		if err != nil {
			d.Fail("%v", err)
		}
		return f
	case base == "boolean" && (k == 't' || k == 'f'):
		var b bool
		d.Bool(&b)
		return b
	case base == "string" && k == '"':
		var s string
		d.String(&s)
		return s
	case k == '[':
		d.Array()
		if d.Elem() { // "[]" is no atom
			tag, _ := d.StringBytes()
			return parseUUIDRest(d, string(tag), base)
		}
	}
	d.Fail("value is not a valid %s", base)
	return nil
}

// parseUUIDRest decodes the rest of a ["uuid", id] or ["named-uuid", id]
// pair whose tag has been read, as an atom of the given base type.
func parseUUIDRest(d *wirejson.Dec, tag, base string) Atom {
	var id string
	if nextElem(d); base != "uuid" || tag != "uuid" && tag != "named-uuid" || d.Kind() != '"' {
		d.Fail("value is not a valid %s", base)
		return nil
	}
	d.String(&id)
	endArray(d)
	if tag == "named-uuid" {
		return namedUUID(id)
	}
	return UUID(id)
}
