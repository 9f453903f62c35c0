package ovsdb

import (
	"encoding/json"
	"fmt"
	"strconv"

	"repro/internal/wirejson"
)

// The transact request and reply and the update notification are what a
// steady-state deployment exchanges for every change, so they are encoded
// and decoded by hand (wirejson) instead of by reflection. The bytes are
// what json.Marshal makes of the same values and the decoders accept what
// json.Unmarshal accepts: wire_test.go holds both to that.

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
		if dst, err = wirejson.AppendMap(append(dst, `,"row":`...), op.Row); err != nil {
			return dst, err
		}
	}
	if len(op.Rows) > 0 {
		if dst, err = appendRows(append(dst, `,"rows":`...), op.Rows); err != nil {
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

func appendRows(dst []byte, rows []map[string]any) (_ []byte, err error) {
	dst = append(dst, '[')
	for i, row := range rows {
		if dst, err = wirejson.AppendMap(sep(dst, i), row); err != nil {
			return dst, err
		}
	}
	return append(dst, ']'), nil
}

// parseTransact decodes the transact params. The operations' where and
// mutation clauses alias params: they are for db.Transact to consume
// before the handler returns, not to keep.
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
			d.AnyMap(&op.Row, false)
		case 3:
			wirejson.Slice(d, &op.Rows, func(d *wirejson.Dec, m *map[string]any) { d.AnyMap(m, false) })
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
// meaningful zeroes kept (a count of 0 is reported, not omitted).
type transactReply []OpResult

func (rs transactReply) AppendJSON(dst []byte) (_ []byte, err error) {
	dst = append(dst, '[')
	for i := range rs {
		dst = sep(dst, i)
		r := &rs[i]
		switch {
		case r.Error != "":
			dst = append(dst, '{')
			if r.Details != "" {
				dst = wirejson.AppendString(append(dst, `"details":`...), r.Details)
				dst = append(dst, ',')
			}
			dst = wirejson.AppendString(append(dst, `"error":`...), r.Error)
		case r.UUID == nil && r.Rows == nil:
			dst = strconv.AppendInt(append(dst, `{"count":`...), int64(r.Count), 10)
		default:
			dst = append(dst, '{')
			if r.Rows != nil {
				if dst, err = appendRows(append(dst, `"rows":`...), r.Rows); err != nil {
					return dst, err
				}
			}
			if r.UUID != nil {
				if r.Rows != nil {
					dst = append(dst, ',')
				}
				if dst, err = wirejson.AppendValue(append(dst, `"uuid":`...), r.UUID); err != nil {
					return dst, err
				}
			}
		}
		dst = append(dst, '}')
	}
	return append(dst, ']'), nil
}

// ParseJSON decodes the transact result on the client: the uuid member
// ["uuid", id] becomes a UUID, numbers in rows stay json.Number.
func (rs *transactReply) ParseJSON(data []byte) error {
	var d wirejson.Dec
	d.Init(data)
	wirejson.Slice(&d, (*[]OpResult)(rs), func(d *wirejson.Dec, r *OpResult) {
		if d.Null() || !d.Object() {
			return
		}
		var uuid []any
		for k := d.Key(); k != nil; k = d.Key() {
			switch wirejson.Field(k, "count", "uuid", "rows", "error", "details") {
			case 0:
				wirejson.Int(d, &r.Count)
			case 1:
				wirejson.Slice(d, &uuid, func(d *wirejson.Dec, v *any) { *v = d.Any(true) })
			case 2:
				wirejson.Slice(d, &r.Rows, func(d *wirejson.Dec, m *map[string]any) { d.AnyMap(m, true) })
			case 3:
				d.String(&r.Error)
			case 4:
				d.String(&r.Details)
			default:
				d.Skip()
			}
		}
		if len(uuid) == 2 {
			if s, ok := uuid[1].(string); ok {
				r.UUID = UUID(s)
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

// parseUpdate decodes the update notification's params. id aliases
// params; nothing else does. A missing or malformed txn is 0.
func parseUpdate(params []byte) (id []byte, tu TableUpdates, txn uint64, err error) {
	var d wirejson.Dec
	d.Init(params)
	n := 0
	if !d.Null() && d.Array() {
		for ; d.Elem(); n++ {
			switch n {
			case 0:
				id = d.Raw()
			case 1:
				parseTableUpdates(&d, &tu)
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

func parseTableUpdates(d *wirejson.Dec, tu *TableUpdates) {
	if d.Null() {
		*tu = nil
		return
	}
	if !d.Object() {
		return
	}
	if *tu == nil {
		*tu = make(TableUpdates)
	}
	for k := d.Key(); k != nil; k = d.Key() {
		table := string(k)
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
							d.AnyMap(&ru.Old, true)
						case 1:
							d.AnyMap(&ru.New, true)
						default:
							d.Skip()
						}
					}
				}
				rows[uuid] = ru
			}
		}
		(*tu)[table] = rows
	}
}

// appendWireValue appends v's RFC 7047 JSON form: what json.Marshal
// makes of ValueToJSON(v).
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

func appendWireAtom(dst []byte, a Atom) ([]byte, error) {
	switch a := a.(type) {
	case UUID:
		return append(wirejson.AppendString(append(dst, `["uuid",`...), string(a)), ']'), nil
	case namedUUID:
		return append(wirejson.AppendString(append(dst, `["named-uuid",`...), string(a)), ']'), nil
	}
	return wirejson.AppendValue(dst, a)
}

// appendWireRow appends the columns of row named in cols (sorted) as a
// JSON object and reports how many it wrote.
func appendWireRow(dst []byte, row Row, cols []string) (_ []byte, n int, err error) {
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
