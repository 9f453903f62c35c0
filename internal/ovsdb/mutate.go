package ovsdb

import (
	"encoding/json"
	"errors"
	"fmt"
)

// condition is a parsed where clause: [column, op, value].
type condition struct {
	column string
	op     string
	value  Value
	isUUID bool
}

func parseConditions(tx *txn, ts *TableSchema, where [][3]json.RawMessage) ([]condition, error) {
	conds := make([]condition, 0, len(where))
	for _, w := range where {
		var col, op string
		if err := json.Unmarshal(w[0], &col); err != nil {
			return nil, fmt.Errorf("bad condition column: %w", err)
		}
		if err := json.Unmarshal(w[1], &op); err != nil {
			return nil, fmt.Errorf("bad condition operator: %w", err)
		}
		ct := &uuidType
		if col != "_uuid" {
			cs := ts.Columns[col]
			if cs == nil {
				return nil, fmt.Errorf("unknown column %q in condition", col)
			}
			ct = &cs.Type
		}
		v, err := decodeWireValue(w[2], ct)
		if err != nil {
			return nil, fmt.Errorf("condition on %q: %w", col, err)
		}
		// Resolve named UUIDs in conditions (same-transaction references).
		if tx != nil {
			v = resolveValueNamed(tx, v)
		}
		conds = append(conds, condition{column: col, op: op, value: v, isUUID: col == "_uuid"})
	}
	return conds, nil
}

func resolveValueNamed(tx *txn, v Value) Value {
	resolve := func(a Atom) Atom {
		if n, ok := a.(namedUUID); ok {
			if real, found := tx.named[string(n)]; found {
				return real
			}
		}
		return a
	}
	switch v := v.(type) {
	case *Set:
		atoms := make([]Atom, len(v.Atoms))
		for i, a := range v.Atoms {
			atoms[i] = resolve(a)
		}
		return NewSet(atoms...)
	case *Map:
		pairs := make([][2]Atom, len(v.Pairs))
		for i, p := range v.Pairs {
			pairs[i] = [2]Atom{resolve(p[0]), resolve(p[1])}
		}
		return NewMap(pairs...)
	default:
		return resolve(v)
	}
}

func (c *condition) matches(id UUID, row Row) (bool, error) {
	var actual Value
	if c.isUUID {
		actual = id
	} else {
		actual = row[c.column]
	}
	switch c.op {
	case "==":
		return ValueEqual(actual, normalizeScalarSet(actual, c.value)), nil
	case "!=":
		return !ValueEqual(actual, normalizeScalarSet(actual, c.value)), nil
	case "<", "<=", ">", ">=":
		av, aok := numeric(actual)
		bv, bok := numeric(c.value)
		if !aok || !bok {
			return false, fmt.Errorf("relational condition on non-numeric column %q", c.column)
		}
		switch c.op {
		case "<":
			return av < bv, nil
		case "<=":
			return av <= bv, nil
		case ">":
			return av > bv, nil
		default:
			return av >= bv, nil
		}
	case "includes":
		return includes(actual, c.value), nil
	case "excludes":
		return !includes(actual, c.value), nil
	default:
		return false, fmt.Errorf("unknown condition operator %q", c.op)
	}
}

// normalizeScalarSet lets a bare atom condition match a singleton-set
// column and vice versa, mirroring the JSON encoding ambiguity.
func normalizeScalarSet(actual, cond Value) Value {
	if _, ok := actual.(*Set); ok {
		if _, isSet := cond.(*Set); !isSet {
			if _, isMap := cond.(*Map); !isMap {
				return NewSet(cond)
			}
		}
	}
	return cond
}

func numeric(v Value) (float64, bool) {
	switch n := v.(type) {
	case int64:
		return float64(n), true
	case float64:
		return n, true
	case *Set:
		if len(n.Atoms) == 1 {
			return numeric(n.Atoms[0])
		}
	}
	return 0, false
}

// includes implements the "includes" condition: every element of the
// condition value is present in the actual value.
func includes(actual, cond Value) bool {
	switch av := actual.(type) {
	case *Set:
		condAtoms := atomsOf(cond)
		for _, c := range condAtoms {
			if !av.Contains(c) {
				return false
			}
		}
		return true
	case *Map:
		cm, ok := cond.(*Map)
		if !ok {
			return false
		}
		for _, p := range cm.Pairs {
			got, found := av.Get(p[0])
			if !found || !atomEqual(got, p[1]) {
				return false
			}
		}
		return true
	default:
		return ValueEqual(actual, cond)
	}
}

func atomsOf(v Value) []Atom {
	if s, ok := v.(*Set); ok {
		return s.Atoms
	}
	return []Atom{v}
}

func (db *Database) opMutate(tx *txn, op *Operation) OpResult {
	ts, table, err := db.tableSchema(op.Table)
	if err != nil {
		return OpResult{Error: "unknown table", Details: err.Error()}
	}
	ids, err := db.matchRows(tx, op.Table, ts, table, op.Where)
	if err != nil {
		return OpResult{Error: "constraint violation", Details: err.Error()}
	}
	type parsedMut struct {
		column  string
		mutator string
		value   Value
		cs      *ColumnSchema
	}
	muts := make([]parsedMut, 0, len(op.Mutations))
	for _, m := range op.Mutations {
		var col, mutator string
		if err := json.Unmarshal(m[0], &col); err != nil {
			return OpResult{Error: "constraint violation", Details: "bad mutation column"}
		}
		if err := json.Unmarshal(m[1], &mutator); err != nil {
			return OpResult{Error: "constraint violation", Details: "bad mutator"}
		}
		cs := ts.Columns[col]
		if cs == nil {
			return OpResult{Error: "constraint violation", Details: fmt.Sprintf("unknown column %q", col)}
		}
		if !cs.Mutable {
			return OpResult{Error: "constraint violation", Details: fmt.Sprintf("column %q is immutable", col)}
		}
		// Argument typing depends on the mutator: arithmetic mutators take
		// one scalar (applied to each element of set columns); map
		// "delete" accepts a set of keys as well as exact pairs.
		argType := &cs.Type
		switch mutator {
		case "+=", "-=", "*=", "/=", "%=":
			argType = &ColumnType{Key: cs.Type.Key, Min: 1, Max: 1}
		}
		v, verr := decodeWireValue(m[2], argType)
		if verr != nil && cs.Type.IsMap() && mutator == "delete" {
			keyType := ColumnType{Key: cs.Type.Key, Min: 0, Max: Unlimited}
			v, verr = decodeWireValue(m[2], &keyType)
		}
		if verr != nil {
			return OpResult{Error: "constraint violation", Details: verr.Error()}
		}
		if tx != nil {
			v = resolveValueNamed(tx, v)
		}
		muts = append(muts, parsedMut{column: col, mutator: mutator, value: v, cs: cs})
	}
	for _, id := range ids {
		tx.change(op.Table, id)
		row := table[id].clone()
		for _, m := range muts {
			nv, err := mutateValue(row[m.column], m.mutator, m.value)
			if err != nil {
				return OpResult{Error: "constraint violation",
					Details: fmt.Sprintf("column %q: %v", m.column, err)}
			}
			if err := m.cs.Type.CheckValue(nv); errors.Is(err, errNotFinite) {
				return OpResult{Error: "range error", Details: fmt.Sprintf("column %q: %v", m.column, err)}
			} else if err != nil {
				return OpResult{Error: "constraint violation", Details: err.Error()}
			}
			row[m.column] = nv
		}
		if err := db.reindexRow(op.Table, ts, id, table[id], row); err != nil {
			return OpResult{Error: "constraint violation", Details: err.Error()}
		}
		table[id] = row
	}
	return OpResult{Count: len(ids)}
}

func mutateValue(cur Value, mutator string, arg Value) (Value, error) {
	switch mutator {
	case "+=", "-=", "*=", "/=", "%=":
		return mutateArith(cur, mutator, arg)
	case "insert":
		switch c := cur.(type) {
		case *Set:
			return NewSet(append(append([]Atom{}, c.Atoms...), atomsOf(arg)...)...), nil
		case *Map:
			am, ok := arg.(*Map)
			if !ok {
				return nil, fmt.Errorf("insert of non-map into map")
			}
			// RFC 7047: insert does not replace existing keys.
			pairs := append([][2]Atom{}, c.Pairs...)
			for _, p := range am.Pairs {
				if _, exists := c.Get(p[0]); !exists {
					pairs = append(pairs, p)
				}
			}
			return NewMap(pairs...), nil
		default:
			return nil, fmt.Errorf("insert into scalar column")
		}
	case "delete":
		switch c := cur.(type) {
		case *Set:
			drop := NewSet(atomsOf(arg)...)
			var kept []Atom
			for _, a := range c.Atoms {
				if !drop.Contains(a) {
					kept = append(kept, a)
				}
			}
			return NewSet(kept...), nil
		case *Map:
			var kept [][2]Atom
			switch am := arg.(type) {
			case *Map:
				for _, p := range c.Pairs {
					if v, found := am.Get(p[0]); found && atomEqual(v, p[1]) {
						continue
					}
					kept = append(kept, p)
				}
			default:
				drop := NewSet(atomsOf(arg)...)
				for _, p := range c.Pairs {
					if !drop.Contains(p[0]) {
						kept = append(kept, p)
					}
				}
			}
			return NewMap(kept...), nil
		default:
			return nil, fmt.Errorf("delete from scalar column")
		}
	default:
		return nil, fmt.Errorf("unknown mutator %q", mutator)
	}
}

func mutateArith(cur Value, mutator string, arg Value) (Value, error) {
	applyInt := func(a, b int64) (int64, error) {
		switch mutator {
		case "+=":
			return a + b, nil
		case "-=":
			return a - b, nil
		case "*=":
			return a * b, nil
		case "/=":
			if b == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return a / b, nil
		default:
			if b == 0 {
				return 0, fmt.Errorf("modulo by zero")
			}
			return a % b, nil
		}
	}
	applyReal := func(a, b float64) (float64, error) {
		switch mutator {
		case "+=":
			return a + b, nil
		case "-=":
			return a - b, nil
		case "*=":
			return a * b, nil
		case "/=":
			if b == 0 {
				return 0, fmt.Errorf("division by zero")
			}
			return a / b, nil
		default:
			return 0, fmt.Errorf("%%= on real column")
		}
	}
	switch c := cur.(type) {
	case int64:
		b, ok := arg.(int64)
		if !ok {
			return nil, fmt.Errorf("arithmetic mutation needs an integer argument")
		}
		return applyInt(c, b)
	case float64:
		b, ok := numeric(arg)
		if !ok {
			return nil, fmt.Errorf("arithmetic mutation needs a numeric argument")
		}
		return applyReal(c, b)
	case *Set:
		// Mutate every element.
		atoms := make([]Atom, len(c.Atoms))
		for i, a := range c.Atoms {
			nv, err := mutateArith(a, mutator, arg)
			if err != nil {
				return nil, err
			}
			atoms[i] = nv
		}
		return NewSet(atoms...), nil
	default:
		return nil, fmt.Errorf("arithmetic mutation on non-numeric column")
	}
}
