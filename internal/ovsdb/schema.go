package ovsdb

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
)

// BaseType is the type of an atom: integer, real, boolean, string, or uuid.
type BaseType struct {
	Type string
	// Enum restricts string/integer columns to a fixed set of values.
	Enum *Set
}

// ColumnType is the full type of a column per RFC 7047 §3.2.
type ColumnType struct {
	Key   BaseType
	Value *BaseType // non-nil for map columns
	Min   int       // 0 or 1
	Max   int       // >= 1, or Unlimited
}

// Unlimited is the Max value for unbounded sets and maps.
const Unlimited = -1

// IsScalar reports whether the column holds exactly one atom.
func (ct *ColumnType) IsScalar() bool {
	return ct.Value == nil && ct.Min == 1 && ct.Max == 1
}

// IsMap reports whether the column holds a map.
func (ct *ColumnType) IsMap() bool { return ct.Value != nil }

// ColumnSchema describes one column.
type ColumnSchema struct {
	Type      ColumnType
	Ephemeral bool
	Mutable   bool
}

// TableSchema describes one table.
type TableSchema struct {
	Columns map[string]*ColumnSchema
	MaxRows int
	IsRoot  bool
	// Indexes lists column sets whose values must be unique per row.
	Indexes [][]string
}

// DatabaseSchema is a parsed OVSDB schema.
type DatabaseSchema struct {
	Name    string
	Version string
	Tables  map[string]*TableSchema
}

// rawSchema mirrors the JSON schema format (.ovsschema files).
type rawSchema struct {
	Name    string              `json:"name"`
	Version string              `json:"version"`
	Tables  map[string]rawTable `json:"tables"`
}

type rawTable struct {
	Columns map[string]rawColumn `json:"columns"`
	MaxRows int                  `json:"maxRows"`
	IsRoot  bool                 `json:"isRoot"`
	Indexes [][]string           `json:"indexes"`
}

type rawColumn struct {
	Type      json.RawMessage `json:"type"`
	Ephemeral bool            `json:"ephemeral"`
	Mutable   *bool           `json:"mutable"`
}

type rawType struct {
	Key   json.RawMessage `json:"key"`
	Value json.RawMessage `json:"value"`
	Min   json.RawMessage `json:"min"`
	Max   json.RawMessage `json:"max"`
}

type rawBase struct {
	Type string          `json:"type"`
	Enum json.RawMessage `json:"enum"`
}

// ParseSchema parses an OVSDB schema document (.ovsschema JSON).
func ParseSchema(data []byte) (*DatabaseSchema, error) {
	var raw rawSchema
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("ovsdb: bad schema JSON: %w", err)
	}
	if raw.Name == "" {
		return nil, fmt.Errorf("ovsdb: schema has no name")
	}
	ds := &DatabaseSchema{
		Name:    raw.Name,
		Version: raw.Version,
		Tables:  make(map[string]*TableSchema, len(raw.Tables)),
	}
	for tname, tr := range raw.Tables {
		if len(tr.Columns) == 0 {
			return nil, fmt.Errorf("ovsdb: table %q has no columns", tname)
		}
		ts := &TableSchema{
			Columns: make(map[string]*ColumnSchema, len(tr.Columns)),
			MaxRows: tr.MaxRows,
			IsRoot:  tr.IsRoot,
			Indexes: tr.Indexes,
		}
		for cname, cr := range tr.Columns {
			if cname == "_uuid" || cname == "_version" {
				return nil, fmt.Errorf("ovsdb: table %q declares reserved column %q", tname, cname)
			}
			ct, err := parseColumnType(cr.Type)
			if err != nil {
				return nil, fmt.Errorf("ovsdb: table %q column %q: %w", tname, cname, err)
			}
			cs := &ColumnSchema{Type: *ct, Ephemeral: cr.Ephemeral, Mutable: true}
			if cr.Mutable != nil {
				cs.Mutable = *cr.Mutable
			}
			ts.Columns[cname] = cs
		}
		for _, idx := range tr.Indexes {
			for _, col := range idx {
				if _, ok := ts.Columns[col]; !ok {
					return nil, fmt.Errorf("ovsdb: table %q index references unknown column %q", tname, col)
				}
			}
		}
		ds.Tables[tname] = ts
	}
	return ds, nil
}

func parseColumnType(raw json.RawMessage) (*ColumnType, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing type")
	}
	// A type may be a plain string ("integer") or a full object.
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		if !validBase(s) {
			return nil, fmt.Errorf("unknown atomic type %q", s)
		}
		return &ColumnType{Key: BaseType{Type: s}, Min: 1, Max: 1}, nil
	}
	var rt rawType
	if err := json.Unmarshal(raw, &rt); err != nil {
		return nil, fmt.Errorf("bad type: %w", err)
	}
	key, err := parseBase(rt.Key)
	if err != nil {
		return nil, fmt.Errorf("key: %w", err)
	}
	ct := &ColumnType{Key: *key, Min: 1, Max: 1}
	if rt.Value != nil {
		val, err := parseBase(rt.Value)
		if err != nil {
			return nil, fmt.Errorf("value: %w", err)
		}
		ct.Value = val
	}
	if rt.Min != nil {
		var m int
		if err := json.Unmarshal(rt.Min, &m); err != nil || m < 0 || m > 1 {
			return nil, fmt.Errorf("bad min %s", rt.Min)
		}
		ct.Min = m
	}
	if rt.Max != nil {
		var m int
		if err := json.Unmarshal(rt.Max, &m); err == nil {
			if m < 1 {
				return nil, fmt.Errorf("bad max %d", m)
			}
			ct.Max = m
		} else {
			var s string
			if err := json.Unmarshal(rt.Max, &s); err != nil || s != "unlimited" {
				return nil, fmt.Errorf("bad max %s", rt.Max)
			}
			ct.Max = Unlimited
		}
	}
	if ct.Max != Unlimited && ct.Max < ct.Min {
		return nil, fmt.Errorf("max %d < min %d", ct.Max, ct.Min)
	}
	return ct, nil
}

func parseBase(raw json.RawMessage) (*BaseType, error) {
	if len(raw) == 0 {
		return nil, fmt.Errorf("missing base type")
	}
	var s string
	if err := json.Unmarshal(raw, &s); err == nil {
		if !validBase(s) {
			return nil, fmt.Errorf("unknown atomic type %q", s)
		}
		return &BaseType{Type: s}, nil
	}
	var rb rawBase
	if err := json.Unmarshal(raw, &rb); err != nil {
		return nil, fmt.Errorf("bad base type: %w", err)
	}
	if !validBase(rb.Type) {
		return nil, fmt.Errorf("unknown atomic type %q", rb.Type)
	}
	bt := &BaseType{Type: rb.Type}
	if rb.Enum != nil {
		// Read as a set column's value, so it is a *Set whichever way it
		// is written.
		v, err := decodeWireValue(rb.Enum, &ColumnType{Key: BaseType{Type: rb.Type}, Min: 0, Max: Unlimited})
		if err != nil {
			return nil, fmt.Errorf("bad enum: %w", err)
		}
		bt.Enum = v.(*Set)
	}
	return bt, nil
}

func validBase(s string) bool {
	switch s {
	case "integer", "real", "boolean", "string", "uuid":
		return true
	}
	return false
}

// DefaultValue returns the value a column takes when an insert omits it.
// Shared empty-collection defaults. Values are copy-on-write everywhere
// (mutateValue and the update path build fresh collections instead of
// modifying in place), so every defaulted column can reference the same
// empty set or map.
var (
	defaultEmptySet = NewSet()
	defaultEmptyMap = NewMap()
)

func (ct *ColumnType) DefaultValue() Value {
	if ct.IsMap() {
		return defaultEmptyMap
	}
	if ct.IsScalar() {
		switch ct.Key.Type {
		case "integer":
			return int64(0)
		case "real":
			return float64(0)
		case "boolean":
			return false
		case "string":
			return ""
		case "uuid":
			return ZeroUUID
		}
	}
	return defaultEmptySet
}

// normal returns v in the one form a column of this type stores. RFC
// 7047 writes a singleton set and its atom the same way, so a peer (or an
// in-process caller) may give either for either: a scalar column keeps
// the atom, a set column the set.
func (ct *ColumnType) normal(v Value) Value {
	switch s, isSet := v.(*Set); {
	case isSet && ct.IsScalar() && len(s.Atoms) == 1:
		return s.Atoms[0]
	case !isSet && !ct.IsScalar() && !ct.IsMap():
		if _, isMap := v.(*Map); !isMap {
			return NewSet(v)
		}
	}
	return v
}

// errNotFinite is CheckValue's error for a real that is NaN or infinite:
// JSON, so the wire and the WAL, cannot carry one.
var errNotFinite = errors.New("ovsdb: real value is not finite")

// CheckValue validates a value against the column type, including
// cardinality and enum constraints.
func (ct *ColumnType) CheckValue(v Value) error {
	checkAtom := func(a Atom, bt *BaseType) error {
		want := bt.Type
		ok := false
		switch a := a.(type) {
		case int64:
			ok = want == "integer"
		case float64:
			if math.IsNaN(a) || math.IsInf(a, 0) {
				return errNotFinite
			}
			ok = want == "real"
		case bool:
			ok = want == "boolean"
		case string:
			ok = want == "string"
		case UUID, namedUUID:
			ok = want == "uuid"
		}
		if !ok {
			return fmt.Errorf("ovsdb: %v is not a valid %s", a, want)
		}
		if bt.Enum != nil {
			if _, isNamed := a.(namedUUID); !isNamed && !bt.Enum.Contains(a) {
				return fmt.Errorf("ovsdb: %v is not among the enum values", a)
			}
		}
		return nil
	}
	switch v := v.(type) {
	case *Set:
		if ct.IsMap() {
			return fmt.Errorf("ovsdb: set value for map column")
		}
		if err := ct.checkCardinality(len(v.Atoms)); err != nil {
			return err
		}
		for _, a := range v.Atoms {
			if err := checkAtom(a, &ct.Key); err != nil {
				return err
			}
		}
		return nil
	case *Map:
		if !ct.IsMap() {
			return fmt.Errorf("ovsdb: map value for non-map column")
		}
		if err := ct.checkCardinality(len(v.Pairs)); err != nil {
			return err
		}
		for _, p := range v.Pairs {
			if err := checkAtom(p[0], &ct.Key); err != nil {
				return err
			}
			if err := checkAtom(p[1], ct.Value); err != nil {
				return err
			}
		}
		return nil
	default:
		if ct.IsMap() {
			return fmt.Errorf("ovsdb: atom value for map column")
		}
		// A bare atom is acceptable for a set column (singleton set),
		// mirroring the JSON encoding.
		return checkAtom(v, &ct.Key)
	}
}

func (ct *ColumnType) checkCardinality(n int) error {
	if n < ct.Min {
		return fmt.Errorf("ovsdb: %d elements, need at least %d", n, ct.Min)
	}
	if ct.Max != Unlimited && n > ct.Max {
		return fmt.Errorf("ovsdb: %d elements, allowed at most %d", n, ct.Max)
	}
	return nil
}
