// Package p4 models programmable data planes: a P4-16-subset program IR
// (headers, a parser state machine, match-action tables, actions, digests),
// a runtime that lowers the IR once and executes it on real packet bytes
// (the BMv2 stand-in), and P4Info-style metadata consumed by the control
// plane for code generation and cross-plane type checking.
package p4

import (
	"fmt"
)

// HeaderField is one field of a header type. Fields are bit-packed in
// declaration order; a header's total width must be a whole number of
// bytes.
type HeaderField struct {
	Name string
	Bits int // 1..64
}

// HeaderType declares a packet header.
type HeaderType struct {
	Name   string
	Fields []HeaderField
}

// Bits returns the total header width in bits.
func (h *HeaderType) Bits() int {
	total := 0
	for _, f := range h.Fields {
		total += f.Bits
	}
	return total
}

// FieldIndex returns the index of the named field, or -1.
func (h *HeaderType) FieldIndex(name string) int {
	for i, f := range h.Fields {
		if f.Name == name {
			return i
		}
	}
	return -1
}

// MetaField is one user metadata field.
type MetaField struct {
	Name string
	Bits int
}

// Standard metadata fields (v1model-inspired), addressed with header name
// "standard_metadata".
const (
	StdMetaHeader = "standard_metadata"
	MetaHeader    = "meta"
	FieldIngress  = "ingress_port"
	FieldEgress   = "egress_spec"
	FieldMcastGrp = "mcast_grp"
	FieldInstance = "instance_type" // 0 normal, 1 replica
	// StdIngressBits is the width of port ids. v1model uses 9 bits; this
	// model uses PSA-style 16-bit ports so deployments can exceed 511
	// ports (the paper's scalability experiment adds 2,000).
	StdIngressBits = 16
	StdMcastBits   = 16
)

// FieldRef names a field: a header field, user metadata (Header ==
// "meta"), or standard metadata (Header == "standard_metadata").
type FieldRef struct {
	Header string
	Field  string
}

func (r FieldRef) String() string { return r.Header + "." + r.Field }

// ParserState is one state of the parser FSM. On entry it extracts
// Extract (if non-empty), then either selects on a field or transitions
// unconditionally to Next. The states "accept" and "reject" are terminal.
type ParserState struct {
	Name    string
	Extract string // header name, or ""
	Select  *Select
	Next    string
}

// Select is a parser select statement over one field.
type Select struct {
	Field   FieldRef
	Cases   []SelectCase
	Default string
}

// SelectCase maps a (masked) value to the next state.
type SelectCase struct {
	Value uint64
	Mask  uint64 // 0 means exact (full mask)
	Next  string
}

// MatchKind is a table key's match semantics.
type MatchKind int

// Match kinds.
const (
	MatchExact MatchKind = iota
	MatchLPM
	MatchTernary
	MatchOptional
)

func (k MatchKind) String() string {
	switch k {
	case MatchExact:
		return "exact"
	case MatchLPM:
		return "lpm"
	case MatchTernary:
		return "ternary"
	case MatchOptional:
		return "optional"
	default:
		return "?"
	}
}

// TableKey is one match key of a table.
type TableKey struct {
	Name  string // control-plane-visible name
	Ref   FieldRef
	Match MatchKind
	Bits  int // resolved field width
}

// ActionParam is one runtime parameter of an action.
type ActionParam struct {
	Name string
	Bits int
}

// Action is a named action with a body of primitive statements.
type Action struct {
	Name   string
	Params []ActionParam
	Body   []Stmt
}

// ActionCall is an action with bound parameter values (for defaults).
type ActionCall struct {
	Action string
	Params []uint64
}

// Table is a match-action table.
type Table struct {
	Name          string
	Keys          []TableKey
	Actions       []string
	DefaultAction ActionCall
	Size          int
}

// DigestField is one field of a digest message.
type DigestField struct {
	Name string
	Bits int
}

// Digest declares a message type streamed from the data plane to the
// control plane (e.g. MAC learning events).
type Digest struct {
	Name   string
	Fields []DigestField
}

// Expr is a value expression inside an action body or control condition:
// *ConstExpr, *ParamExpr, or *FieldExpr.
type Expr interface{ exprNode() }

// ConstExpr is a literal.
type ConstExpr struct{ Value uint64 }

// ParamExpr reads an action parameter by index.
type ParamExpr struct{ Index int }

// FieldExpr reads a header or metadata field.
type FieldExpr struct{ Ref FieldRef }

func (*ConstExpr) exprNode() {}
func (*ParamExpr) exprNode() {}
func (*FieldExpr) exprNode() {}

// Stmt is a primitive action statement: *SetField, *Output, *Multicast,
// *Drop, *EmitDigest, *SetValid.
type Stmt interface{ stmtNode() }

// SetField assigns an expression to a field.
type SetField struct {
	Ref  FieldRef
	Expr Expr
}

// Output unicasts the packet to a port.
type Output struct{ Port Expr }

// Multicast replicates the packet to a multicast group.
type Multicast struct{ Group Expr }

// Drop marks the packet dropped.
type Drop struct{}

// EmitDigest sends a digest message built from field expressions.
type EmitDigest struct {
	Digest string
	Fields []Expr
}

// SetValid adds or removes a header.
type SetValid struct {
	Header string
	Valid  bool
}

// Clone emits an additional copy of the packet to a port at the end of
// ingress (BMv2 clone-session semantics, used for port mirroring). Clones
// are emitted even when the original packet is dropped.
type Clone struct{ Port Expr }

func (*SetField) stmtNode()   {}
func (*Output) stmtNode()     {}
func (*Multicast) stmtNode()  {}
func (*Drop) stmtNode()       {}
func (*EmitDigest) stmtNode() {}
func (*SetValid) stmtNode()   {}
func (*Clone) stmtNode()      {}

// BoolExpr is a control-flow condition: *Compare, *IsValid, *BoolOp.
type BoolExpr interface{ boolNode() }

// Compare compares two expressions ("==" or "!=").
type Compare struct {
	Op   string
	L, R Expr
}

// IsValid tests header validity.
type IsValid struct{ Header string }

// BoolOp combines conditions: "and", "or", "not" (R nil for not).
type BoolOp struct {
	Op   string
	L, R BoolExpr
}

func (*Compare) boolNode() {}
func (*IsValid) boolNode() {}
func (*BoolOp) boolNode()  {}

// ControlStmt is a statement in a control block: *ApplyTable or *If.
type ControlStmt interface{ ctrlNode() }

// ApplyTable applies a match-action table.
type ApplyTable struct{ Table string }

// If branches on a condition.
type If struct {
	Cond BoolExpr
	Then []ControlStmt
	Else []ControlStmt
}

func (*ApplyTable) ctrlNode() {}
func (*If) ctrlNode()         {}

// Control is a named control block (ingress or egress).
type Control struct {
	Name  string
	Apply []ControlStmt
}

// Program is a complete data-plane program.
type Program struct {
	Name     string
	Headers  []*HeaderType
	Metadata []MetaField
	// Parser starts at Parser[0]; terminal states are "accept"/"reject".
	Parser   []*ParserState
	Ingress  *Control
	Egress   *Control // may be nil
	Deparser []string // header emission order
	Tables   []*Table
	Actions  []*Action
	Digests  []*Digest
}

// Header returns the named header type, or nil.
func (p *Program) Header(name string) *HeaderType {
	for _, h := range p.Headers {
		if h.Name == name {
			return h
		}
	}
	return nil
}

// TableByName returns the named table, or nil.
func (p *Program) TableByName(name string) *Table {
	for _, t := range p.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

// ActionByName returns the named action, or nil.
func (p *Program) ActionByName(name string) *Action {
	for _, a := range p.Actions {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// DigestByName returns the named digest, or nil.
func (p *Program) DigestByName(name string) *Digest {
	for _, d := range p.Digests {
		if d.Name == name {
			return d
		}
	}
	return nil
}

// fieldBits resolves the width of a field reference.
func (p *Program) fieldBits(ref FieldRef) (int, error) {
	switch ref.Header {
	case StdMetaHeader:
		switch ref.Field {
		case FieldIngress, FieldEgress:
			return StdIngressBits, nil
		case FieldMcastGrp:
			return StdMcastBits, nil
		case FieldInstance:
			return 8, nil
		}
		return 0, fmt.Errorf("p4: unknown standard metadata field %q", ref.Field)
	case MetaHeader:
		for _, m := range p.Metadata {
			if m.Name == ref.Field {
				return m.Bits, nil
			}
		}
		return 0, fmt.Errorf("p4: unknown metadata field %q", ref.Field)
	default:
		h := p.Header(ref.Header)
		if h == nil {
			return 0, fmt.Errorf("p4: unknown header %q", ref.Header)
		}
		i := h.FieldIndex(ref.Field)
		if i < 0 {
			return 0, fmt.Errorf("p4: header %s has no field %q", ref.Header, ref.Field)
		}
		return h.Fields[i].Bits, nil
	}
}

// Validate checks structural well-formedness: header widths byte-aligned,
// parser states resolvable, table keys/actions resolvable, digest and
// action references valid. It also resolves TableKey.Bits.
func (p *Program) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("p4: program has no name")
	}
	headerNames := make(map[string]bool)
	for _, h := range p.Headers {
		if headerNames[h.Name] {
			return fmt.Errorf("p4: header %q redeclared", h.Name)
		}
		headerNames[h.Name] = true
		if h.Bits()%8 != 0 {
			return fmt.Errorf("p4: header %q is %d bits, not byte-aligned", h.Name, h.Bits())
		}
		for _, f := range h.Fields {
			if f.Bits < 1 || f.Bits > 64 {
				return fmt.Errorf("p4: header %s field %s: width %d out of range", h.Name, f.Name, f.Bits)
			}
		}
	}
	if len(p.Parser) == 0 {
		return fmt.Errorf("p4: program has no parser states")
	}
	states := map[string]bool{"accept": true, "reject": true}
	for _, st := range p.Parser {
		if states[st.Name] {
			return fmt.Errorf("p4: parser state %q redeclared", st.Name)
		}
		states[st.Name] = true
	}
	for _, st := range p.Parser {
		if st.Extract != "" && !headerNames[st.Extract] {
			return fmt.Errorf("p4: parser state %s extracts unknown header %q", st.Name, st.Extract)
		}
		if st.Select != nil {
			if _, err := p.fieldBits(st.Select.Field); err != nil {
				return fmt.Errorf("p4: parser state %s: %w", st.Name, err)
			}
			for _, c := range st.Select.Cases {
				if !states[c.Next] {
					return fmt.Errorf("p4: parser state %s selects unknown state %q", st.Name, c.Next)
				}
			}
			if !states[st.Select.Default] {
				return fmt.Errorf("p4: parser state %s: unknown default state %q", st.Name, st.Select.Default)
			}
		} else if !states[st.Next] {
			return fmt.Errorf("p4: parser state %s transitions to unknown state %q", st.Name, st.Next)
		}
	}
	actionNames := make(map[string]*Action)
	for _, a := range p.Actions {
		if actionNames[a.Name] != nil {
			return fmt.Errorf("p4: action %q redeclared", a.Name)
		}
		actionNames[a.Name] = a
		for _, stmt := range a.Body {
			if err := p.validateStmt(a, stmt); err != nil {
				return err
			}
		}
	}
	tableNames := make(map[string]bool)
	for _, t := range p.Tables {
		if tableNames[t.Name] {
			return fmt.Errorf("p4: table %q redeclared", t.Name)
		}
		tableNames[t.Name] = true
		if len(t.Keys) == 0 {
			return fmt.Errorf("p4: table %q has no keys", t.Name)
		}
		keyNames := make(map[string]bool)
		for i := range t.Keys {
			k := &t.Keys[i]
			if k.Name == "" {
				k.Name = k.Ref.String()
			}
			if keyNames[k.Name] {
				return fmt.Errorf("p4: table %q key %q duplicated", t.Name, k.Name)
			}
			keyNames[k.Name] = true
			bits, err := p.fieldBits(k.Ref)
			if err != nil {
				return fmt.Errorf("p4: table %q: %w", t.Name, err)
			}
			// A program is validated again by every runtime built on it (a
			// restarted switch) while others execute it: write only a change.
			if k.Bits != bits {
				k.Bits = bits
			}
		}
		if len(t.Actions) == 0 {
			return fmt.Errorf("p4: table %q allows no actions", t.Name)
		}
		for _, an := range t.Actions {
			if actionNames[an] == nil {
				return fmt.Errorf("p4: table %q references unknown action %q", t.Name, an)
			}
		}
		if t.DefaultAction.Action != "" {
			da := actionNames[t.DefaultAction.Action]
			if da == nil {
				return fmt.Errorf("p4: table %q default action %q unknown", t.Name, t.DefaultAction.Action)
			}
			if len(t.DefaultAction.Params) != len(da.Params) {
				return fmt.Errorf("p4: table %q default action %q takes %d params, got %d",
					t.Name, da.Name, len(da.Params), len(t.DefaultAction.Params))
			}
		}
	}
	digestNames := make(map[string]bool)
	for _, d := range p.Digests {
		if digestNames[d.Name] {
			return fmt.Errorf("p4: digest %q redeclared", d.Name)
		}
		digestNames[d.Name] = true
	}
	if p.Ingress == nil {
		return fmt.Errorf("p4: program has no ingress control")
	}
	for _, ctl := range []*Control{p.Ingress, p.Egress} {
		if ctl == nil {
			continue
		}
		if err := p.validateControl(ctl.Apply, tableNames); err != nil {
			return fmt.Errorf("p4: control %s: %w", ctl.Name, err)
		}
	}
	for _, h := range p.Deparser {
		if !headerNames[h] {
			return fmt.Errorf("p4: deparser emits unknown header %q", h)
		}
	}
	return nil
}

func (p *Program) validateStmt(a *Action, stmt Stmt) error {
	checkExpr := func(e Expr) error {
		switch e := e.(type) {
		case *ParamExpr:
			if e.Index < 0 || e.Index >= len(a.Params) {
				return fmt.Errorf("p4: action %s: parameter index %d out of range", a.Name, e.Index)
			}
		case *FieldExpr:
			if _, err := p.fieldBits(e.Ref); err != nil {
				return fmt.Errorf("p4: action %s: %w", a.Name, err)
			}
		}
		return nil
	}
	switch s := stmt.(type) {
	case *SetField:
		if _, err := p.fieldBits(s.Ref); err != nil {
			return fmt.Errorf("p4: action %s: %w", a.Name, err)
		}
		return checkExpr(s.Expr)
	case *Output:
		return checkExpr(s.Port)
	case *Multicast:
		return checkExpr(s.Group)
	case *Clone:
		return checkExpr(s.Port)
	case *EmitDigest:
		d := p.DigestByName(s.Digest)
		if d == nil {
			return fmt.Errorf("p4: action %s: unknown digest %q", a.Name, s.Digest)
		}
		if len(s.Fields) != len(d.Fields) {
			return fmt.Errorf("p4: action %s: digest %s has %d fields, got %d",
				a.Name, s.Digest, len(d.Fields), len(s.Fields))
		}
		for _, f := range s.Fields {
			if err := checkExpr(f); err != nil {
				return err
			}
		}
		return nil
	case *SetValid:
		if p.Header(s.Header) == nil {
			return fmt.Errorf("p4: action %s: unknown header %q", a.Name, s.Header)
		}
		return nil
	case *Drop:
		return nil
	default:
		return fmt.Errorf("p4: action %s: unknown statement %T", a.Name, stmt)
	}
}

func (p *Program) validateControl(stmts []ControlStmt, tables map[string]bool) error {
	for _, cs := range stmts {
		switch cs := cs.(type) {
		case *ApplyTable:
			if !tables[cs.Table] {
				return fmt.Errorf("applies unknown table %q", cs.Table)
			}
		case *If:
			if err := p.validateBool(cs.Cond); err != nil {
				return err
			}
			if err := p.validateControl(cs.Then, tables); err != nil {
				return err
			}
			if err := p.validateControl(cs.Else, tables); err != nil {
				return err
			}
		default:
			return fmt.Errorf("unknown control statement %T", cs)
		}
	}
	return nil
}

func (p *Program) validateBool(b BoolExpr) error {
	switch b := b.(type) {
	case *Compare:
		for _, e := range []Expr{b.L, b.R} {
			if fe, ok := e.(*FieldExpr); ok {
				if _, err := p.fieldBits(fe.Ref); err != nil {
					return err
				}
			}
			if _, ok := e.(*ParamExpr); ok {
				return fmt.Errorf("parameter reference outside an action")
			}
		}
		return nil
	case *IsValid:
		if p.Header(b.Header) == nil {
			return fmt.Errorf("isValid on unknown header %q", b.Header)
		}
		return nil
	case *BoolOp:
		if _, ok := boolOps[b.Op]; !ok || (b.R == nil) != (b.Op == "not") {
			return fmt.Errorf("malformed boolean operator %q", b.Op)
		}
		if err := p.validateBool(b.L); err != nil {
			return err
		}
		if b.R != nil {
			return p.validateBool(b.R)
		}
		return nil
	default:
		return fmt.Errorf("unknown condition %T", b)
	}
}
