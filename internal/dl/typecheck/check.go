package typecheck

import (
	"fmt"

	"repro/internal/dl/ast"
	"repro/internal/dl/value"
)

// Error is a semantic error with source position.
type Error struct {
	Pos ast.Pos
	Msg string
}

func (e *Error) Error() string { return fmt.Sprintf("%s: %s", e.Pos, e.Msg) }

func errorf(pos ast.Pos, format string, args ...any) error {
	return &Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}

// Column is one typed relation column.
type Column struct {
	Name string
	Type *value.Type
}

// Relation is a checked relation declaration.
type Relation struct {
	Name  string
	Role  ast.RelationRole
	Cols  []Column
	Index int // position in Program.Relations
}

// Arity returns the number of columns.
func (r *Relation) Arity() int { return len(r.Cols) }

// CheckRecord verifies that rec is a well-typed tuple for this relation.
func (r *Relation) CheckRecord(rec value.Record) error {
	if len(rec) != len(r.Cols) {
		return fmt.Errorf("relation %s: record arity %d, want %d", r.Name, len(rec), len(r.Cols))
	}
	for i, c := range r.Cols {
		if err := c.Type.CheckValue(rec[i]); err != nil {
			return fmt.Errorf("relation %s, column %s: %w", r.Name, c.Name, err)
		}
	}
	return nil
}

// ColCheck pairs a column index with an expression whose value the column
// must equal.
type ColCheck struct {
	Col  int
	Expr Expr
}

// LiteralTerm is a checked (possibly negated) body literal.
type LiteralTerm struct {
	Rel     *Relation
	Negated bool
	// BindSlots[i] is the environment slot bound from column i, or -1 when
	// the column is matched by a check expression or wildcard.
	BindSlots []int
	// Checks are columns constrained to equal an expression over variables
	// bound elsewhere in the rule.
	Checks []ColCheck
	Pos    ast.Pos
}

// CondTerm is a boolean guard.
type CondTerm struct {
	Expr Expr
	Pos  ast.Pos
}

// AssignTerm binds a fresh slot to an expression value.
type AssignTerm struct {
	Slot int
	Expr Expr
	Pos  ast.Pos
}

// GroupByTerm aggregates the body's bindings grouped by key slots. It is
// always the final term of its rule.
type GroupByTerm struct {
	KeySlots []int
	Agg      string // count, sum, min, max
	Arg      Expr   // nil for count
	OutSlot  int
	OutType  *value.Type
	Pos      ast.Pos
}

// Term is a checked body term: *LiteralTerm, *CondTerm, *AssignTerm, or
// *GroupByTerm.
type Term interface{ termPos() ast.Pos }

func (t *LiteralTerm) termPos() ast.Pos { return t.Pos }
func (t *CondTerm) termPos() ast.Pos    { return t.Pos }
func (t *AssignTerm) termPos() ast.Pos  { return t.Pos }
func (t *GroupByTerm) termPos() ast.Pos { return t.Pos }

// VarInfo describes one rule variable.
type VarInfo struct {
	Name string
	Type *value.Type
}

// Rule is a checked rule.
type Rule struct {
	Head      *Relation
	HeadExprs []Expr
	Body      []Term
	// Slots describes the environment: user variables first, then hidden
	// slots introduced by planning.
	Slots []VarInfo
	Pos   ast.Pos
	// GroupBy is the trailing aggregation term, if any (also in Body).
	GroupBy *GroupByTerm
}

// HeadIsPattern reports whether every head argument is a plain variable
// reference or constant, which makes the head invertible (required for
// efficient delete/re-derive in recursive strata).
func (r *Rule) HeadIsPattern() bool {
	for _, e := range r.HeadExprs {
		switch e.(type) {
		case *VarRef, *Const:
		default:
			return false
		}
	}
	return true
}

// Program is a checked program: the input to the engine compiler.
type Program struct {
	Types     map[string]*value.Type
	Relations []*Relation
	RelByName map[string]*Relation
	Rules     []*Rule
	// FrameSize is the deepest user-function frame any of the program's
	// expressions pushes (FuncCall.Frame): an env with this much spare
	// capacity past its length evaluates every expression without
	// allocating a call frame.
	FrameSize int
}

// Relation returns the named relation, or nil.
func (p *Program) Relation(name string) *Relation { return p.RelByName[name] }

// Check resolves and type-checks a parsed program.
func Check(prog *ast.Program) (*Program, error) {
	c := &checker{
		out: &Program{
			Types:     make(map[string]*value.Type),
			RelByName: make(map[string]*Relation),
		},
		funcs: make(map[string]*funcSig),
	}
	if err := c.declareTypes(prog.Typedefs); err != nil {
		return nil, err
	}
	if err := c.declareRelations(prog.Relations); err != nil {
		return nil, err
	}
	if err := c.declareFunctions(prog.Functions); err != nil {
		return nil, err
	}
	for _, rule := range prog.Rules {
		checked, err := c.checkRule(rule)
		if err != nil {
			return nil, err
		}
		c.out.Rules = append(c.out.Rules, checked)
	}
	return c.out, nil
}

type checker struct {
	out *Program
	// resolveType resolves syntactic types; installed by declareTypes.
	resolveType resolveFunc
	funcs       map[string]*funcSig
}

// funcSig is a checked user-defined function.
type funcSig struct {
	params []*value.Type
	ret    *value.Type
	body   Expr
	// frame is the deepest call frame the body pushes (frameOf).
	frame int
}

func (c *checker) declareTypes(tds []*ast.Typedef) error {
	// Two passes so struct fields may reference types declared later
	// (but not cyclically).
	seen := make(map[string]*ast.Typedef)
	for _, td := range tds {
		if _, dup := seen[td.Name]; dup {
			return errorf(td.Pos, "type %q redeclared", td.Name)
		}
		seen[td.Name] = td
	}
	state := make(map[string]int) // 0 unvisited, 1 in progress, 2 done
	var resolveName func(name string, pos ast.Pos) (*value.Type, error)
	var resolveExpr func(te ast.TypeExpr) (*value.Type, error)
	resolveName = func(name string, pos ast.Pos) (*value.Type, error) {
		if t, ok := c.out.Types[name]; ok {
			return t, nil
		}
		td, ok := seen[name]
		if !ok {
			return nil, errorf(pos, "unknown type %q", name)
		}
		if state[name] == 1 {
			return nil, errorf(pos, "type %q is recursively defined", name)
		}
		state[name] = 1
		fields := make([]value.Field, len(td.Fields))
		names := make(map[string]bool)
		for i, f := range td.Fields {
			if names[f.Name] {
				return nil, errorf(f.Pos, "duplicate field %q in type %q", f.Name, name)
			}
			names[f.Name] = true
			ft, err := resolveExpr(f.Type)
			if err != nil {
				return nil, err
			}
			fields[i] = value.Field{Name: f.Name, Type: ft}
		}
		t := value.StructType(name, fields...)
		c.out.Types[name] = t
		state[name] = 2
		return t, nil
	}
	resolveExpr = func(te ast.TypeExpr) (*value.Type, error) {
		switch te := te.(type) {
		case *ast.NamedType:
			switch te.Name {
			case "bool":
				return value.BoolType, nil
			case "int":
				return value.IntType, nil
			case "string":
				return value.StringType, nil
			default:
				return resolveName(te.Name, te.Pos)
			}
		case *ast.BitTypeExpr:
			return value.BitType(te.Width), nil
		case *ast.TupleTypeExpr:
			elems := make([]*value.Type, len(te.Elems))
			for i, e := range te.Elems {
				t, err := resolveExpr(e)
				if err != nil {
					return nil, err
				}
				elems[i] = t
			}
			return value.TupleType(elems...), nil
		default:
			return nil, errorf(te.Position(), "unsupported type expression")
		}
	}
	c.resolveType = resolveExpr
	for _, td := range tds {
		if _, err := resolveName(td.Name, td.Pos); err != nil {
			return err
		}
	}
	return nil
}

func (c *checker) declareRelations(decls []*ast.RelationDecl) error {
	for _, d := range decls {
		if _, dup := c.out.RelByName[d.Name]; dup {
			return errorf(d.Pos, "relation %q redeclared", d.Name)
		}
		rel := &Relation{Name: d.Name, Role: d.Role, Index: len(c.out.Relations)}
		names := make(map[string]bool)
		for _, p := range d.Params {
			if names[p.Name] {
				return errorf(p.Pos, "duplicate column %q in relation %q", p.Name, d.Name)
			}
			names[p.Name] = true
			t, err := c.resolveType(p.Type)
			if err != nil {
				return err
			}
			rel.Cols = append(rel.Cols, Column{Name: p.Name, Type: t})
		}
		c.out.Relations = append(c.out.Relations, rel)
		c.out.RelByName[d.Name] = rel
	}
	return nil
}

// AddRelation registers an externally-constructed relation (used by codegen
// when declarations are generated from other planes rather than parsed).
func (p *Program) AddRelation(rel *Relation) error {
	if _, dup := p.RelByName[rel.Name]; dup {
		return fmt.Errorf("relation %q redeclared", rel.Name)
	}
	rel.Index = len(p.Relations)
	p.Relations = append(p.Relations, rel)
	p.RelByName[rel.Name] = rel
	return nil
}

// resolveType is installed by declareTypes.
type resolveFunc func(te ast.TypeExpr) (*value.Type, error)

// declareFunctions checks user function declarations. Functions may call
// only previously declared functions, so bodies cannot recurse.
func (c *checker) declareFunctions(decls []*ast.FuncDecl) error {
	for _, fd := range decls {
		if _, isBuiltin := builtins[fd.Name]; isBuiltin {
			return errorf(fd.Pos, "function %q redefines a builtin", fd.Name)
		}
		if _, dup := c.funcs[fd.Name]; dup {
			return errorf(fd.Pos, "function %q redeclared", fd.Name)
		}
		scope := &ruleScope{vars: make(map[string]int)}
		sig := &funcSig{}
		names := make(map[string]bool)
		for _, p := range fd.Params {
			if names[p.Name] {
				return errorf(p.Pos, "duplicate parameter %q", p.Name)
			}
			names[p.Name] = true
			t, err := c.resolveType(p.Type)
			if err != nil {
				return err
			}
			scope.bind(p.Name, t)
			sig.params = append(sig.params, t)
		}
		ret, err := c.resolveType(fd.RetType)
		if err != nil {
			return err
		}
		body, err := c.checkExpr(fd.Body, scope, ret)
		if err != nil {
			return err
		}
		// Hidden slots cannot appear in a pure expression, so the body's
		// environment is exactly the parameters.
		sig.ret = ret
		sig.body = body
		sig.frame = frameOf(body)
		c.funcs[fd.Name] = sig
	}
	return nil
}

// ruleScope tracks variable bindings while checking one rule.
type ruleScope struct {
	vars  map[string]int // name → slot
	slots []VarInfo
}

func (s *ruleScope) lookup(name string) (int, bool) {
	i, ok := s.vars[name]
	return i, ok
}

func (s *ruleScope) bind(name string, t *value.Type) int {
	slot := len(s.slots)
	s.slots = append(s.slots, VarInfo{Name: name, Type: t})
	if name != "" {
		s.vars[name] = slot
	}
	return slot
}

func (c *checker) checkRule(rule *ast.Rule) (*Rule, error) {
	head := c.out.RelByName[rule.Head.Rel]
	if head == nil {
		return nil, errorf(rule.Head.Pos, "undeclared relation %q", rule.Head.Rel)
	}
	if head.Role == ast.RoleInput {
		return nil, errorf(rule.Head.Pos, "input relation %q cannot be a rule head", head.Name)
	}
	if len(rule.Head.Args) != head.Arity() {
		return nil, errorf(rule.Head.Pos, "relation %q has %d columns but %d arguments given",
			head.Name, head.Arity(), len(rule.Head.Args))
	}
	scope := &ruleScope{vars: make(map[string]int)}
	out := &Rule{Head: head, Pos: rule.Pos}

	for ti, term := range rule.Body {
		switch term := term.(type) {
		case *ast.Literal:
			lt, err := c.checkLiteral(term, scope)
			if err != nil {
				return nil, err
			}
			out.Body = append(out.Body, lt)
		case *ast.Cond:
			e, err := c.checkExpr(term.Expr, scope, value.BoolType)
			if err != nil {
				return nil, err
			}
			out.Body = append(out.Body, &CondTerm{Expr: e, Pos: term.Pos})
		case *ast.Assign:
			if _, exists := scope.lookup(term.Var); exists {
				return nil, errorf(term.Pos, "variable %q already bound", term.Var)
			}
			e, err := c.checkExpr(term.Expr, scope, nil)
			if err != nil {
				return nil, err
			}
			slot := scope.bind(term.Var, e.Type())
			out.Body = append(out.Body, &AssignTerm{Slot: slot, Expr: e, Pos: term.Pos})
		case *ast.GroupBy:
			if ti != len(rule.Body)-1 {
				return nil, errorf(term.Pos, "group_by must be the last term of a rule body")
			}
			gb, err := c.checkGroupBy(term, scope)
			if err != nil {
				return nil, err
			}
			out.Body = append(out.Body, gb)
			out.GroupBy = gb
		default:
			return nil, errorf(term.Position(), "unsupported body term")
		}
	}

	// After a group_by, only the keys and the aggregate result are in scope.
	headScope := scope
	if out.GroupBy != nil {
		headScope = &ruleScope{vars: make(map[string]int), slots: scope.slots}
		for _, ks := range out.GroupBy.KeySlots {
			headScope.vars[scope.slots[ks].Name] = ks
		}
		headScope.vars[scope.slots[out.GroupBy.OutSlot].Name] = out.GroupBy.OutSlot
	}
	for i, arg := range rule.Head.Args {
		e, err := c.checkExpr(arg, headScope, head.Cols[i].Type)
		if err != nil {
			return nil, err
		}
		out.HeadExprs = append(out.HeadExprs, e)
	}
	out.Slots = headScope.slots
	return out, nil
}

func (c *checker) checkLiteral(lit *ast.Literal, scope *ruleScope) (*LiteralTerm, error) {
	rel := c.out.RelByName[lit.Rel]
	if rel == nil {
		return nil, errorf(lit.Pos, "undeclared relation %q", lit.Rel)
	}
	if len(lit.Args) != rel.Arity() {
		return nil, errorf(lit.Pos, "relation %q has %d columns but %d arguments given",
			rel.Name, rel.Arity(), len(lit.Args))
	}
	lt := &LiteralTerm{
		Rel:       rel,
		Negated:   lit.Negated,
		BindSlots: make([]int, rel.Arity()),
		Pos:       lit.Pos,
	}
	for i := range lt.BindSlots {
		lt.BindSlots[i] = -1
	}
	for i, arg := range lit.Args {
		colType := rel.Cols[i].Type
		switch arg := arg.(type) {
		case *ast.Wildcard:
			continue
		case *ast.Var:
			if slot, bound := scope.lookup(arg.Name); bound {
				// Repeated variable: equality check against the column.
				if !scope.slots[slot].Type.Equal(colType) {
					return nil, errorf(arg.Pos, "variable %q has type %s but column %s of %s has type %s",
						arg.Name, scope.slots[slot].Type, rel.Cols[i].Name, rel.Name, colType)
				}
				lt.Checks = append(lt.Checks, ColCheck{Col: i, Expr: &VarRef{Slot: slot, Name: arg.Name, T: colType}})
				continue
			}
			if lit.Negated {
				return nil, errorf(arg.Pos, "variable %q in negated literal must be bound by a positive term", arg.Name)
			}
			slot := scope.bind(arg.Name, colType)
			lt.BindSlots[i] = slot
		default:
			e, err := c.checkExpr(arg, scope, colType)
			if err != nil {
				return nil, err
			}
			lt.Checks = append(lt.Checks, ColCheck{Col: i, Expr: e})
		}
	}
	return lt, nil
}

func (c *checker) checkGroupBy(gb *ast.GroupBy, scope *ruleScope) (*GroupByTerm, error) {
	term := &GroupByTerm{Agg: gb.Agg, Pos: gb.Pos}
	seen := make(map[string]bool)
	for _, k := range gb.Keys {
		if seen[k] {
			return nil, errorf(gb.Pos, "duplicate group_by key %q", k)
		}
		seen[k] = true
		slot, ok := scope.lookup(k)
		if !ok {
			return nil, errorf(gb.Pos, "group_by key %q is not bound", k)
		}
		term.KeySlots = append(term.KeySlots, slot)
	}
	var outType *value.Type
	switch gb.Agg {
	case "count":
		outType = value.IntType
	case "sum", "min", "max":
		arg, err := c.checkExpr(gb.Arg, scope, nil)
		if err != nil {
			return nil, err
		}
		if gb.Agg == "sum" && !arg.Type().IsNumeric() {
			return nil, errorf(gb.Pos, "sum requires a numeric argument, got %s", arg.Type())
		}
		term.Arg = arg
		outType = arg.Type()
	default:
		return nil, errorf(gb.Pos, "unknown aggregate %q", gb.Agg)
	}
	if _, exists := scope.lookup(gb.Var); exists {
		return nil, errorf(gb.Pos, "variable %q already bound", gb.Var)
	}
	term.OutType = outType
	term.OutSlot = scope.bind(gb.Var, outType)
	return term, nil
}

// checkExpr type-checks e. If expected is non-nil the expression must have
// that type (integer literals adapt to it); otherwise the type is
// synthesized.
func (c *checker) checkExpr(e ast.Expr, scope *ruleScope, expected *value.Type) (Expr, error) {
	out, err := c.synthExpr(e, scope, expected)
	if err != nil {
		return nil, err
	}
	if expected != nil && !out.Type().Equal(expected) {
		return nil, errorf(e.Position(), "expression has type %s, expected %s", out.Type(), expected)
	}
	return out, nil
}

func (c *checker) synthExpr(e ast.Expr, scope *ruleScope, expected *value.Type) (Expr, error) {
	switch e := e.(type) {
	case *ast.BoolLit:
		return &Const{V: value.Bool(e.Val), T: value.BoolType}, nil
	case *ast.StringLit:
		return &Const{V: value.String(e.Val), T: value.StringType}, nil
	case *ast.IntLit:
		return c.checkIntLit(e, expected)
	case *ast.Var:
		slot, ok := scope.lookup(e.Name)
		if !ok {
			return nil, errorf(e.Pos, "unbound variable %q", e.Name)
		}
		return &VarRef{Slot: slot, Name: e.Name, T: scope.slots[slot].Type}, nil
	case *ast.Wildcard:
		return nil, errorf(e.Pos, "wildcard _ is only valid as a literal argument")
	case *ast.Unary:
		return c.checkUnary(e, scope, expected)
	case *ast.Binary:
		return c.checkBinary(e, scope, expected)
	case *ast.FieldAccess:
		inner, err := c.synthExpr(e.E, scope, nil)
		if err != nil {
			return nil, err
		}
		t := inner.Type()
		if t.Kind != value.TStruct {
			return nil, errorf(e.Pos, "field access on non-struct type %s", t)
		}
		idx := t.FieldIndex(e.Field)
		if idx < 0 {
			return nil, errorf(e.Pos, "type %s has no field %q", t, e.Field)
		}
		return &FieldGet{E: inner, Index: idx, T: t.Fields[idx].Type}, nil
	case *ast.TupleExpr:
		var expTypes []*value.Type
		if expected != nil && expected.Kind == value.TTuple && len(expected.Fields) == len(e.Elems) {
			for _, f := range expected.Fields {
				expTypes = append(expTypes, f.Type)
			}
		}
		elems := make([]Expr, len(e.Elems))
		types := make([]*value.Type, len(e.Elems))
		for i, el := range e.Elems {
			var exp *value.Type
			if expTypes != nil {
				exp = expTypes[i]
			}
			ee, err := c.synthExpr(el, scope, exp)
			if err != nil {
				return nil, err
			}
			elems[i] = ee
			types[i] = ee.Type()
		}
		return &MkTuple{Elems: elems, T: value.TupleType(types...)}, nil
	case *ast.StructExpr:
		t, ok := c.out.Types[e.Name]
		if !ok {
			return nil, errorf(e.Pos, "unknown type %q", e.Name)
		}
		if len(e.Fields) != len(t.Fields) {
			return nil, errorf(e.Pos, "type %s has %d fields but %d initializers given",
				e.Name, len(t.Fields), len(e.Fields))
		}
		elems := make([]Expr, len(t.Fields))
		for _, f := range e.Fields {
			idx := t.FieldIndex(f.Name)
			if idx < 0 {
				return nil, errorf(e.Pos, "type %s has no field %q", e.Name, f.Name)
			}
			if elems[idx] != nil {
				return nil, errorf(e.Pos, "field %q initialized twice", f.Name)
			}
			fe, err := c.checkExpr(f.Expr, scope, t.Fields[idx].Type)
			if err != nil {
				return nil, err
			}
			elems[idx] = fe
		}
		return &MkTuple{Elems: elems, T: t}, nil
	case *ast.Cast:
		inner, err := c.synthExpr(e.E, scope, nil)
		if err != nil {
			return nil, err
		}
		target, err := c.resolveType(e.Type)
		if err != nil {
			return nil, err
		}
		if !inner.Type().IsNumeric() || !target.IsNumeric() {
			return nil, errorf(e.Pos, "cannot cast %s to %s (numeric types only)", inner.Type(), target)
		}
		return &CastOp{E: inner, T: target}, nil
	case *ast.IfElse:
		cond, err := c.checkExpr(e.Cond, scope, value.BoolType)
		if err != nil {
			return nil, err
		}
		then, err := c.synthExpr(e.Then, scope, expected)
		if err != nil {
			return nil, err
		}
		els, err := c.checkExpr(e.Else, scope, then.Type())
		if err != nil {
			return nil, err
		}
		return &IfOp{Cond: cond, Then: then, Else: els, T: then.Type()}, nil
	case *ast.Call:
		return c.checkCall(e, scope, expected)
	default:
		return nil, errorf(e.Position(), "unsupported expression")
	}
}

func (c *checker) checkIntLit(e *ast.IntLit, expected *value.Type) (Expr, error) {
	if expected != nil && expected.Kind == value.TBit {
		if e.Neg {
			return nil, errorf(e.Pos, "negative literal for unsigned type %s", expected)
		}
		if value.MaskBits(e.Val, expected.Width) != e.Val {
			return nil, errorf(e.Pos, "literal %d overflows %s", e.Val, expected)
		}
		return &Const{V: value.Bit(e.Val), T: expected}, nil
	}
	// Default to int.
	n := int64(e.Val)
	if e.Neg {
		if e.Val > 1<<63 {
			return nil, errorf(e.Pos, "literal -%d underflows int", e.Val)
		}
		n = -int64(e.Val)
	} else if e.Val > 1<<63-1 {
		return nil, errorf(e.Pos, "literal %d overflows int", e.Val)
	}
	return &Const{V: value.Int(n), T: value.IntType}, nil
}

func (c *checker) checkUnary(e *ast.Unary, scope *ruleScope, expected *value.Type) (Expr, error) {
	switch e.Op {
	case ast.OpNot:
		inner, err := c.checkExpr(e.E, scope, value.BoolType)
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "not", E: inner, T: value.BoolType}, nil
	case ast.OpNeg:
		inner, err := c.checkExpr(e.E, scope, value.IntType)
		if err != nil {
			return nil, err
		}
		return &UnOp{Op: "-", E: inner, T: value.IntType}, nil
	case ast.OpBitNot:
		inner, err := c.synthExpr(e.E, scope, expected)
		if err != nil {
			return nil, err
		}
		if !inner.Type().IsNumeric() {
			return nil, errorf(e.Pos, "operator ~ requires a numeric operand, got %s", inner.Type())
		}
		return &UnOp{Op: "~", E: inner, Width: inner.Type().Width, T: inner.Type()}, nil
	default:
		return nil, errorf(e.Pos, "unsupported unary operator")
	}
}

var cmpOpNames = map[ast.BinaryOp]string{
	ast.OpEq: "==", ast.OpNe: "!=", ast.OpLt: "<", ast.OpLe: "<=",
	ast.OpGt: ">", ast.OpGe: ">=",
}

func (c *checker) checkBinary(e *ast.Binary, scope *ruleScope, expected *value.Type) (Expr, error) {
	if op, isCmp := cmpOpNames[e.Op]; isCmp {
		l, r, err := c.checkSameType(e.L, e.R, scope)
		if err != nil {
			return nil, err
		}
		if op != "==" && op != "!=" {
			t := l.Type()
			if !t.IsNumeric() && t.Kind != value.TString && t.Kind != value.TBool {
				return nil, errorf(e.Pos, "operator %s not defined on %s", op, t)
			}
		}
		return &Cmp{Op: op, L: l, R: r}, nil
	}
	switch e.Op {
	case ast.OpAnd, ast.OpOr:
		l, err := c.checkExpr(e.L, scope, value.BoolType)
		if err != nil {
			return nil, err
		}
		r, err := c.checkExpr(e.R, scope, value.BoolType)
		if err != nil {
			return nil, err
		}
		kind := BinLogAnd
		if e.Op == ast.OpOr {
			kind = BinLogOr
		}
		return &BinOp{Kind: kind, L: l, R: r, T: value.BoolType}, nil
	case ast.OpConcat:
		l, err := c.checkExpr(e.L, scope, value.StringType)
		if err != nil {
			return nil, err
		}
		r, err := c.checkExpr(e.R, scope, value.StringType)
		if err != nil {
			return nil, err
		}
		return &BinOp{Kind: BinConcat, L: l, R: r, T: value.StringType}, nil
	case ast.OpShl, ast.OpShr:
		var exp *value.Type
		if expected != nil && expected.IsNumeric() {
			exp = expected
		}
		l, err := c.synthExpr(e.L, scope, exp)
		if err != nil {
			return nil, err
		}
		if !l.Type().IsNumeric() {
			return nil, errorf(e.Pos, "shift requires a numeric left operand, got %s", l.Type())
		}
		r, err := c.synthExpr(e.R, scope, value.IntType)
		if err != nil {
			return nil, err
		}
		if !r.Type().IsNumeric() {
			return nil, errorf(e.Pos, "shift amount must be numeric, got %s", r.Type())
		}
		kind := BinShl
		if e.Op == ast.OpShr {
			kind = BinShr
		}
		return &BinOp{Kind: kind, L: l, R: r, Width: l.Type().Width, T: l.Type()}, nil
	}
	// Arithmetic and bitwise operators over matching numeric types.
	l, r, err := c.checkSameTypeExpected(e.L, e.R, scope, expected)
	if err != nil {
		return nil, err
	}
	t := l.Type()
	if !t.IsNumeric() {
		return nil, errorf(e.Pos, "operator %s requires numeric operands, got %s", e.Op, t)
	}
	isBit := t.Kind == value.TBit
	var kind BinOpKind
	switch e.Op {
	case ast.OpAdd:
		kind = pick(isBit, BinAddBit, BinAddInt)
	case ast.OpSub:
		kind = pick(isBit, BinSubBit, BinSubInt)
	case ast.OpMul:
		kind = pick(isBit, BinMulBit, BinMulInt)
	case ast.OpDiv:
		kind = pick(isBit, BinDivBit, BinDivInt)
	case ast.OpMod:
		kind = pick(isBit, BinModBit, BinModInt)
	case ast.OpBitAnd:
		kind = BinAnd
	case ast.OpBitOr:
		kind = BinOr
	case ast.OpBitXor:
		kind = BinXor
	default:
		return nil, errorf(e.Pos, "unsupported binary operator %s", e.Op)
	}
	return &BinOp{Kind: kind, L: l, R: r, Width: t.Width, T: t}, nil
}

func pick(cond bool, a, b BinOpKind) BinOpKind {
	if cond {
		return a
	}
	return b
}

// checkSameType checks two operands that must share a type, letting integer
// literals adapt to the other side.
func (c *checker) checkSameType(le, re ast.Expr, scope *ruleScope) (Expr, Expr, error) {
	return c.checkSameTypeExpected(le, re, scope, nil)
}

func (c *checker) checkSameTypeExpected(le, re ast.Expr, scope *ruleScope, expected *value.Type) (Expr, Expr, error) {
	_, lLit := le.(*ast.IntLit)
	_, rLit := re.(*ast.IntLit)
	switch {
	case lLit && !rLit:
		r, err := c.synthExpr(re, scope, expected)
		if err != nil {
			return nil, nil, err
		}
		l, err := c.checkExpr(le, scope, r.Type())
		return l, r, err
	default:
		l, err := c.synthExpr(le, scope, expected)
		if err != nil {
			return nil, nil, err
		}
		r, err := c.checkExpr(re, scope, l.Type())
		if err != nil {
			return nil, nil, err
		}
		return l, r, nil
	}
}

var builtins = map[string]struct {
	arity int
}{
	"hash64": {1}, "len": {1}, "to_string": {1}, "substr": {3},
	"string_contains": {2}, "string_starts_with": {2},
	"min": {2}, "max": {2}, "abs": {1},
}

func (c *checker) checkCall(e *ast.Call, scope *ruleScope, expected *value.Type) (Expr, error) {
	b, ok := builtins[e.Name]
	if !ok {
		if sig, isUser := c.funcs[e.Name]; isUser {
			if len(e.Args) != len(sig.params) {
				return nil, errorf(e.Pos, "function %q takes %d arguments, got %d",
					e.Name, len(sig.params), len(e.Args))
			}
			args := make([]Expr, len(e.Args))
			nested := sig.frame
			for i, a := range e.Args {
				ae, err := c.checkExpr(a, scope, sig.params[i])
				if err != nil {
					return nil, err
				}
				args[i] = ae
				nested = max(nested, frameOf(ae))
			}
			call := &FuncCall{Name: e.Name, Args: args, Body: sig.body, T: sig.ret, Frame: len(args) + nested}
			c.out.FrameSize = max(c.out.FrameSize, call.Frame)
			return call, nil
		}
		return nil, errorf(e.Pos, "unknown function %q", e.Name)
	}
	if len(e.Args) != b.arity {
		return nil, errorf(e.Pos, "function %q takes %d arguments, got %d", e.Name, b.arity, len(e.Args))
	}
	var args []Expr
	addChecked := func(a ast.Expr, t *value.Type) error {
		ae, err := c.checkExpr(a, scope, t)
		if err != nil {
			return err
		}
		args = append(args, ae)
		return nil
	}
	var t *value.Type
	switch e.Name {
	case "hash64":
		a, err := c.synthExpr(e.Args[0], scope, nil)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		t = value.BitType(64)
	case "len":
		if err := addChecked(e.Args[0], value.StringType); err != nil {
			return nil, err
		}
		t = value.IntType
	case "to_string":
		a, err := c.synthExpr(e.Args[0], scope, nil)
		if err != nil {
			return nil, err
		}
		args = append(args, a)
		t = value.StringType
	case "substr":
		if err := addChecked(e.Args[0], value.StringType); err != nil {
			return nil, err
		}
		if err := addChecked(e.Args[1], value.IntType); err != nil {
			return nil, err
		}
		if err := addChecked(e.Args[2], value.IntType); err != nil {
			return nil, err
		}
		t = value.StringType
	case "string_contains", "string_starts_with":
		if err := addChecked(e.Args[0], value.StringType); err != nil {
			return nil, err
		}
		if err := addChecked(e.Args[1], value.StringType); err != nil {
			return nil, err
		}
		t = value.BoolType
	case "min", "max":
		l, r, err := c.checkSameTypeExpected(e.Args[0], e.Args[1], scope, expected)
		if err != nil {
			return nil, err
		}
		if !l.Type().IsNumeric() && l.Type().Kind != value.TString {
			return nil, errorf(e.Pos, "%s requires numeric or string arguments, got %s", e.Name, l.Type())
		}
		args = append(args, l, r)
		t = l.Type()
	case "abs":
		if err := addChecked(e.Args[0], value.IntType); err != nil {
			return nil, err
		}
		t = value.IntType
	}
	return &CallOp{Name: e.Name, Args: args, T: t}, nil
}
