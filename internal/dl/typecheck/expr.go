// Package typecheck resolves and checks a parsed Datalog program, producing
// a typed intermediate representation that the incremental engine compiles
// into dataflow. All cross-plane type checking (management-plane schemas and
// data-plane pipelines against control-plane relations) bottoms out in the
// types defined here.
package typecheck

import (
	"fmt"
	"strings"

	"repro/internal/dl/value"
)

// Expr is a typed, evaluable expression. Variables are resolved to slots in
// a per-rule environment.
type Expr interface {
	Type() *value.Type
	// Eval evaluates the expression in env. It returns an error only for
	// runtime faults (division by zero); type errors are impossible after
	// checking.
	Eval(env []value.Value) (value.Value, error)
}

// Const is a literal value.
type Const struct {
	V value.Value
	T *value.Type
}

// Type returns the expression's static type.
func (c *Const) Type() *value.Type { return c.T }

// Eval returns the constant.
func (c *Const) Eval([]value.Value) (value.Value, error) { return c.V, nil }

// VarRef reads a bound variable from its environment slot.
type VarRef struct {
	Slot int
	Name string
	T    *value.Type
}

// Type returns the expression's static type.
func (v *VarRef) Type() *value.Type { return v.T }

// Eval returns the slot's value.
func (v *VarRef) Eval(env []value.Value) (value.Value, error) { return env[v.Slot], nil }

// BinOpKind is a typed binary operation.
type BinOpKind int

// Typed binary operations. Comparison operators are folded into Cmp.
const (
	BinAddInt BinOpKind = iota
	BinSubInt
	BinMulInt
	BinDivInt
	BinModInt
	BinAddBit
	BinSubBit
	BinMulBit
	BinDivBit
	BinModBit
	BinAnd
	BinOr
	BinXor
	BinShl
	BinShr
	BinConcat
	BinLogAnd
	BinLogOr
)

// BinOp is a typed binary operation over already-checked operands.
type BinOp struct {
	Kind  BinOpKind
	L, R  Expr
	Width int // TBit result width for masking
	T     *value.Type
}

// Type returns the expression's static type.
func (b *BinOp) Type() *value.Type { return b.T }

// Eval evaluates the operation.
func (b *BinOp) Eval(env []value.Value) (value.Value, error) {
	// Short-circuit logical operators first.
	switch b.Kind {
	case BinLogAnd:
		l, err := b.L.Eval(env)
		if err != nil {
			return value.Value{}, err
		}
		if !l.Bool() {
			return value.Bool(false), nil
		}
		return b.R.Eval(env)
	case BinLogOr:
		l, err := b.L.Eval(env)
		if err != nil {
			return value.Value{}, err
		}
		if l.Bool() {
			return value.Bool(true), nil
		}
		return b.R.Eval(env)
	}
	l, err := b.L.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	r, err := b.R.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	switch b.Kind {
	case BinAddInt:
		return value.Int(l.Int() + r.Int()), nil
	case BinSubInt:
		return value.Int(l.Int() - r.Int()), nil
	case BinMulInt:
		return value.Int(l.Int() * r.Int()), nil
	case BinDivInt:
		if r.Int() == 0 {
			return value.Value{}, fmt.Errorf("division by zero")
		}
		if l.Int() == -1<<63 && r.Int() == -1 {
			return value.Int(-1 << 63), nil // wraparound, match hardware
		}
		return value.Int(l.Int() / r.Int()), nil
	case BinModInt:
		if r.Int() == 0 {
			return value.Value{}, fmt.Errorf("modulo by zero")
		}
		if l.Int() == -1<<63 && r.Int() == -1 {
			return value.Int(0), nil
		}
		return value.Int(l.Int() % r.Int()), nil
	case BinAddBit:
		return value.BitW(l.Bit()+r.Bit(), b.Width), nil
	case BinSubBit:
		return value.BitW(l.Bit()-r.Bit(), b.Width), nil
	case BinMulBit:
		return value.BitW(l.Bit()*r.Bit(), b.Width), nil
	case BinDivBit:
		if r.Bit() == 0 {
			return value.Value{}, fmt.Errorf("division by zero")
		}
		return value.BitW(l.Bit()/r.Bit(), b.Width), nil
	case BinModBit:
		if r.Bit() == 0 {
			return value.Value{}, fmt.Errorf("modulo by zero")
		}
		return value.BitW(l.Bit()%r.Bit(), b.Width), nil
	case BinAnd:
		return numish(l.Uint64()&r.Uint64(), b.T), nil
	case BinOr:
		return numish(l.Uint64()|r.Uint64(), b.T), nil
	case BinXor:
		return numish(l.Uint64()^r.Uint64(), b.T), nil
	case BinShl:
		sh := r.Uint64()
		if sh >= 64 {
			return numish(0, b.T), nil
		}
		if b.T.Kind == value.TBit {
			return value.BitW(l.Bit()<<sh, b.Width), nil
		}
		return value.Int(l.Int() << sh), nil
	case BinShr:
		sh := r.Uint64()
		if b.T.Kind == value.TBit {
			if sh >= 64 {
				return value.Bit(0), nil
			}
			return value.Bit(l.Bit() >> sh), nil
		}
		if sh >= 64 {
			sh = 63
		}
		return value.Int(l.Int() >> sh), nil
	case BinConcat:
		return value.String(l.Str() + r.Str()), nil
	default:
		panic("typecheck: bad binop kind")
	}
}

func numish(v uint64, t *value.Type) value.Value {
	if t.Kind == value.TBit {
		return value.BitW(v, t.Width)
	}
	return value.Int(int64(v))
}

// Cmp compares two operands of the same type. Op is one of "==", "!=", "<",
// "<=", ">", ">=".
type Cmp struct {
	Op   string
	L, R Expr
}

// Type returns bool.
func (c *Cmp) Type() *value.Type { return value.BoolType }

// Eval evaluates the comparison.
func (c *Cmp) Eval(env []value.Value) (value.Value, error) {
	l, err := c.L.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	r, err := c.R.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	var res bool
	switch c.Op {
	case "==":
		res = l.Equal(r)
	case "!=":
		res = !l.Equal(r)
	default:
		cv := l.Compare(r)
		// Int comparison must be signed; Compare on KindInt already is.
		switch c.Op {
		case "<":
			res = cv < 0
		case "<=":
			res = cv <= 0
		case ">":
			res = cv > 0
		case ">=":
			res = cv >= 0
		}
	}
	return value.Bool(res), nil
}

// UnOp is a typed unary operation.
type UnOp struct {
	Op    string // "not", "-", "~"
	E     Expr
	Width int
	T     *value.Type
}

// Type returns the expression's static type.
func (u *UnOp) Type() *value.Type { return u.T }

// Eval evaluates the operation.
func (u *UnOp) Eval(env []value.Value) (value.Value, error) {
	v, err := u.E.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	switch u.Op {
	case "not":
		return value.Bool(!v.Bool()), nil
	case "-":
		return value.Int(-v.Int()), nil
	case "~":
		if u.T.Kind == value.TBit {
			return value.BitW(^v.Bit(), u.Width), nil
		}
		return value.Int(^v.Int()), nil
	default:
		panic("typecheck: bad unop")
	}
}

// FieldGet extracts a struct or tuple field by index.
type FieldGet struct {
	E     Expr
	Index int
	T     *value.Type
}

// Type returns the expression's static type.
func (f *FieldGet) Type() *value.Type { return f.T }

// Eval evaluates the field access.
func (f *FieldGet) Eval(env []value.Value) (value.Value, error) {
	v, err := f.E.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	return v.Field(f.Index), nil
}

// MkTuple builds a tuple or struct value.
type MkTuple struct {
	Elems []Expr
	T     *value.Type
}

// Type returns the expression's static type.
func (m *MkTuple) Type() *value.Type { return m.T }

// Eval evaluates all fields and builds the tuple.
func (m *MkTuple) Eval(env []value.Value) (value.Value, error) {
	fields := make([]value.Value, len(m.Elems))
	for i, e := range m.Elems {
		v, err := e.Eval(env)
		if err != nil {
			return value.Value{}, err
		}
		fields[i] = v
	}
	return value.Tuple(fields...), nil
}

// CastOp converts between numeric types.
type CastOp struct {
	E Expr
	T *value.Type
}

// Type returns the target type.
func (c *CastOp) Type() *value.Type { return c.T }

// Eval evaluates the conversion.
func (c *CastOp) Eval(env []value.Value) (value.Value, error) {
	v, err := c.E.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	if c.T.Kind == value.TBit {
		return value.BitW(v.Uint64(), c.T.Width), nil
	}
	return value.Int(int64(v.Uint64())), nil
}

// IfOp is a conditional expression.
type IfOp struct {
	Cond, Then, Else Expr
	T                *value.Type
}

// Type returns the expression's static type.
func (i *IfOp) Type() *value.Type { return i.T }

// Eval evaluates the selected branch only.
func (i *IfOp) Eval(env []value.Value) (value.Value, error) {
	c, err := i.Cond.Eval(env)
	if err != nil {
		return value.Value{}, err
	}
	if c.Bool() {
		return i.Then.Eval(env)
	}
	return i.Else.Eval(env)
}

// CallOp applies a builtin function.
type CallOp struct {
	Name string
	Args []Expr
	T    *value.Type
}

// Type returns the expression's static type.
func (c *CallOp) Type() *value.Type { return c.T }

// Eval evaluates the builtin.
func (c *CallOp) Eval(env []value.Value) (value.Value, error) {
	args := make([]value.Value, len(c.Args))
	for i, a := range c.Args {
		v, err := a.Eval(env)
		if err != nil {
			return value.Value{}, err
		}
		args[i] = v
	}
	switch c.Name {
	case "hash64":
		return value.Bit(args[0].Hash()), nil
	case "len":
		return value.Int(int64(len(args[0].Str()))), nil
	case "to_string":
		if args[0].Kind() == value.KindString {
			return args[0], nil
		}
		return value.String(args[0].String()), nil
	case "substr":
		s := args[0].Str()
		from, to := clampIdx(args[1].Int(), len(s)), clampIdx(args[2].Int(), len(s))
		if from > to {
			from = to
		}
		return value.String(s[from:to]), nil
	case "string_contains":
		return value.Bool(strings.Contains(args[0].Str(), args[1].Str())), nil
	case "string_starts_with":
		return value.Bool(strings.HasPrefix(args[0].Str(), args[1].Str())), nil
	case "min":
		if args[0].Compare(args[1]) <= 0 {
			return args[0], nil
		}
		return args[1], nil
	case "max":
		if args[0].Compare(args[1]) >= 0 {
			return args[0], nil
		}
		return args[1], nil
	case "abs":
		n := args[0].Int()
		if n < 0 {
			n = -n
		}
		return value.Int(n), nil
	default:
		panic("typecheck: unknown builtin " + c.Name)
	}
}

func clampIdx(i int64, n int) int {
	if i < 0 {
		return 0
	}
	if i > int64(n) {
		return n
	}
	return int(i)
}

// FuncCall applies a user-defined function. The arguments are evaluated
// into a frame in the spare capacity past the end of the caller's env, and
// the body is evaluated with that frame as its environment (the body's
// variable references are the function's parameter slots). Calls nest as
// a stack in the same scratch: a caller that sizes env with
// Program.FrameSize spare capacity evaluates any call without allocating;
// with less, the call allocates its frame. The node itself holds no
// scratch, so one Expr tree serves every runtime built from a program.
type FuncCall struct {
	Name string
	Args []Expr
	Body Expr
	T    *value.Type
	// Frame is the scratch this call needs past the caller's env: its
	// parameters plus the deepest frame of a call nested in an argument
	// or in the body.
	Frame int
}

// Type returns the function's declared return type.
func (f *FuncCall) Type() *value.Type { return f.T }

// Eval evaluates the arguments and then the body.
func (f *FuncCall) Eval(env []value.Value) (value.Value, error) {
	base, n := len(env), len(f.Args)
	if cap(env)-base < f.Frame {
		grown := make([]value.Value, base, base+f.Frame)
		copy(grown, env)
		env = grown
	}
	// Arguments see the caller's slots; calls nested in them push their
	// frames past this one.
	frame := env[:base+n]
	for i, a := range f.Args {
		v, err := a.Eval(frame)
		if err != nil {
			return value.Value{}, err
		}
		frame[base+i] = v
	}
	return f.Body.Eval(frame[base:])
}

// frameOf is the deepest call frame evaluating e pushes: the largest
// Frame of a call in e (calls nested inside a call are counted in its
// Frame).
func frameOf(e Expr) int {
	deepest := 0
	var walk func(Expr)
	walk = func(e Expr) {
		switch e := e.(type) {
		case *FuncCall:
			deepest = max(deepest, e.Frame)
		case *BinOp:
			walk(e.L)
			walk(e.R)
		case *Cmp:
			walk(e.L)
			walk(e.R)
		case *UnOp:
			walk(e.E)
		case *FieldGet:
			walk(e.E)
		case *CastOp:
			walk(e.E)
		case *IfOp:
			walk(e.Cond)
			walk(e.Then)
			walk(e.Else)
		case *MkTuple:
			for _, x := range e.Elems {
				walk(x)
			}
		case *CallOp:
			for _, x := range e.Args {
				walk(x)
			}
		}
	}
	walk(e)
	return deepest
}
