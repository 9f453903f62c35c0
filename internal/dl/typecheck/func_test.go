package typecheck

import (
	"strings"
	"testing"

	"repro/internal/dl/parser"
	"repro/internal/dl/value"
)

func TestUserFunctions(t *testing.T) {
	src := `
	function double(x: int): int = x * 2
	function clamp(x: int, lo: int, hi: int): int = if (x < lo) lo else if (x > hi) hi else x
	function quad(x: int): int = double(double(x))
	input relation In(v: int)
	output relation O(a: int, b: int, c: int)
	O(double(v), clamp(v, 0, 10), quad(v)) :- In(v).
	`
	tree, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	env := []value.Value{value.Int(30)}
	r := prog.Rules[0]
	a, err := r.HeadExprs[0].Eval(env)
	if err != nil || a.Int() != 60 {
		t.Errorf("double(30) = %v, %v", a, err)
	}
	b, err := r.HeadExprs[1].Eval(env)
	if err != nil || b.Int() != 10 {
		t.Errorf("clamp(30, 0, 10) = %v, %v", b, err)
	}
	c, err := r.HeadExprs[2].Eval(env)
	if err != nil || c.Int() != 120 {
		t.Errorf("quad(30) = %v, %v", c, err)
	}
}

func TestUserFunctionErrors(t *testing.T) {
	cases := map[string]struct{ src, want string }{
		"recursion": {
			`function f(x: int): int = f(x)`, "unknown function"},
		"forward reference": {
			`function f(x: int): int = g(x)
			 function g(x: int): int = x`, "unknown function"},
		"redeclared": {
			`function f(x: int): int = x
			 function f(y: int): int = y`, "redeclared"},
		"builtin clash": {
			`function hash64(x: int): int = x`, "builtin"},
		"body type mismatch": {
			`function f(x: int): string = x + 1`, "expected string"},
		"bad arity at call": {
			`function f(x: int): int = x
			 input relation In(v: int)
			 output relation O(v: int)
			 O(f(v, v)) :- In(v).`, "takes 1 arguments"},
		"bad arg type": {
			`function f(x: int): int = x
			 input relation In(s: string)
			 output relation O(v: int)
			 O(f(s)) :- In(s).`, "expected int"},
		"dup param": {
			`function f(x: int, x: int): int = x`, "duplicate parameter"},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			tree, err := parser.Parse(c.src)
			if err == nil {
				_, err = Check(tree)
			}
			if err == nil {
				t.Fatalf("accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not contain %q", err, c.want)
			}
		})
	}
}

func TestUserFunctionRuntimeError(t *testing.T) {
	src := `
	function inv(x: int): int = 100 / x
	input relation In(v: int)
	output relation O(v: int)
	O(inv(v)) :- In(v).
	`
	tree, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Rules[0].HeadExprs[0].Eval([]value.Value{value.Int(0)}); err == nil {
		t.Fatalf("division by zero inside function did not error")
	}
	v, err := prog.Rules[0].HeadExprs[0].Eval([]value.Value{value.Int(4)})
	if err != nil || v.Int() != 25 {
		t.Fatalf("inv(4) = %v, %v", v, err)
	}
}

// TestFuncCallFrameInCallerScratch: user-function calls evaluate their
// arguments into the spare capacity of the caller's env, so an env with
// Program.FrameSize to spare evaluates nested calls (in arguments and in
// bodies) without allocating, and to the same values as an env with no
// spare capacity, whose calls allocate their frames.
func TestFuncCallFrameInCallerScratch(t *testing.T) {
	src := `
	function vgroup(v: bit<12>): bit<16> = ((v as int) + 4096) as bit<16>
	function double(x: int): int = x * 2
	function quad(x: int): int = double(double(x))
	function clamp(x: int, lo: int, hi: int): int = if (x < lo) lo else if (x > hi) hi else x
	input relation In(v: bit<12>, w: int)
	output relation O(g: bit<16>, c: int, q: int)
	O(vgroup(v), clamp(quad(w), double(w), quad(double(w)) - 1), quad(w) + double(w)) :- In(v, w).
	`
	tree, err := parser.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Check(tree)
	if err != nil {
		t.Fatal(err)
	}
	// clamp(quad(w), ...): clamp's 3 parameters, then quad's 1, then the
	// two nested doubles' 1 each.
	if prog.FrameSize != 6 {
		t.Fatalf("FrameSize = %d, want 6", prog.FrameSize)
	}
	head := prog.Rules[0].HeadExprs
	want := []int64{4096 + 7, 20, 30}
	eval := func(env []value.Value) {
		for i, e := range head {
			v, err := e.Eval(env)
			if err != nil {
				t.Fatal(err)
			}
			got := int64(v.Uint64())
			if e.Type().Kind == value.TInt {
				got = v.Int()
			}
			if got != want[i] {
				t.Fatalf("head %d = %d, want %d", i, got, want[i])
			}
		}
	}
	args := []value.Value{value.BitW(7, 12), value.Int(5)}
	eval(args) // no spare capacity: frames are allocated
	env := make([]value.Value, 2, 2+prog.FrameSize)
	copy(env, args)
	if allocs := testing.AllocsPerRun(100, func() { eval(env) }); allocs != 0 {
		t.Fatalf("calls with FrameSize spare capacity allocate %.1f times, want 0", allocs)
	}
}
