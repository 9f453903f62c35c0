package p4of

import (
	"strings"
	"testing"

	"repro/internal/p4"
	"repro/internal/p4rt"
)

// mustParse compiles a small one-off program for condition tests.
func mustCompile(t *testing.T, src string) *Pipeline {
	t.Helper()
	prog, err := p4.ParseProgram("cond", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	pl, err := Compile(prog)
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	return pl
}

func wantCompileError(t *testing.T, src, substr string) {
	t.Helper()
	prog, err := p4.ParseProgram("cond", src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if _, err := Compile(prog); err == nil || !strings.Contains(err.Error(), substr) {
		t.Fatalf("Compile err = %v, want substring %q", err, substr)
	}
}

const condHdr = `
header eth { bit<48> dst; bit<16> etype; }
parser { state start { extract(eth); transition accept; } }
`

// The programs the condition tests compile, which
// TestEveryTableHasEmptyMatchFlow also checks.
const (
	// conjSrc guards one table by a conjunction.
	conjSrc = condHdr + `
control Ingress {
    action fwd(bit<16> p) { output(p); }
    table t { key = { eth.dst: exact; } actions = { fwd; } }
    apply {
        if (eth.isValid() && eth.etype == 0x800) { t.apply(); }
    }
}
deparser { emit(eth); }`
	// negatedSrc applies one table under a negated validity test and
	// another in its else branch.
	negatedSrc = condHdr + `
control Ingress {
    action fwd(bit<16> p) { output(p); }
    table a { key = { eth.dst: exact; } actions = { fwd; } }
    table b { key = { eth.dst: exact; } actions = { fwd; } }
    apply {
        if (!eth.isValid()) { a.apply(); } else { b.apply(); }
    }
}
deparser { emit(eth); }`
	// fwdSrc applies one unguarded table with no default action.
	fwdSrc = condHdr + `
control Ingress {
    action fwd(bit<16> p) { output(p); }
    table a { key = { eth.dst: exact; } actions = { fwd; } }
    apply { a.apply(); }
}
deparser { emit(eth); }`
)

func TestCondConjunction(t *testing.T) {
	pl := mustCompile(t, conjSrc)
	g := pl.Table("t").Guard
	if len(g) != 2 || g[0] != "eth_present=1" || g[1] != "eth_etype=0x800" {
		t.Fatalf("guard = %v", g)
	}
}

func TestCondNegatedValidity(t *testing.T) {
	// not(isValid) has a compilable negation, so both branches work.
	pl := mustCompile(t, negatedSrc)
	if g := pl.Table("a").Guard; len(g) != 1 || g[0] != "eth_present=0" {
		t.Errorf("a guard = %v", g)
	}
	if g := pl.Table("b").Guard; len(g) != 1 || g[0] != "eth_present=1" {
		t.Errorf("b guard = %v", g)
	}
}

func TestCondRejectsElseOnEquality(t *testing.T) {
	// Field equality has no single-flow negation: an else branch under it
	// must be rejected, not silently compiled wrong.
	wantCompileError(t, condHdr+`
control Ingress {
    action fwd(bit<16> p) { output(p); }
    table a { key = { eth.dst: exact; } actions = { fwd; } }
    table b { key = { eth.dst: exact; } actions = { fwd; } }
    apply {
        if (eth.etype == 0x800) { a.apply(); } else { b.apply(); }
    }
}
deparser { emit(eth); }`, "no compilable negation")
}

func TestCondRejectsDisjunction(t *testing.T) {
	wantCompileError(t, condHdr+`
control Ingress {
    action fwd(bit<16> p) { output(p); }
    table a { key = { eth.dst: exact; } actions = { fwd; } }
    apply {
        if (eth.etype == 0x800 || eth.etype == 0x806) { a.apply(); }
    }
}
deparser { emit(eth); }`, `"or" conditions`)
}

func TestCondRejectsInequalityMatch(t *testing.T) {
	wantCompileError(t, condHdr+`
control Ingress {
    action fwd(bit<16> p) { output(p); }
    table a { key = { eth.dst: exact; } actions = { fwd; } }
    apply {
        if (eth.etype != 0x800) { a.apply(); }
    }
}
deparser { emit(eth); }`, "only ==")
}

func TestCondRejectsFieldToField(t *testing.T) {
	wantCompileError(t, condHdr+`
control Ingress {
    action fwd(bit<16> p) { output(p); }
    table a { key = { eth.dst: exact; } actions = { fwd; } }
    apply {
        if (eth.etype == eth.etype) { a.apply(); }
    }
}
deparser { emit(eth); }`, "field-to-constant")
}

func TestCompileRejectsDoubleApply(t *testing.T) {
	wantCompileError(t, condHdr+`
control Ingress {
    action fwd(bit<16> p) { output(p); }
    table a { key = { eth.dst: exact; } actions = { fwd; } }
    apply { a.apply(); a.apply(); }
}
deparser { emit(eth); }`, "applied twice")
}

func TestFlowForEntryErrors(t *testing.T) {
	pl := mustCompile(t, fwdSrc)
	if _, err := pl.FlowForEntry(&p4rt.TableEntry{Table: "nope"}); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := pl.FlowForEntry(&p4rt.TableEntry{Table: "a", Action: "fwd"}); err == nil {
		t.Error("short match list accepted")
	}
	if _, err := pl.FlowForEntry(&p4rt.TableEntry{
		Table: "a", Action: "ghost",
		Matches: []p4.FieldMatch{{Value: 1}},
	}); err == nil {
		t.Error("unknown action accepted")
	}
	if _, err := pl.MissFlow("nope"); err == nil {
		t.Error("MissFlow on unknown table accepted")
	}
}

func TestMissFlowAbsentDefault(t *testing.T) {
	pl := mustCompile(t, fwdSrc)
	miss, err := pl.MissFlow("a")
	if err != nil {
		t.Fatal(err)
	}
	if miss != nil {
		t.Fatalf("table without default_action produced miss flow %+v", miss)
	}
}

func TestRenderEmptyMatch(t *testing.T) {
	out := Render([]Flow{{Table: 0, Priority: 0, Actions: "drop"}})
	if !strings.Contains(out, "table=0, priority=0, * actions=drop") {
		t.Fatalf("Render = %q", out)
	}
}
