package p4of

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/p4"
	"repro/internal/p4rt"
	"repro/internal/snvs"
)

func compileSnvs(t *testing.T) *Pipeline {
	t.Helper()
	pl, err := Compile(snvs.Pipeline())
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	return pl
}

// fixturePrograms parses snvs and every test program of this package,
// by name.
func fixturePrograms(t *testing.T) map[string]*p4.Program {
	t.Helper()
	progs := map[string]*p4.Program{"snvs": snvs.Pipeline()}
	for name, src := range map[string]string{
		"conj": conjSrc, "negated": negatedSrc, "fwd": fwdSrc,
		"no-default": noDefaultSrc, "mix": mixSrc,
	} {
		prog, err := p4.ParseProgram(name, src)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		progs[name] = prog
	}
	return progs
}

// noDefaultSrc applies one unguarded table with no default action.
const noDefaultSrc = `
	header h { bit<8> f; }
	parser { state start { extract(h); transition accept; } }
	control Ingress {
		action a() { }
		table t { key = { h.f: exact; } actions = { a; } }
		apply { t.apply(); }
	}
	deparser { emit(h); }
`

// mixSrc applies one table keyed by ternary, optional and lpm matches.
const mixSrc = `
	header h { bit<8> a; bit<8> b; bit<16> c; }
	parser { state start { extract(h); transition accept; } }
	control Ingress {
		action ok() { }
		table t {
			key = { h.a: ternary; h.b: optional; h.c: lpm; }
			actions = { ok; }
		}
		apply { t.apply(); }
	}
	deparser { emit(h); }
`

func TestCompileSnvsPipeline(t *testing.T) {
	pl := compileSnvs(t)
	// Ten applied tables in control-flow order.
	wantOrder := []string{"tag_vlan", "in_vlan", "vlan_ok", "smac", "dmac",
		"flood", "acl_src", "mirror_ingress", "strip_tag", "add_tag"}
	if len(pl.Tables) != len(wantOrder) {
		t.Fatalf("tables = %d, want %d", len(pl.Tables), len(wantOrder))
	}
	for i, name := range wantOrder {
		if pl.Tables[i].Name != name || pl.Tables[i].ID != i {
			t.Errorf("table %d = %s/%d, want %s/%d",
				i, pl.Tables[i].Name, pl.Tables[i].ID, name, i)
		}
	}
	// Guards: tag_vlan requires the VLAN header, in_vlan its absence,
	// flood requires egress_spec==0.
	if g := pl.Table("tag_vlan").Guard; len(g) != 1 || g[0] != "vlan_present=1" {
		t.Errorf("tag_vlan guard = %v", g)
	}
	if g := pl.Table("in_vlan").Guard; len(g) != 1 || g[0] != "vlan_present=0" {
		t.Errorf("in_vlan guard = %v", g)
	}
	if g := pl.Table("flood").Guard; len(g) != 1 ||
		g[0] != "standard_metadata_egress_spec=0x0" {
		t.Errorf("flood guard = %v", g)
	}
	// Chaining: every non-final table gotos its successor.
	for i, ct := range pl.Tables {
		wantNext := -1
		if i+1 < len(pl.Tables) {
			wantNext = i + 1
		}
		if ct.Next != wantNext {
			t.Errorf("table %s next = %d, want %d", ct.Name, ct.Next, wantNext)
		}
	}
}

func TestFlowForEntry(t *testing.T) {
	pl := compileSnvs(t)
	fl, err := pl.FlowForEntry(&p4rt.TableEntry{
		Table:   "in_vlan",
		Matches: []p4.FieldMatch{{Value: 3}},
		Action:  "set_vlan", Params: []uint64{10},
	})
	if err != nil {
		t.Fatalf("FlowForEntry: %v", err)
	}
	if fl.Table != pl.Table("in_vlan").ID {
		t.Errorf("flow table = %d", fl.Table)
	}
	if !strings.Contains(fl.Match, "vlan_present=0") ||
		!strings.Contains(fl.Match, "standard_metadata_ingress_port=0x3") {
		t.Errorf("flow match = %q", fl.Match)
	}
	if !strings.Contains(fl.Actions, "set_field:0xa->meta_vlan") ||
		!strings.Contains(fl.Actions, "goto_table:") {
		t.Errorf("flow actions = %q", fl.Actions)
	}
	// dmac forward entry sets egress_spec and writes its output to the
	// action set, and still gotos (flood is skipped by its own
	// egress_spec guard).
	fl, err = pl.FlowForEntry(&p4rt.TableEntry{
		Table:   "dmac",
		Matches: []p4.FieldMatch{{Value: 10}, {Value: 0xaa}},
		Action:  "forward", Params: []uint64{7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fl.Actions, "set_field:0x7->standard_metadata_egress_spec") ||
		!strings.Contains(fl.Actions, "write_actions(output:0x7)") {
		t.Errorf("dmac actions = %q", fl.Actions)
	}
	// Unknown tables are rejected.
	if _, err := pl.FlowForEntry(&p4rt.TableEntry{Table: "nope"}); err == nil {
		t.Errorf("unknown table accepted")
	}
}

func TestMissFlows(t *testing.T) {
	pl := compileSnvs(t)
	// vlan_ok's miss drops: it clears the action set and goes on.
	miss, err := pl.MissFlow("vlan_ok")
	if err != nil || miss == nil {
		t.Fatalf("MissFlow: %v, %v", miss, err)
	}
	if miss.Priority != 0 || miss.Actions != "clear_actions,goto_table:3" {
		t.Errorf("vlan_ok miss = %+v", miss)
	}
	// smac's miss sends a digest to the controller and continues.
	miss, err = pl.MissFlow("smac")
	if err != nil || miss == nil {
		t.Fatal(err)
	}
	if !strings.Contains(miss.Actions, "controller(digest=learn)") ||
		!strings.Contains(miss.Actions, "goto_table:") {
		t.Errorf("smac miss = %+v", miss)
	}
}

func TestFlowsDumpAndRender(t *testing.T) {
	pl := compileSnvs(t)
	rt, err := p4.NewRuntime(snvs.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertEntry("in_vlan", p4.Entry{
		Matches: []p4.FieldMatch{{Value: 1}},
		Action:  "set_vlan", Params: []uint64{10},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertEntry("dmac", p4.Entry{
		Matches: []p4.FieldMatch{{Value: 10}, {Value: 0xaa}},
		Action:  "forward", Params: []uint64{2},
	}); err != nil {
		t.Fatal(err)
	}
	flows, err := pl.Flows(rt)
	if err != nil {
		t.Fatalf("Flows: %v", err)
	}
	// 2 installed entries + every table's miss and pass-through flows:
	// a miss flow per table with a default, and a pass-through flow per
	// guarded table (snvs has a default on every table).
	misses := 0
	for _, ct := range pl.Tables {
		if ct.table.DefaultAction.Action != "" {
			misses++
		}
		if len(ct.Guard) > 0 {
			misses++
		}
	}
	if len(flows) != 2+misses {
		t.Fatalf("flows = %d, want %d", len(flows), 2+misses)
	}
	// Sorted by table then priority descending.
	for i := 1; i < len(flows); i++ {
		if flows[i-1].Table > flows[i].Table {
			t.Fatalf("flows not sorted by table")
		}
		if flows[i-1].Table == flows[i].Table && flows[i-1].Priority < flows[i].Priority {
			t.Fatalf("flows not sorted by priority")
		}
	}
	text := Render(flows)
	if !strings.Contains(text, "table=1, priority=100") ||
		!strings.Contains(text, "actions=") {
		t.Errorf("render output:\n%s", text)
	}
}

func TestCompileErrors(t *testing.T) {
	// A table applied twice is out of scope.
	prog, err := p4.ParseProgram("dup", `
		header h { bit<8> f; }
		parser { state start { extract(h); transition accept; } }
		control Ingress {
			action a() { }
			table t { key = { h.f: exact; } actions = { a; } }
			apply { t.apply(); t.apply(); }
		}
		deparser { emit(h); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Errorf("double apply accepted: %v", err)
	}
	// An else branch of an inequality guard cannot compile.
	prog, err = p4.ParseProgram("neq", `
		header h { bit<8> f; }
		parser { state start { extract(h); transition accept; } }
		control Ingress {
			action a() { }
			table t { key = { h.f: exact; } actions = { a; } }
			apply { if (h.f == 1) { } else { t.apply(); } }
		}
		deparser { emit(h); }
	`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Compile(prog); err == nil || !strings.Contains(err.Error(), "negation") {
		t.Errorf("uncompilable else accepted: %v", err)
	}
}

func TestCompileActionEdgeCases(t *testing.T) {
	pl := compileSnvs(t)
	// Default action of tag_vlan uses a field expression source.
	miss, err := pl.MissFlow("tag_vlan")
	if err != nil || miss == nil {
		t.Fatal(err)
	}
	if !strings.Contains(miss.Actions, "set_field:vlan_vid->meta_vlan") {
		t.Errorf("tag_vlan miss = %+v", miss)
	}
	// push_tag compiles header validity manipulation.
	fl, err := pl.FlowForEntry(&p4rt.TableEntry{
		Table:   "add_tag",
		Matches: []p4.FieldMatch{{Value: 3}},
		Action:  "push_tag",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fl.Actions, "push_vlan:0x8100") {
		t.Errorf("push_tag actions = %q", fl.Actions)
	}
	// pop_tag strips.
	fl, err = pl.FlowForEntry(&p4rt.TableEntry{
		Table:   "strip_tag",
		Matches: []p4.FieldMatch{{Value: 3}},
		Action:  "pop_tag",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fl.Actions, "strip_vlan") {
		t.Errorf("pop_tag actions = %q", fl.Actions)
	}
	// clone compiles.
	fl, err = pl.FlowForEntry(&p4rt.TableEntry{
		Table:   "mirror_ingress",
		Matches: []p4.FieldMatch{{Value: 1}},
		Action:  "clone_to", Params: []uint64{4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fl.Actions, "clone(output:0x4)") {
		t.Errorf("clone actions = %q", fl.Actions)
	}
	// Unknown action is rejected; wrong match arity is rejected.
	if _, err := pl.FlowForEntry(&p4rt.TableEntry{
		Table: "dmac", Matches: []p4.FieldMatch{{Value: 1}, {Value: 2}},
		Action: "frobnicate",
	}); err == nil {
		t.Errorf("unknown action accepted")
	}
	if _, err := pl.FlowForEntry(&p4rt.TableEntry{
		Table: "dmac", Matches: []p4.FieldMatch{{Value: 1}},
		Action: "forward", Params: []uint64{1},
	}); err == nil {
		t.Errorf("short match list accepted")
	}
	if _, err := pl.MissFlow("nope"); err == nil {
		t.Errorf("unknown table MissFlow accepted")
	}
	// A table with no default action has no miss flow: none in snvs, so
	// construct one.
	pl2 := mustCompile(t, noDefaultSrc)
	miss, err = pl2.MissFlow("t")
	if err != nil || miss != nil {
		t.Errorf("no-default miss = %+v, %v", miss, err)
	}
}

func TestFlowForOptionalAndTernary(t *testing.T) {
	pl := mustCompile(t, mixSrc)
	fl, err := pl.FlowForEntry(&p4rt.TableEntry{
		Table: "t",
		Matches: []p4.FieldMatch{
			{Value: 0x10, Mask: 0xf0},
			{Wildcard: true},
			{Value: 0x1200, PrefixLen: 8},
		},
		Priority: 5,
		Action:   "ok",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(fl.Match, "h_a=0x10/0xf0") ||
		strings.Contains(fl.Match, "h_b") ||
		!strings.Contains(fl.Match, "h_c=0x1200/8") {
		t.Errorf("match = %q", fl.Match)
	}
	if fl.Priority != 105 {
		t.Errorf("priority = %d", fl.Priority)
	}
}

// TestEveryTableHasEmptyMatchFlow: OpenFlow drops a packet that no flow
// of the current table matches, while P4 skips a table whose guard the
// packet fails and applies nothing on a miss without a default action.
// So every compiled table needs a priority-0 flow that matches
// everything: in snvs, an untagged frame must pass tag_vlan (guarded by
// vlan_present=1) and a known-unicast frame must pass flood (guarded by
// egress_spec=0).
func TestEveryTableHasEmptyMatchFlow(t *testing.T) {
	progs := fixturePrograms(t)
	for name, prog := range progs {
		pl, err := Compile(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		rt, err := p4.NewRuntime(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		flows, err := pl.Flows(rt)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ct := range pl.Tables {
			var pass *Flow
			for i := range flows {
				if fl := &flows[i]; fl.Table == ct.ID && fl.Priority == 0 && fl.Match == "" {
					pass = fl
				}
			}
			if pass == nil {
				t.Errorf("%s: table %d %s has no priority-0 empty-match flow:\n%s", name, ct.ID, ct.Name, Render(flows))
				continue
			}
			// A guarded table passes what its guard skips on to the next
			// table, or ends the pipeline at the last one.
			if len(ct.Guard) > 0 {
				want := ""
				if ct.Next >= 0 {
					want = fmt.Sprintf("goto_table:%d", ct.Next)
				}
				if pass.Actions != want {
					t.Errorf("%s: table %s passes skipped packets with %q, want %q", name, ct.Name, pass.Actions, want)
				}
			}
		}
	}
}

// TestOutputWaitsForEgress: P4's output(p) only sets egress_spec, and
// the switch emits the packet after the egress tables have run; OpenFlow
// does the same with the action set, which runs after the last table.
// So no compiled flow of snvs or of any test program may apply an
// output: or group: action outside write_actions (an immediate output
// would send the packet before strip_tag and add_tag act on it), and a
// forward entry must set egress_spec, which flood's guard reads.
func TestOutputWaitsForEgress(t *testing.T) {
	progs := fixturePrograms(t)
	for name, prog := range progs {
		pl, err := Compile(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ct := range pl.Tables {
			flows, err := pl.MissFlows(ct.Name)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			// One entry per action the table offers, every key matching 1
			// and every parameter 7.
			matches := make([]p4.FieldMatch, len(ct.table.Keys))
			for i := range matches {
				matches[i] = p4.FieldMatch{Value: 1, Mask: 1, PrefixLen: 1}
			}
			for _, a := range ct.table.Actions {
				params := make([]uint64, len(prog.ActionByName(a).Params))
				for i := range params {
					params[i] = 7
				}
				fl, err := pl.FlowForEntry(&p4rt.TableEntry{Table: ct.Name, Matches: matches, Action: a, Params: params})
				if err != nil {
					t.Fatalf("%s: %s/%s: %v", name, ct.Name, a, err)
				}
				flows = append(flows, fl)
			}
			for _, fl := range flows {
				for _, act := range topLevelActions(fl.Actions) {
					if strings.HasPrefix(act, "output:") || strings.HasPrefix(act, "group:") {
						t.Errorf("%s: table %s applies %s before the egress tables: actions=%s", name, ct.Name, act, fl.Actions)
					}
				}
			}
		}
	}

	pl := compileSnvs(t)
	fl, err := pl.FlowForEntry(&p4rt.TableEntry{
		Table: "dmac", Matches: []p4.FieldMatch{{Value: 10}, {Value: 0xaa}},
		Action: "forward", Params: []uint64{7},
	})
	if err != nil {
		t.Fatal(err)
	}
	if want := "set_field:0x7->standard_metadata_egress_spec,write_actions(output:0x7),goto_table:5"; fl.Actions != want {
		t.Errorf("dmac forward actions = %q, want %q", fl.Actions, want)
	}
}

// topLevelActions splits an action list at the commas outside
// parentheses: "a,clone(output:1),b" is three actions.
func topLevelActions(actions string) []string {
	var out []string
	depth, start := 0, 0
	for i, c := range actions {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				out = append(out, actions[start:i])
				start = i + 1
			}
		}
	}
	return append(out, actions[start:])
}
