// Package p4of compiles P4 subset programs onto an OpenFlow-style
// pipeline — the "p4c-of" component the paper's repository includes so
// that Nerpa programs can run on high-performance flow-programmable
// software switches.
//
// The compilation is structural:
//
//   - every applied P4 table becomes an OpenFlow table id, numbered in
//     control-flow order (ingress first, then egress);
//   - the conditions guarding a table's application compile into match
//     guards on its flows (header validity → a presence match, field
//     equality → a field match);
//   - a control-plane table entry becomes one flow: the guard plus the
//     entry's key matches, with the action body compiled to an OpenFlow
//     action list and a goto to the next table in sequence; output and
//     multicast write the action set, so the packet leaves only after
//     the egress tables, and drop clears it and goes on, as P4's drop
//     only marks the packet for the tables after it;
//   - a table's default action becomes its miss flow: priority 0, or 1
//     under the table's guard;
//   - OpenFlow drops a packet that no flow of the current table matches,
//     where P4 skips a table whose guard the packet fails and applies
//     nothing on a miss without a default action, so a guarded table,
//     and a table without a default action, also gets a priority-0
//     empty-match flow that passes the packet on to the next table.
//
// Conditions outside this subset (disjunctions, negated comparisons over
// unsupported shapes) are rejected at compile time rather than compiled
// incorrectly.
package p4of

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/p4"
	"repro/internal/p4rt"
)

// Flow is an OpenFlow-style rule (shared with the Fig. 3 baseline model).
type Flow = baseline.Flow

// CompiledTable is one P4 table placed in the OpenFlow pipeline.
type CompiledTable struct {
	Name  string
	ID    int
	Guard []string // match conjuncts from enclosing conditions
	Next  int      // goto target after a hit (-1: end of pipeline)
	table *p4.Table
}

// Pipeline is a compiled program.
type Pipeline struct {
	Program string
	Tables  []*CompiledTable
	byName  map[string]*CompiledTable
	prog    *p4.Program
}

// Compile lowers a validated P4 program onto the OpenFlow pipeline.
func Compile(prog *p4.Program) (*Pipeline, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	pl := &Pipeline{Program: prog.Name, byName: make(map[string]*CompiledTable), prog: prog}
	collect := func(ctl *p4.Control) error {
		if ctl == nil {
			return nil
		}
		return pl.collect(ctl.Apply, nil)
	}
	if err := collect(prog.Ingress); err != nil {
		return nil, err
	}
	if err := collect(prog.Egress); err != nil {
		return nil, err
	}
	// Chain each table to the next applied table.
	for i, ct := range pl.Tables {
		if i+1 < len(pl.Tables) {
			ct.Next = pl.Tables[i+1].ID
		} else {
			ct.Next = -1
		}
	}
	return pl, nil
}

func (pl *Pipeline) collect(stmts []p4.ControlStmt, guard []string) error {
	for _, cs := range stmts {
		switch cs := cs.(type) {
		case *p4.ApplyTable:
			if _, dup := pl.byName[cs.Table]; dup {
				return fmt.Errorf("p4of: table %q applied twice (unsupported)", cs.Table)
			}
			ct := &CompiledTable{
				Name:  cs.Table,
				ID:    len(pl.Tables),
				Guard: append([]string(nil), guard...),
				table: pl.prog.TableByName(cs.Table),
			}
			pl.Tables = append(pl.Tables, ct)
			pl.byName[cs.Table] = ct
		case *p4.If:
			thenGuard, elseGuard, err := compileCond(cs.Cond)
			if err != nil {
				return err
			}
			if err := pl.collect(cs.Then, append(append([]string(nil), guard...), thenGuard...)); err != nil {
				return err
			}
			if len(cs.Else) > 0 {
				if elseGuard == nil {
					return fmt.Errorf("p4of: condition has no compilable negation for its else branch")
				}
				if err := pl.collect(cs.Else, append(append([]string(nil), guard...), elseGuard...)); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// compileCond lowers a condition to match conjuncts for the then branch
// and (when expressible) for the else branch.
func compileCond(cond p4.BoolExpr) (then, els []string, err error) {
	switch c := cond.(type) {
	case *p4.IsValid:
		return []string{c.Header + "_present=1"}, []string{c.Header + "_present=0"}, nil
	case *p4.Compare:
		l, lok := c.L.(*p4.FieldExpr)
		r, rok := c.R.(*p4.ConstExpr)
		if !lok || !rok {
			return nil, nil, fmt.Errorf("p4of: only field-to-constant comparisons compile to matches")
		}
		if c.Op != "==" {
			return nil, nil, fmt.Errorf("p4of: only == comparisons compile to matches")
		}
		// Equality has no single-flow negation in OpenFlow: no else guard.
		return []string{fmt.Sprintf("%s=%#x", fieldName(l.Ref), r.Value)}, nil, nil
	case *p4.BoolOp:
		switch c.Op {
		case "and":
			lt, _, err := compileCond(c.L)
			if err != nil {
				return nil, nil, err
			}
			rt, _, err := compileCond(c.R)
			if err != nil {
				return nil, nil, err
			}
			return append(lt, rt...), nil, nil
		case "not":
			lt, le, err := compileCond(c.L)
			if err != nil {
				return nil, nil, err
			}
			if le == nil {
				return nil, nil, fmt.Errorf("p4of: condition has no compilable negation")
			}
			return le, lt, nil
		default:
			return nil, nil, fmt.Errorf("p4of: %q conditions do not compile to OpenFlow matches", c.Op)
		}
	default:
		return nil, nil, fmt.Errorf("p4of: unsupported condition %T", cond)
	}
}

func fieldName(ref p4.FieldRef) string {
	return strings.ReplaceAll(ref.String(), ".", "_")
}

// Table returns the compiled placement of a P4 table, or nil.
func (pl *Pipeline) Table(name string) *CompiledTable { return pl.byName[name] }

// FlowForEntry compiles one installed entry into its flow.
func (pl *Pipeline) FlowForEntry(e *p4rt.TableEntry) (Flow, error) {
	ct := pl.byName[e.Table]
	if ct == nil {
		return Flow{}, fmt.Errorf("p4of: table %q is not applied by the program", e.Table)
	}
	match := append([]string(nil), ct.Guard...)
	for i, k := range ct.table.Keys {
		if i >= len(e.Matches) {
			return Flow{}, fmt.Errorf("p4of: entry for %s has %d matches, table has %d keys",
				e.Table, len(e.Matches), len(ct.table.Keys))
		}
		m := e.Matches[i]
		name := fieldName(k.Ref)
		switch k.Match {
		case p4.MatchExact:
			match = append(match, fmt.Sprintf("%s=%#x", name, m.Value))
		case p4.MatchLPM:
			match = append(match, fmt.Sprintf("%s=%#x/%d", name, m.Value, m.PrefixLen))
		case p4.MatchTernary:
			match = append(match, fmt.Sprintf("%s=%#x/%#x", name, m.Value, m.Mask))
		case p4.MatchOptional:
			if !m.Wildcard {
				match = append(match, fmt.Sprintf("%s=%#x", name, m.Value))
			}
		}
	}
	priority := 100 + e.Priority
	actions, err := pl.compileActionCall(ct, p4.ActionCall{Action: e.Action, Params: e.Params})
	if err != nil {
		return Flow{}, err
	}
	return Flow{Table: ct.ID, Priority: priority, Match: strings.Join(match, ","), Actions: actions}, nil
}

// MissFlow compiles a table's default action into its miss flow (nil
// when the table has no default action): priority 0 for an unguarded
// table, 1 under a guard, above the pass-through flow of MissFlows.
func (pl *Pipeline) MissFlow(name string) (*Flow, error) {
	ct := pl.byName[name]
	if ct == nil {
		return nil, fmt.Errorf("p4of: table %q is not applied by the program", name)
	}
	if ct.table.DefaultAction.Action == "" {
		return nil, nil
	}
	actions, err := pl.compileActionCall(ct, ct.table.DefaultAction)
	if err != nil {
		return nil, err
	}
	priority := 0
	if len(ct.Guard) > 0 {
		priority = 1
	}
	return &Flow{Table: ct.ID, Priority: priority,
		Match: strings.Join(ct.Guard, ","), Actions: actions}, nil
}

// MissFlows compiles every flow of a table below its entries' (priority
// 100 and up): the default action's miss flow, and, for a guarded table
// or one without a default action, a priority-0 empty-match flow that
// passes the packet on — goto_table:<next>, or no further action at the
// last table. Every table thus ends in a flow that matches everything,
// as OpenFlow needs to not drop what P4 would let through.
func (pl *Pipeline) MissFlows(name string) ([]Flow, error) {
	miss, err := pl.MissFlow(name)
	if err != nil {
		return nil, err
	}
	ct := pl.byName[name]
	var flows []Flow
	if miss != nil {
		flows = append(flows, *miss)
		if len(ct.Guard) == 0 {
			return flows, nil
		}
	}
	pass := Flow{Table: ct.ID, Priority: 0}
	if ct.Next >= 0 {
		pass.Actions = fmt.Sprintf("goto_table:%d", ct.Next)
	}
	return append(flows, pass), nil
}

// egressSpec is the OpenFlow field P4's standard_metadata.egress_spec
// compiles to.
const egressSpec = "standard_metadata_egress_spec"

// compileActionCall lowers an action body to an OpenFlow action list,
// appending the goto to the next pipeline table. P4's output(p) and
// multicast(g) choose where the packet goes once the egress tables have
// run, so they write the OpenFlow action set, which runs after the last
// table, rather than apply an output at once; output also sets
// egress_spec, which later tables may match on. P4's drop() only marks
// the packet and the tables after it still run (a mirror still clones a
// denied frame), so it clears the action set and keeps the goto: an
// output an earlier table wrote is gone, and one a later table writes
// forwards the packet again, as on the switch. A multicast after a drop
// still differs: the switch drops the packet, OpenFlow floods it.
func (pl *Pipeline) compileActionCall(ct *CompiledTable, call p4.ActionCall) (string, error) {
	act := pl.prog.ActionByName(call.Action)
	if act == nil {
		return "", fmt.Errorf("p4of: unknown action %q", call.Action)
	}
	var parts []string
	evalConst := func(e p4.Expr) (string, error) {
		switch e := e.(type) {
		case *p4.ConstExpr:
			return fmt.Sprintf("%#x", e.Value), nil
		case *p4.ParamExpr:
			if e.Index < len(call.Params) {
				return fmt.Sprintf("%#x", call.Params[e.Index]), nil
			}
			return fmt.Sprintf("$%s", act.Params[e.Index].Name), nil
		case *p4.FieldExpr:
			return fieldName(e.Ref), nil
		default:
			return "", fmt.Errorf("p4of: unsupported expression %T", e)
		}
	}
	for _, stmt := range act.Body {
		switch s := stmt.(type) {
		case *p4.SetField:
			v, err := evalConst(s.Expr)
			if err != nil {
				return "", err
			}
			parts = append(parts, fmt.Sprintf("set_field:%s->%s", v, fieldName(s.Ref)))
		case *p4.Output:
			v, err := evalConst(s.Port)
			if err != nil {
				return "", err
			}
			parts = append(parts, fmt.Sprintf("set_field:%s->%s", v, egressSpec), "write_actions(output:"+v+")")
		case *p4.Multicast:
			v, err := evalConst(s.Group)
			if err != nil {
				return "", err
			}
			parts = append(parts, "write_actions(group:"+v+")")
		case *p4.Clone:
			v, err := evalConst(s.Port)
			if err != nil {
				return "", err
			}
			parts = append(parts, fmt.Sprintf("clone(output:%s)", v))
		case *p4.Drop:
			parts = append(parts, "clear_actions")
		case *p4.EmitDigest:
			parts = append(parts, fmt.Sprintf("controller(digest=%s)", s.Digest))
		case *p4.SetValid:
			if s.Valid {
				parts = append(parts, "push_vlan:0x8100")
			} else {
				parts = append(parts, "strip_vlan")
			}
		default:
			return "", fmt.Errorf("p4of: unsupported statement %T", stmt)
		}
	}
	if ct.Next >= 0 {
		parts = append(parts, fmt.Sprintf("goto_table:%d", ct.Next))
	}
	if len(parts) == 0 {
		parts = append(parts, "drop")
	}
	return strings.Join(parts, ","), nil
}

// Flows dumps the complete flow table for the program given the entries
// installed in a runtime, MissFlows included, sorted by (table,
// -priority, match).
func (pl *Pipeline) Flows(rt *p4.Runtime) ([]Flow, error) {
	var out []Flow
	for _, ct := range pl.Tables {
		entries, err := rt.Entries(ct.Name)
		if err != nil {
			return nil, err
		}
		for i := range entries {
			e := p4rt.TableEntry{
				Table: ct.Name, Matches: entries[i].Matches,
				Priority: entries[i].Priority,
				Action:   entries[i].Action, Params: entries[i].Params,
			}
			fl, err := pl.FlowForEntry(&e)
			if err != nil {
				return nil, err
			}
			out = append(out, fl)
		}
		miss, err := pl.MissFlows(ct.Name)
		if err != nil {
			return nil, err
		}
		out = append(out, miss...)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Table != out[j].Table {
			return out[i].Table < out[j].Table
		}
		if out[i].Priority != out[j].Priority {
			return out[i].Priority > out[j].Priority
		}
		return out[i].Match < out[j].Match
	})
	return out, nil
}

// Render prints flows in an ovs-ofctl-like format.
func Render(flows []Flow) string {
	var sb strings.Builder
	for _, f := range flows {
		match := f.Match
		if match == "" {
			match = "*"
		}
		fmt.Fprintf(&sb, "table=%d, priority=%d, %s actions=%s\n",
			f.Table, f.Priority, match, f.Actions)
	}
	return sb.String()
}
