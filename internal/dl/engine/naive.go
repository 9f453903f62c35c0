package engine

import (
	"fmt"

	"repro/internal/dl/ast"
	"repro/internal/dl/typecheck"
	"repro/internal/dl/value"
)

// NaiveEval computes every relation of a checked program from scratch by
// naive stratified fixpoint iteration over the given input contents. It is
// deliberately independent of the incremental machinery (no plans, no
// indexes, no deltas): property tests compare the two evaluators to enforce
// the engine's central invariant, and the baseline controllers use it as
// the "recompute everything" strategy the paper argues against.
//
// inputs maps input relation names to their records. The result maps every
// relation name (inputs included) to its sorted contents.
func NaiveEval(prog *typecheck.Program, inputs map[string][]value.Record) (map[string][]value.Record, error) {
	n := &naiveState{
		prog: prog,
		data: make(map[string]map[string]value.Record),
	}
	for _, rel := range prog.Relations {
		n.data[rel.Name] = make(map[string]value.Record)
	}
	for name, recs := range inputs {
		rel := prog.Relation(name)
		if rel == nil {
			return nil, fmt.Errorf("engine: naive: unknown relation %q", name)
		}
		if rel.Role != ast.RoleInput {
			return nil, fmt.Errorf("engine: naive: relation %q is not an input", name)
		}
		for _, rec := range recs {
			if err := rel.CheckRecord(rec); err != nil {
				return nil, err
			}
			n.data[name][rec.Key()] = rec
		}
	}

	// Stratify: same dependency analysis as the incremental engine, over
	// user relations only (group_by is evaluated inline here).
	relID := make(map[string]int, len(prog.Relations))
	for i, rel := range prog.Relations {
		relID[rel.Name] = i
	}
	var edges []depEdge
	for _, rule := range prog.Rules {
		for _, term := range rule.Body {
			if lit, ok := term.(*typecheck.LiteralTerm); ok {
				edges = append(edges, depEdge{
					from:    relID[lit.Rel.Name],
					to:      relID[rule.Head.Name],
					special: lit.Negated || rule.GroupBy != nil,
				})
			}
		}
	}
	stratumOf, strata, _, err := stratify(len(prog.Relations), edges)
	if err != nil {
		return nil, err
	}
	rulesByStratum := make([][]*typecheck.Rule, len(strata))
	for _, rule := range prog.Rules {
		s := stratumOf[relID[rule.Head.Name]]
		rulesByStratum[s] = append(rulesByStratum[s], rule)
	}

	for s := range strata {
		// Iterate the stratum's rules to a fixpoint.
		for {
			grew := false
			for _, rule := range rulesByStratum[s] {
				added, err := n.evalRule(rule)
				if err != nil {
					return nil, err
				}
				grew = grew || added
			}
			if !grew {
				break
			}
		}
	}

	out := make(map[string][]value.Record, len(prog.Relations))
	for _, rel := range prog.Relations {
		recs := make([]value.Record, 0, len(n.data[rel.Name]))
		for _, rec := range n.data[rel.Name] {
			recs = append(recs, rec)
		}
		sortRecords(recs)
		out[rel.Name] = recs
	}
	return out, nil
}

type naiveState struct {
	prog *typecheck.Program
	data map[string]map[string]value.Record
}

// evalRule enumerates all satisfying bindings of the rule body (in source
// order, which the type checker guarantees is safe) and inserts head
// tuples. For group_by rules it collects the bindings first and aggregates.
// Reports whether any new tuple was added.
func (n *naiveState) evalRule(rule *typecheck.Rule) (bool, error) {
	env := make([]value.Value, len(rule.Slots))
	added := false

	var groups map[string]*naiveGroup
	if rule.GroupBy != nil {
		groups = make(map[string]*naiveGroup)
	}

	atEnd := func() error {
		if rule.GroupBy != nil {
			return n.collectGroup(rule, env, groups)
		}
		rec := make(value.Record, len(rule.HeadExprs))
		for i, e := range rule.HeadExprs {
			v, err := e.Eval(env)
			if err != nil {
				return err
			}
			rec[i] = v
		}
		key := rec.Key()
		if _, ok := n.data[rule.Head.Name][key]; !ok {
			n.data[rule.Head.Name][key] = rec
			added = true
		}
		return nil
	}

	body := rule.Body
	if rule.GroupBy != nil {
		body = body[:len(body)-1]
	}

	var walk func(ti int) error
	walk = func(ti int) error {
		if ti == len(body) {
			return atEnd()
		}
		switch term := body[ti].(type) {
		case *typecheck.CondTerm:
			v, err := term.Expr.Eval(env)
			if err != nil {
				return err
			}
			if !v.Bool() {
				return nil
			}
			return walk(ti + 1)
		case *typecheck.AssignTerm:
			v, err := term.Expr.Eval(env)
			if err != nil {
				return err
			}
			env[term.Slot] = v
			return walk(ti + 1)
		case *typecheck.LiteralTerm:
			if term.Negated {
				match, err := n.anyMatch(term, env)
				if err != nil {
					return err
				}
				if match {
					return nil
				}
				return walk(ti + 1)
			}
			for _, rec := range n.data[term.Rel.Name] {
				ok, err := n.matchBind(term, rec, env)
				if err != nil {
					return err
				}
				if !ok {
					continue
				}
				if err := walk(ti + 1); err != nil {
					return err
				}
			}
			return nil
		default:
			return fmt.Errorf("engine: naive: unexpected body term %T", term)
		}
	}
	if err := walk(0); err != nil {
		return false, err
	}

	if rule.GroupBy != nil {
		ok, err := n.emitGroups(rule, env, groups)
		if err != nil {
			return false, err
		}
		added = added || ok
	}
	return added, nil
}

// matchBind checks rec against the literal's checks and binds its slots.
func (n *naiveState) matchBind(lit *typecheck.LiteralTerm, rec value.Record, env []value.Value) (bool, error) {
	// Bind first: a repeated variable's first occurrence may be a bind and
	// later ones checks within the same literal.
	for col, slot := range lit.BindSlots {
		if slot >= 0 {
			env[slot] = rec[col]
		}
	}
	for _, chk := range lit.Checks {
		v, err := chk.Expr.Eval(env)
		if err != nil {
			return false, err
		}
		if !v.Equal(rec[chk.Col]) {
			return false, nil
		}
	}
	return true, nil
}

// anyMatch reports whether any record of the negated literal's relation
// matches its (fully bound) checks.
func (n *naiveState) anyMatch(lit *typecheck.LiteralTerm, env []value.Value) (bool, error) {
	for _, rec := range n.data[lit.Rel.Name] {
		ok := true
		for _, chk := range lit.Checks {
			v, err := chk.Expr.Eval(env)
			if err != nil {
				return false, err
			}
			if !v.Equal(rec[chk.Col]) {
				ok = false
				break
			}
		}
		if ok {
			return true, nil
		}
	}
	return false, nil
}

type naiveGroup struct {
	keyVals []value.Value
	// distinct bindings (projected onto all slots except the output),
	// keyed by encoding.
	bindings map[string][]value.Value
}

func (n *naiveState) collectGroup(rule *typecheck.Rule, env []value.Value, groups map[string]*naiveGroup) error {
	gb := rule.GroupBy
	keyVals := make([]value.Value, len(gb.KeySlots))
	var enc []byte
	for i, s := range gb.KeySlots {
		keyVals[i] = env[s]
		enc = env[s].Encode(enc)
	}
	g := groups[string(enc)]
	if g == nil {
		g = &naiveGroup{keyVals: keyVals, bindings: make(map[string][]value.Value)}
		groups[string(enc)] = g
	}
	// The distinct binding excludes the aggregate output slot.
	var benc []byte
	snap := make([]value.Value, len(env))
	copy(snap, env)
	for s := 0; s < len(rule.Slots); s++ {
		if s == gb.OutSlot {
			continue
		}
		if env[s].IsValid() {
			benc = env[s].Encode(benc)
		} else {
			benc = append(benc, 0xff)
		}
	}
	g.bindings[string(benc)] = snap
	return nil
}

func (n *naiveState) emitGroups(rule *typecheck.Rule, env []value.Value, groups map[string]*naiveGroup) (bool, error) {
	gb := rule.GroupBy
	added := false
	for _, g := range groups {
		var acc value.Value
		var sum int64
		var bitSum uint64
		count := 0
		for _, binding := range g.bindings {
			count++
			if gb.Arg == nil {
				continue
			}
			v, err := gb.Arg.Eval(binding)
			if err != nil {
				return false, err
			}
			switch gb.Agg {
			case "sum":
				if v.Kind() == value.KindBit {
					bitSum += v.Bit()
				} else {
					sum += v.Int()
				}
			case "min":
				if !acc.IsValid() || v.Compare(acc) < 0 {
					acc = v
				}
			case "max":
				if !acc.IsValid() || v.Compare(acc) > 0 {
					acc = v
				}
			}
		}
		if count == 0 {
			continue
		}
		var out value.Value
		switch gb.Agg {
		case "count":
			out = value.Int(int64(count))
		case "sum":
			if gb.Arg.Type().Kind == value.TBit {
				out = value.BitW(bitSum, gb.Arg.Type().Width)
			} else {
				out = value.Int(sum)
			}
		default:
			out = acc
		}
		for i, s := range gb.KeySlots {
			env[s] = g.keyVals[i]
		}
		env[gb.OutSlot] = out
		rec := make(value.Record, len(rule.HeadExprs))
		for i, e := range rule.HeadExprs {
			v, err := e.Eval(env)
			if err != nil {
				return false, err
			}
			rec[i] = v
		}
		key := rec.Key()
		if _, ok := n.data[rule.Head.Name][key]; !ok {
			n.data[rule.Head.Name][key] = rec
			added = true
		}
	}
	return added, nil
}
