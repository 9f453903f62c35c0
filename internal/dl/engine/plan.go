package engine

import (
	"fmt"

	"repro/internal/dl/typecheck"
	"repro/internal/dl/value"
)

// A plan evaluates one rule seeded from a specific body literal occurrence
// (or from the rule head, or from nothing for "unit" rules). Plans are the
// differentiated form of a rule: feeding a delta tuple into the seed and
// joining the remaining literals against the appropriate database views
// yields exactly that occurrence's contribution to the head delta.
type plan struct {
	rule    *compiledRule
	seedIdx int // body index of the seed literal; -1 for unit/check plans
	// Seed binding: how the seed tuple (or negation key, or head tuple)
	// binds environment slots and which columns must match expressions.
	seedBinds  []colBind
	seedChecks []colCheck
	steps      []planStep
	envSize    int
}

// colBind binds environment slot Slot from position Col of the seed tuple
// or a join result tuple.
type colBind struct {
	Col  int
	Slot int
}

// colCheck requires position Col of a tuple to equal the value of Expr.
type colCheck struct {
	Col  int
	Expr typecheck.Expr
}

// planStep is one execution step: *stepJoin, *stepFilter, *stepAssign, or
// *stepAbsent.
type planStep interface{ planStep() }

// stepJoin scans the chosen view of a relation restricted to the computed
// index key, binding new slots from each matching tuple.
type stepJoin struct {
	rel     *relState
	bodyIdx int
	ix      *index
	// keyExprs, aligned with ix.keyCols, compute the lookup key.
	keyExprs []typecheck.Expr
	binds    []colBind
	checks   []colCheck // per-tuple equality checks not usable as key parts
}

// stepFilter evaluates a boolean expression and prunes the branch on false.
type stepFilter struct {
	expr typecheck.Expr
}

// stepAssign evaluates an expression into a fresh slot.
type stepAssign struct {
	slot int
	expr typecheck.Expr
}

// stepAbsent requires the chosen view of a relation to contain no tuple
// matching the computed key (a negated literal).
type stepAbsent struct {
	rel      *relState
	bodyIdx  int
	ix       *index
	keyExprs []typecheck.Expr
}

func (*stepJoin) planStep()   {}
func (*stepFilter) planStep() {}
func (*stepAssign) planStep() {}
func (*stepAbsent) planStep() {}

// compiledRule is a rule prepared for incremental evaluation.
type compiledRule struct {
	src       *typecheck.Rule
	head      *relState
	headExprs []typecheck.Expr
	// label is the rule's operator-facing identity in provenance records;
	// labelHash is its precomputed sig-hash seed (provLabelHash).
	label     string
	labelHash uint64
	// idx/id place the rule in the rule-profiling accumulator space
	// (profile.go; zero values unless Collect).
	idx   int
	id    string
	body  []typecheck.Term // excludes any GroupBy term
	slots []typecheck.VarInfo
	// plansByBody[i] is the plan seeded at body literal i (nil for
	// non-literal terms).
	plansByBody []*plan
	// unitPlan evaluates the rule with no seed (rules without positive
	// literals); nil otherwise.
	unitPlan *plan
	// checkPlan enumerates the instances of this rule that derive a given
	// head tuple (pattern heads only); a recursive stratum's deletion
	// checks run it.
	checkPlan *plan
}

// negKeyCols returns the sorted column indexes a negated literal is
// constrained on (its check columns).
func negKeyCols(lit *typecheck.LiteralTerm) []int {
	cols := make([]int, 0, len(lit.Checks))
	for _, c := range lit.Checks {
		cols = append(cols, c.Col)
	}
	// Checks are produced in column order by the type checker.
	return cols
}

// planBuilder constructs a plan for one seeding of a rule.
type planBuilder struct {
	rt    *Runtime
	rule  *compiledRule
	bound []bool
	// extraSlots counts hidden slots appended beyond the rule's own.
	extraSlots int
	steps      []planStep
	// remaining body indexes still to be planned.
	remaining map[int]bool
	// pending are filters (equations) awaiting their variables.
	pending []typecheck.Expr
}

func newPlanBuilder(rt *Runtime, rule *compiledRule) *planBuilder {
	b := &planBuilder{
		rt:        rt,
		rule:      rule,
		bound:     make([]bool, len(rule.slots)),
		remaining: make(map[int]bool, len(rule.body)),
	}
	for i := range rule.body {
		b.remaining[i] = true
	}
	return b
}

func (b *planBuilder) slotType(slot int) *value.Type {
	if slot < len(b.rule.slots) {
		return b.rule.slots[slot].Type
	}
	return nil // hidden slots: type is implied by the column they bind
}

// hiddenSlot allocates a fresh slot beyond the rule's declared ones.
func (b *planBuilder) hiddenSlot() int {
	s := len(b.rule.slots) + b.extraSlots
	b.extraSlots++
	b.bound = append(b.bound, false)
	return s
}

func (b *planBuilder) markBound(slot int) { b.bound[slot] = true }

// exprReady reports whether every variable of e is bound.
func (b *planBuilder) exprReady(e typecheck.Expr) bool {
	ready := true
	walkVars(e, func(v *typecheck.VarRef) {
		if v.Slot >= len(b.bound) || !b.bound[v.Slot] {
			ready = false
		}
	})
	return ready
}

// walkVars visits every VarRef in an expression tree.
func walkVars(e typecheck.Expr, f func(*typecheck.VarRef)) {
	switch e := e.(type) {
	case *typecheck.VarRef:
		f(e)
	case *typecheck.Const:
	case *typecheck.BinOp:
		walkVars(e.L, f)
		walkVars(e.R, f)
	case *typecheck.Cmp:
		walkVars(e.L, f)
		walkVars(e.R, f)
	case *typecheck.UnOp:
		walkVars(e.E, f)
	case *typecheck.FieldGet:
		walkVars(e.E, f)
	case *typecheck.MkTuple:
		for _, el := range e.Elems {
			walkVars(el, f)
		}
	case *typecheck.CastOp:
		walkVars(e.E, f)
	case *typecheck.IfOp:
		walkVars(e.Cond, f)
		walkVars(e.Then, f)
		walkVars(e.Else, f)
	case *typecheck.CallOp:
		for _, a := range e.Args {
			walkVars(a, f)
		}
	case *typecheck.FuncCall:
		// Only the arguments reference this rule's environment; the body's
		// variables are the function's own parameter slots.
		for _, a := range e.Args {
			walkVars(a, f)
		}
	default:
		panic(fmt.Sprintf("engine: walkVars: unexpected expression %T", e))
	}
}

// eq builds the equality filter l == r.
func eq(l, r typecheck.Expr) typecheck.Expr { return &typecheck.Cmp{Op: "==", L: l, R: r} }

// headIsPattern reports whether every head expression is a constant or
// a plain variable that a positive body literal binds: the head is then
// invertible for backward checks, and the rule derives only tuples over
// the active domain, so a recursive stratum's fixpoint is finite.
func headIsPattern(rule *compiledRule) bool {
	inLiteral := make(map[int]bool)
	for _, term := range rule.body {
		if lit, ok := term.(*typecheck.LiteralTerm); ok && !lit.Negated {
			for _, slot := range lit.BindSlots {
				inLiteral[slot] = true
			}
			for _, chk := range lit.Checks {
				if vr, ok := chk.Expr.(*typecheck.VarRef); ok {
					inLiteral[vr.Slot] = true
				}
			}
		}
	}
	for _, e := range rule.headExprs {
		switch e := e.(type) {
		case *typecheck.Const:
		case *typecheck.VarRef:
			if !inLiteral[e.Slot] {
				return false
			}
		default:
			return false
		}
	}
	return true
}

// bindSeedLiteral sets up seed binding for a positive literal occurrence.
func (b *planBuilder) bindSeedLiteral(lit *typecheck.LiteralTerm) (binds []colBind, checks []colCheck) {
	for col, slot := range lit.BindSlots {
		if slot >= 0 {
			binds = append(binds, colBind{Col: col, Slot: slot})
			b.markBound(slot)
		}
	}
	for _, chk := range lit.Checks {
		if vr, ok := chk.Expr.(*typecheck.VarRef); ok && !b.bound[vr.Slot] {
			// Unbound plain variable: binding, not check.
			binds = append(binds, colBind{Col: chk.Col, Slot: vr.Slot})
			b.markBound(vr.Slot)
			continue
		}
		if b.exprReady(chk.Expr) {
			checks = append(checks, colCheck{Col: chk.Col, Expr: chk.Expr})
			continue
		}
		// Expression over variables bound later: capture the column into a
		// hidden slot and defer the equation.
		h := b.hiddenSlot()
		binds = append(binds, colBind{Col: chk.Col, Slot: h})
		b.markBound(h)
		b.pending = append(b.pending, eq(chk.Expr, &typecheck.VarRef{Slot: h, T: chk.Expr.Type()}))
	}
	return binds, checks
}

// bindSeedNegation sets up seed binding from a negation transition key.
// Key positions follow negKeyCols order.
func (b *planBuilder) bindSeedNegation(lit *typecheck.LiteralTerm) (binds []colBind, checks []colCheck) {
	for pos, chk := range lit.Checks {
		if vr, ok := chk.Expr.(*typecheck.VarRef); ok && !b.bound[vr.Slot] {
			binds = append(binds, colBind{Col: pos, Slot: vr.Slot})
			b.markBound(vr.Slot)
			continue
		}
		if b.exprReady(chk.Expr) {
			checks = append(checks, colCheck{Col: pos, Expr: chk.Expr})
			continue
		}
		h := b.hiddenSlot()
		binds = append(binds, colBind{Col: pos, Slot: h})
		b.markBound(h)
		b.pending = append(b.pending, eq(chk.Expr, &typecheck.VarRef{Slot: h, T: chk.Expr.Type()}))
	}
	return binds, checks
}

// bindSeedHead sets up seed binding from a head tuple (check plans).
// The head must be a pattern (VarRef/Const arguments only).
func (b *planBuilder) bindSeedHead() (binds []colBind, checks []colCheck) {
	for col, e := range b.rule.headExprs {
		switch e := e.(type) {
		case *typecheck.VarRef:
			if !b.bound[e.Slot] {
				binds = append(binds, colBind{Col: col, Slot: e.Slot})
				b.markBound(e.Slot)
			} else {
				checks = append(checks, colCheck{Col: col, Expr: e})
			}
		case *typecheck.Const:
			checks = append(checks, colCheck{Col: col, Expr: e})
		default:
			panic("engine: bindSeedHead on non-pattern head")
		}
	}
	return binds, checks
}

// finish plans the remaining body terms greedily and returns the plan.
func (b *planBuilder) finish(seedIdx int, seedBinds []colBind, seedChecks []colCheck) (*plan, error) {
	delete(b.remaining, seedIdx)
	for {
		if b.flushReady() {
			continue
		}
		// Choose the next positive literal to join: the one with the most
		// key columns available, leftmost on ties.
		best, bestScore := -1, -1
		for idx := range b.remaining {
			lit, ok := b.rule.body[idx].(*typecheck.LiteralTerm)
			if !ok || lit.Negated {
				continue
			}
			score := b.joinScore(lit)
			if score > bestScore || score == bestScore && (best == -1 || idx < best) {
				best, bestScore = idx, score
			}
		}
		if best == -1 {
			break
		}
		b.emitJoin(best)
	}
	if len(b.remaining) > 0 || len(b.pending) > 0 {
		return nil, fmt.Errorf("engine: internal error: rule for %s is not plannable (unsafe rule admitted by type checker)",
			b.rule.head.rel.Name)
	}
	// Head expressions must be fully bound now.
	for _, e := range b.rule.headExprs {
		if !b.exprReady(e) {
			return nil, fmt.Errorf("engine: internal error: unbound variable in head of rule for %s",
				b.rule.head.rel.Name)
		}
	}
	return &plan{
		rule:       b.rule,
		seedIdx:    seedIdx,
		seedBinds:  seedBinds,
		seedChecks: seedChecks,
		steps:      b.steps,
		envSize:    len(b.rule.slots) + b.extraSlots,
	}, nil
}

// flushReady emits every currently-evaluable filter, assignment, pending
// equation, and negated literal. Reports whether anything was emitted.
func (b *planBuilder) flushReady() bool {
	emitted := false
	// Pending equations.
	var stillPending []typecheck.Expr
	for _, e := range b.pending {
		if b.exprReady(e) {
			b.steps = append(b.steps, &stepFilter{expr: e})
			emitted = true
		} else {
			stillPending = append(stillPending, e)
		}
	}
	b.pending = stillPending
	for idx := 0; idx < len(b.rule.body); idx++ {
		if !b.remaining[idx] {
			continue
		}
		switch term := b.rule.body[idx].(type) {
		case *typecheck.CondTerm:
			if b.exprReady(term.Expr) {
				b.steps = append(b.steps, &stepFilter{expr: term.Expr})
				delete(b.remaining, idx)
				emitted = true
			}
		case *typecheck.AssignTerm:
			if !b.exprReady(term.Expr) {
				continue
			}
			if b.bound[term.Slot] {
				// The target was already bound (e.g. by the seed); the
				// assignment becomes an equation.
				b.steps = append(b.steps, &stepFilter{expr: eq(term.Expr,
					&typecheck.VarRef{Slot: term.Slot, T: term.Expr.Type()})})
			} else {
				b.steps = append(b.steps, &stepAssign{slot: term.Slot, expr: term.Expr})
				b.markBound(term.Slot)
			}
			delete(b.remaining, idx)
			emitted = true
		case *typecheck.LiteralTerm:
			if !term.Negated {
				continue
			}
			ready := true
			for _, chk := range term.Checks {
				if !b.exprReady(chk.Expr) {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			keyExprs := make([]typecheck.Expr, len(term.Checks))
			for i, chk := range term.Checks {
				keyExprs[i] = chk.Expr
			}
			rel := b.rt.relStateOf(term.Rel)
			b.steps = append(b.steps, &stepAbsent{
				rel:      rel,
				bodyIdx:  idx,
				ix:       rel.getIndex(negKeyCols(term)),
				keyExprs: keyExprs,
			})
			delete(b.remaining, idx)
			emitted = true
		}
	}
	return emitted
}

// joinScore ranks how attractive joining lit next is: primarily the number
// of columns that can serve as index key parts, with a tie-break that
// prefers relations from lower strata over relations in the head's own
// (recursive) stratum — recursive relations hold transitive closures and
// tend to be far larger than their generating context relations, so
// probing the context first keeps backward checks local.
func (b *planBuilder) joinScore(lit *typecheck.LiteralTerm) int {
	score := 0
	for _, slot := range lit.BindSlots {
		if slot >= 0 && b.bound[slot] {
			score++
		}
	}
	for _, chk := range lit.Checks {
		if b.exprReady(chk.Expr) {
			score++
		}
	}
	score *= 2
	if b.rt.relStateOf(lit.Rel).stratum < b.rule.head.stratum {
		score++
	}
	return score
}

// emitJoin plans positive literal idx as a join step.
func (b *planBuilder) emitJoin(idx int) {
	lit := b.rule.body[idx].(*typecheck.LiteralTerm)
	var keyCols []int
	var keyExprs []typecheck.Expr
	var binds []colBind
	var checks []colCheck
	for col, slot := range lit.BindSlots {
		if slot < 0 {
			continue
		}
		if b.bound[slot] {
			keyCols = append(keyCols, col)
			keyExprs = append(keyExprs, &typecheck.VarRef{Slot: slot, T: lit.Rel.Cols[col].Type})
		} else {
			binds = append(binds, colBind{Col: col, Slot: slot})
			b.markBound(slot)
		}
	}
	for _, chk := range lit.Checks {
		switch {
		case b.exprReady(chk.Expr):
			keyCols = append(keyCols, chk.Col)
			keyExprs = append(keyExprs, chk.Expr)
		default:
			if vr, ok := chk.Expr.(*typecheck.VarRef); ok && !b.bound[vr.Slot] {
				binds = append(binds, colBind{Col: chk.Col, Slot: vr.Slot})
				b.markBound(vr.Slot)
				continue
			}
			h := b.hiddenSlot()
			binds = append(binds, colBind{Col: chk.Col, Slot: h})
			b.markBound(h)
			b.pending = append(b.pending, eq(chk.Expr, &typecheck.VarRef{Slot: h, T: chk.Expr.Type()}))
		}
	}
	// Key expressions must align with the index's sorted column order.
	sortKeyByCols(keyCols, keyExprs)
	rel := b.rt.relStateOf(lit.Rel)
	b.steps = append(b.steps, &stepJoin{
		rel:      rel,
		bodyIdx:  idx,
		ix:       rel.getIndex(keyCols),
		keyExprs: keyExprs,
		binds:    binds,
		checks:   checks,
	})
	delete(b.remaining, idx)
}

// sortKeyByCols co-sorts keyExprs by ascending column index (insertion
// sort; keys are tiny).
func sortKeyByCols(cols []int, exprs []typecheck.Expr) {
	for i := 1; i < len(cols); i++ {
		for j := i; j > 0 && cols[j-1] > cols[j]; j-- {
			cols[j-1], cols[j] = cols[j], cols[j-1]
			exprs[j-1], exprs[j] = exprs[j], exprs[j-1]
		}
	}
}

// buildPlans constructs all plans for a compiled rule.
func (rt *Runtime) buildPlans(rule *compiledRule) error {
	rule.plansByBody = make([]*plan, len(rule.body))
	hasPositive := false
	for idx, term := range rule.body {
		lit, ok := term.(*typecheck.LiteralTerm)
		if !ok {
			continue
		}
		b := newPlanBuilder(rt, rule)
		var binds []colBind
		var checks []colCheck
		if lit.Negated {
			binds, checks = b.bindSeedNegation(lit)
			// Ensure the transition-detection index exists.
			rt.relStateOf(lit.Rel).getIndex(negKeyCols(lit))
		} else {
			hasPositive = true
			binds, checks = b.bindSeedLiteral(lit)
		}
		p, err := b.finish(idx, binds, checks)
		if err != nil {
			return err
		}
		rule.plansByBody[idx] = p
	}
	if !hasPositive {
		b := newPlanBuilder(rt, rule)
		p, err := b.finish(-1, nil, nil)
		if err != nil {
			return err
		}
		rule.unitPlan = p
	}
	if rule.head.recursive {
		if !headIsPattern(rule) {
			return fmt.Errorf(
				"engine: rule for recursive relation %s must have a pattern head (constants, or variables its positive body literals bind)",
				rule.head.rel.Name)
		}
		b := newPlanBuilder(rt, rule)
		binds, checks := b.bindSeedHead()
		p, err := b.finish(-1, binds, checks)
		if err != nil {
			return err
		}
		rule.checkPlan = p
	}
	return nil
}
