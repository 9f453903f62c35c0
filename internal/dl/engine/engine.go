package engine

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/dl/ast"
	"repro/internal/dl/typecheck"
	"repro/internal/dl/value"
	"repro/internal/dl/zset"
)

// Update is one element of a transaction: insert or delete a record in an
// input relation.
type Update struct {
	Relation string
	Rec      value.Record
	Insert   bool
}

// Insert builds an insertion update.
func Insert(rel string, rec value.Record) Update {
	return Update{Relation: rel, Rec: rec, Insert: true}
}

// Delete builds a deletion update.
func Delete(rel string, rec value.Record) Update { return Update{Relation: rel, Rec: rec} }

// Delta maps relation names to their set-level change for one transaction.
type Delta map[string]*zset.ZSet

// Options configure a Runtime.
type Options struct {
	// Collect turns the engine's instrumentation on: per-transaction
	// statistics via LastApplyStats (per-stratum timings, delta size, and
	// per-rule eval time, seedings, derivations and delta tuples in
	// ApplyStats.Rules), and, per derived fact, the rule and input facts
	// of each derivation in a bounded store queryable via Explain. Off by
	// default: the evaluation hot path then carries only nil checks — no
	// clock reads, no allocation.
	Collect bool
}

// Runtime incrementally evaluates one checked program instance.
type Runtime struct {
	prog       *typecheck.Program
	opts       Options
	rels       []*relState
	relByName  map[string]*relState
	relOfDecl  map[*typecheck.Relation]*relState
	rules      []*compiledRule
	aggs       []*aggSpec
	aggsByHead map[*relState][]*aggSpec
	// occsByRel[id] lists the (rule, bodyIdx) pairs where relation id
	// occurs in a body.
	occsByRel   [][]occurrence
	rulesByHead map[*relState][]*compiledRule
	strata      [][]int
	recStratum  []bool
	failed      error
	// derivations counts tuple derivation operations in the current
	// transaction.
	derivations int64
	// ctx is the evaluation scratch every plan run of a transaction uses.
	ctx evalCtx
	// stats is the in-progress ApplyStats of the current transaction (nil
	// unless Options.Collect); lastStats is the completed record of
	// the previous transaction.
	stats     *ApplyStats
	lastStats *ApplyStats
	// ruleProf is the per-rule transaction accumulator (nil unless
	// Options.Collect).
	ruleProf []ruleAcc
	// prov is the provenance store (nil unless Options.Collect).
	prov *provStore
}

type occurrence struct {
	rule    *compiledRule
	bodyIdx int
}

// aggSpec is a compiled group_by rule: the hidden group relation feeds the
// head through per-group re-aggregation.
type aggSpec struct {
	groupRel  *relState
	keyIx     *index
	numKeys   int
	slotOfCol []int // group-relation column → rule slot
	argExpr   typecheck.Expr
	agg       string
	outSlot   int
	head      *relState
	headExprs []typecheck.Expr
	envSize   int
	// label identifies the aggregation in provenance records; labelHash
	// is its precomputed sig-hash seed (provLabelHash).
	label     string
	labelHash uint64
	// idx/id place the aggregation in the rule-profiling accumulator
	// space (profile.go; zero values unless Collect).
	idx int
	id  string
}

// New compiles a checked program and returns a runtime with the program's
// facts already evaluated.
func New(prog *typecheck.Program, opts Options) (*Runtime, error) {
	rt := &Runtime{
		prog:        prog,
		opts:        opts,
		relByName:   make(map[string]*relState),
		relOfDecl:   make(map[*typecheck.Relation]*relState),
		rulesByHead: make(map[*relState][]*compiledRule),
		aggsByHead:  make(map[*relState][]*aggSpec),
	}
	for _, rel := range prog.Relations {
		rs := newRelState(rel, len(rt.rels), false)
		rt.rels = append(rt.rels, rs)
		rt.relByName[rel.Name] = rs
		rt.relOfDecl[rel] = rs
	}
	// Compile rules; group_by rules split into a hidden relation rule plus
	// an aggregation spec.
	var edges []depEdge
	for ri, rule := range prog.Rules {
		head := rt.relOfDecl[rule.Head]
		cr := &compiledRule{src: rule, head: head, slots: rule.Slots}
		if gb := rule.GroupBy; gb != nil {
			groupRel, spec := rt.makeGroupRel(ri, rule, gb)
			spec.head = head
			spec.headExprs = rule.HeadExprs
			spec.label = fmt.Sprintf("%s :- var = %s(..) group_by (..)", head.rel.Name, gb.Agg)
			spec.labelHash = provLabelHash(spec.label)
			rt.aggs = append(rt.aggs, spec)
			rt.aggsByHead[head] = append(rt.aggsByHead[head], spec)
			edges = append(edges, depEdge{from: groupRel.id, to: head.id, special: true})
			// The compiled rule now derives the hidden group relation.
			cr.head = groupRel
			cr.headExprs = groupHeadExprs(rule, spec)
			cr.body = rule.Body[:len(rule.Body)-1] // strip the GroupBy term
		} else {
			cr.headExprs = rule.HeadExprs
			cr.body = rule.Body
		}
		for _, term := range cr.body {
			if lit, ok := term.(*typecheck.LiteralTerm); ok {
				edges = append(edges, depEdge{
					from:    rt.relOfDecl[lit.Rel].id,
					to:      cr.head.id,
					special: lit.Negated,
				})
			}
		}
		cr.label = ruleLabel(cr)
		cr.labelHash = provLabelHash(cr.label)
		rt.rules = append(rt.rules, cr)
		rt.rulesByHead[cr.head] = append(rt.rulesByHead[cr.head], cr)
	}

	stratumOf, strata, recursive, err := stratify(len(rt.rels), edges)
	if err != nil {
		return nil, err
	}
	rt.strata, rt.recStratum = strata, recursive
	for id, rs := range rt.rels {
		rs.stratum = stratumOf[id]
		rs.recursive = recursive[stratumOf[id]]
	}
	for _, spec := range rt.aggs {
		if spec.head.recursive {
			return nil, fmt.Errorf("engine: aggregate into recursive relation %s is not supported",
				spec.head.rel.Name)
		}
	}
	rt.occsByRel = make([][]occurrence, len(rt.rels))
	for _, cr := range rt.rules {
		if err := rt.buildPlans(cr); err != nil {
			return nil, err
		}
		for idx, term := range cr.body {
			if lit, ok := term.(*typecheck.LiteralTerm); ok {
				rs := rt.relOfDecl[lit.Rel]
				rt.occsByRel[rs.id] = append(rt.occsByRel[rs.id], occurrence{rule: cr, bodyIdx: idx})
			}
		}
	}
	rt.initRuleProf()
	if opts.Collect {
		rt.prov = newProvStore()
		// Every relation (including hidden group relations) drops a
		// fact's provenance when the fact is retracted.
		for _, rs := range rt.rels {
			rs.prov = rt.prov
		}
	}
	// Evaluate facts and unit rules (the empty-input fixpoint).
	if _, err := rt.apply(nil, true); err != nil {
		return nil, err
	}
	return rt, nil
}

// makeGroupRel creates the hidden group-input relation for a group_by rule.
func (rt *Runtime) makeGroupRel(ri int, rule *typecheck.Rule, gb *typecheck.GroupByTerm) (*relState, *aggSpec) {
	// Columns: group keys first, then every other slot bound by the body
	// (excluding the aggregate output slot).
	isKey := make(map[int]bool, len(gb.KeySlots))
	for _, s := range gb.KeySlots {
		isKey[s] = true
	}
	var slotOfCol []int
	slotOfCol = append(slotOfCol, gb.KeySlots...)
	for s := range rule.Slots {
		if s != gb.OutSlot && !isKey[s] {
			slotOfCol = append(slotOfCol, s)
		}
	}
	cols := make([]typecheck.Column, len(slotOfCol))
	for i, s := range slotOfCol {
		cols[i] = typecheck.Column{
			Name: fmt.Sprintf("c%d_%s", i, rule.Slots[s].Name),
			Type: rule.Slots[s].Type,
		}
	}
	decl := &typecheck.Relation{
		Name: fmt.Sprintf("__group_%s_%d", rule.Head.Name, ri),
		Role: ast.RoleInternal,
		Cols: cols,
	}
	rs := newRelState(decl, len(rt.rels), true)
	rt.rels = append(rt.rels, rs)
	rt.relByName[decl.Name] = rs
	rt.relOfDecl[decl] = rs
	keyCols := make([]int, len(gb.KeySlots))
	for i := range keyCols {
		keyCols[i] = i
	}
	spec := &aggSpec{
		groupRel:  rs,
		keyIx:     rs.getIndex(keyCols),
		numKeys:   len(gb.KeySlots),
		slotOfCol: slotOfCol,
		argExpr:   gb.Arg,
		agg:       gb.Agg,
		outSlot:   gb.OutSlot,
		envSize:   len(rule.Slots),
	}
	return rs, spec
}

// groupHeadExprs builds the hidden relation's head: one VarRef per column.
func groupHeadExprs(rule *typecheck.Rule, spec *aggSpec) []typecheck.Expr {
	exprs := make([]typecheck.Expr, len(spec.slotOfCol))
	for i, s := range spec.slotOfCol {
		exprs[i] = &typecheck.VarRef{Slot: s, Name: rule.Slots[s].Name, T: rule.Slots[s].Type}
	}
	return exprs
}

func (rt *Runtime) relStateOf(rel *typecheck.Relation) *relState { return rt.relOfDecl[rel] }

// Err returns the error that poisoned the runtime, if any. A poisoned
// runtime rejects further transactions: a failure mid-propagation leaves
// derived state inconsistent.
func (rt *Runtime) Err() error { return rt.failed }

// Apply runs one transaction: the updates are applied to input relations
// and all derived relations are brought up to date incrementally. It
// returns the set-level deltas of the output relations.
func (rt *Runtime) Apply(updates []Update) (Delta, error) {
	return rt.apply(updates, false)
}

func (rt *Runtime) apply(updates []Update, initial bool) (Delta, error) {
	if rt.failed != nil {
		return nil, fmt.Errorf("engine: runtime is poisoned by a previous failure: %w", rt.failed)
	}
	// Validate the updates before touching any state, so a bad transaction
	// is rejected atomically.
	for _, u := range updates {
		rs := rt.relByName[u.Relation]
		if rs == nil || rs.hidden {
			return nil, fmt.Errorf("engine: unknown relation %q", u.Relation)
		}
		if rs.rel.Role != ast.RoleInput {
			return nil, fmt.Errorf("engine: relation %q is not an input relation", u.Relation)
		}
		if err := rs.rel.CheckRecord(u.Rec); err != nil {
			return nil, fmt.Errorf("engine: %w", err)
		}
	}
	rt.derivations = 0
	rt.stats = nil
	if rt.opts.Collect {
		rt.stats = &ApplyStats{}
	}
	if rt.prov != nil {
		// Emit sites write the provenance store in place; holding its
		// lock for the whole transaction shows Explain only whole ones.
		rt.prov.mu.Lock()
		defer rt.prov.mu.Unlock()
	}
	// Apply the input changes in order, so the last update of a record
	// decides its presence. Touching an existing fact allocates nothing.
	for _, u := range updates {
		rs := rt.relByName[u.Relation]
		rt.ctx.keyBuf = u.Rec.AppendEncode(rt.ctx.keyBuf[:0])
		if u.Insert {
			rs.setPresent(rs.intern(u.Rec, rt.ctx.keyBuf))
		} else if f := rs.find(rt.ctx.keyBuf); f != nil {
			rs.setAbsent(f)
		}
	}
	// Propagate stratum by stratum.
	for s := range rt.strata {
		var t0 time.Time
		if rt.stats != nil {
			t0 = time.Now()
		}
		var err error
		if rt.recStratum[s] {
			err = rt.runRecursiveStratum(s, initial)
		} else {
			err = rt.runCountingStratum(s, initial)
		}
		if err != nil {
			rt.failed = err
			return nil, err
		}
		if rt.stats != nil {
			rt.stats.Strata = append(rt.stats.Strata, StratumStats{
				Stratum:   s,
				Recursive: rt.recStratum[s],
				Duration:  time.Since(t0),
			})
		}
	}
	// Collect output deltas off the touched lists, then sweep them.
	out := make(Delta)
	for _, rs := range rt.rels {
		if rs.rel.Role == ast.RoleOutput && rs.changed > 0 {
			z := zset.NewSized(rs.changed)
			for _, f := range rs.touched {
				if w := f.delta(); w != 0 {
					z.AddKeyed(f.rec, f.key, w)
				}
			}
			out[rs.rel.Name] = z
		}
	}
	for _, rs := range rt.rels {
		rs.endTxn()
	}
	if rt.stats != nil {
		rt.stats.Rules = rt.buildRuleStats()
		rt.stats.Derivations = rt.derivations
		for _, z := range out {
			rt.stats.DeltaSize += z.Len()
		}
		rt.lastStats, rt.stats = rt.stats, nil
	}
	return out, nil
}

// evalCtx is plan-evaluation scratch: the variable environment, the
// key-encoding buffer, and the head record and key an emit is built in.
// Reusing it across plan runs keeps the arrangement probe path, and the
// emit of a fact that already exists, allocation-free.
type evalCtx struct {
	env     []value.Value
	keyBuf  []byte
	headRec value.Record
	headKey []byte
	// capture/trail implement provenance recording (provenance.go) and
	// let a probe's emit see its instance (backward.go): when capture is
	// on, trail is the stack of body facts the current plan run has
	// joined so far. evalPlan resets both.
	capture bool
	trail   []provInput
	// memoSeed{Key,Rel,Hash} memoize the last seed fact's identity hash
	// across the several plans one seed feeds (evalPlan).
	memoSeedKey  string
	memoSeedRel  *relState
	memoSeedHash uint64
	// sigBuf is the encode scratch for derivation sig hashing
	// (provenance.go sigHash).
	sigBuf []byte
}

// envFor returns a zeroed environment of size n backed by the context's
// scratch slice, with spare capacity past n for user-function call frames
// (typecheck.FuncCall). Plan execution is not re-entrant per context.
func (c *evalCtx) envFor(n, spare int) []value.Value {
	if cap(c.env) < n+spare {
		c.env = make([]value.Value, n+spare)
	}
	env := c.env[:n]
	clear(env)
	return env
}

var errStop = errors.New("engine: stop iteration")

// emitFunc receives head contributions. rec and key are the interned head
// fact's record and canonical key, so downstream map operations never
// re-encode the record; hh is the fact's identity hash (zero with
// provenance off).
type emitFunc func(rec value.Record, key string, hh uint64, w int64) error

// runPlan seeds a plan with a tuple (or negation key, or nothing) and
// streams head contributions to emit. ctx supplies the evaluation scratch.
// With rule profiling on the seeding is timed and attributed to the plan's
// rule; otherwise this is a direct call into evalPlan.
func (rt *Runtime) runPlan(ctx *evalCtx, p *plan, seed value.Record, seedKey string, w int64, mode viewMode, emit emitFunc) error {
	if rt.ruleProf == nil {
		return rt.evalPlan(ctx, p, seed, seedKey, w, mode, emit)
	}
	t0 := time.Now()
	err := rt.evalPlan(ctx, p, seed, seedKey, w, mode, emit)
	a := &rt.ruleProf[p.rule.idx]
	a.ns += int64(time.Since(t0))
	a.seedings++
	return err
}

// evalPlan is runPlan's profiling-free body. A run with weight 0 is a
// probe (a recursive stratum's backward check or forward saturation): it
// changes no count and records nothing, but keeps the trail so its emit
// can inspect each instance's body facts.
func (rt *Runtime) evalPlan(ctx *evalCtx, p *plan, seed value.Record, seedKey string, w int64, mode viewMode, emit emitFunc) error {
	ctx.capture = rt.prov != nil || w == 0
	if ctx.capture {
		// Capture the derivation trail: the seed fact (when the seed is a
		// positive literal) plus every fact joined below.
		ctx.trail = ctx.trail[:0]
		if p.seedIdx >= 0 {
			if lit, ok := p.rule.body[p.seedIdx].(*typecheck.LiteralTerm); ok && !lit.Negated {
				rs := rt.relStateOf(lit.Rel)
				ti := provInput{rs: rs, rec: seed, key: seedKey}
				// The same seed fact seeds one plan per body occurrence;
				// the context memoizes its identity hash across those runs
				// (string equality is a pointer check for the same zset
				// key instance, and the hash is content-determined, so a
				// hit is always correct).
				if seedKey != "" && seedKey == ctx.memoSeedKey && rs == ctx.memoSeedRel {
					ti.hash = ctx.memoSeedHash
				}
				ctx.trail = append(ctx.trail, ti)
			}
		}
	}
	env := ctx.envFor(p.envSize, rt.prog.FrameSize)
	for _, b := range p.seedBinds {
		env[b.Slot] = seed[b.Col]
	}
	for _, c := range p.seedChecks {
		v, err := c.Expr.Eval(env)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", p.rule.head.rel.Name, err)
		}
		if !v.Equal(seed[c.Col]) {
			return nil
		}
	}
	err := rt.execSteps(ctx, p, 0, env, w, mode, emit)
	if ctx.capture && len(ctx.trail) > 0 && ctx.trail[0].key != "" && ctx.trail[0].hash != 0 {
		ctx.memoSeedKey, ctx.memoSeedRel, ctx.memoSeedHash = ctx.trail[0].key, ctx.trail[0].rs, ctx.trail[0].hash
	}
	return err
}

func (rt *Runtime) execSteps(ctx *evalCtx, p *plan, si int, env []value.Value, w int64, mode viewMode, emit emitFunc) error {
	if si == len(p.steps) {
		// Build the head in scratch and intern it: the emit gets the fact's
		// own record and key, and only a fact new to the head allocates.
		// A fact interned for an emit that adds nothing (a probe) stays at
		// count zero until the sweep.
		head := p.rule.head
		n := len(p.rule.headExprs)
		if cap(ctx.headRec) < n {
			ctx.headRec = make(value.Record, n)
		}
		scratch := ctx.headRec[:n]
		for i, e := range p.rule.headExprs {
			v, err := e.Eval(env)
			if err != nil {
				return fmt.Errorf("engine: %s: %w", head.rel.Name, err)
			}
			scratch[i] = v
		}
		ctx.headKey = scratch.AppendEncode(ctx.headKey[:0])
		f := head.intern(scratch, ctx.headKey)
		if ctx.capture && w != 0 {
			rt.recordProv(ctx, p.rule, f, w, ctx.trail, false)
		}
		if rt.ruleProf != nil {
			rt.ruleProf[p.rule.idx].derivs++
		}
		return emit(f.rec, f.key, f.phash, w)
	}
	switch st := p.steps[si].(type) {
	case *stepFilter:
		v, err := st.expr.Eval(env)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", p.rule.head.rel.Name, err)
		}
		if !v.Bool() {
			return nil
		}
		return rt.execSteps(ctx, p, si+1, env, w, mode, emit)
	case *stepAssign:
		v, err := st.expr.Eval(env)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", p.rule.head.rel.Name, err)
		}
		env[st.slot] = v
		return rt.execSteps(ctx, p, si+1, env, w, mode, emit)
	case *stepAbsent:
		key, err := evalKey(ctx, st.keyExprs, env)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", p.rule.head.rel.Name, err)
		}
		if st.rel.bucketNonEmpty(st.ix, key, mode.useOld(st.bodyIdx, p.seedIdx)) {
			return nil
		}
		return rt.execSteps(ctx, p, si+1, env, w, mode, emit)
	case *stepJoin:
		key, err := evalKey(ctx, st.keyExprs, env)
		if err != nil {
			return fmt.Errorf("engine: %s: %w", p.rule.head.rel.Name, err)
		}
		old := mode.useOld(st.bodyIdx, p.seedIdx)
		// The bucket is resolved before the loop, so nested evalKey calls
		// below may safely reuse (clobber) ctx.keyBuf. Facts appended to
		// it meanwhile (recursive strata) are not visited: the worklist
		// seeds them.
	facts:
		for _, f := range st.ix.factsOf(key) {
			if !f.presentIn(old) {
				continue
			}
			rec := f.rec
			for _, b := range st.binds {
				env[b.Slot] = rec[b.Col]
			}
			for _, c := range st.checks {
				v, err := c.Expr.Eval(env)
				if err != nil {
					return err
				}
				if !v.Equal(rec[c.Col]) {
					continue facts
				}
			}
			if ctx.capture {
				ti := provInput{rs: st.rel, rec: rec, key: f.key}
				if f.phash != 0 {
					ti.hash = provFold(f.phash, st.rel.id)
				}
				ctx.trail = append(ctx.trail, ti)
			}
			err := rt.execSteps(ctx, p, si+1, env, w, mode, emit)
			if ctx.capture {
				ctx.trail = ctx.trail[:len(ctx.trail)-1]
			}
			if err != nil {
				return err
			}
		}
		return nil
	default:
		panic("engine: unknown plan step")
	}
}

// evalKey encodes a lookup key into the context's scratch buffer. The
// returned slice is valid until the next evalKey call on the same context.
func evalKey(ctx *evalCtx, keyExprs []typecheck.Expr, env []value.Value) ([]byte, error) {
	enc := ctx.keyBuf[:0]
	for _, e := range keyExprs {
		v, err := e.Eval(env)
		if err != nil {
			ctx.keyBuf = enc
			return nil, err
		}
		enc = v.Encode(enc)
	}
	ctx.keyBuf = enc
	return enc, nil
}

// negTransition computes, for a negated literal occurrence whose relation
// changed, the distinct constraint keys whose emptiness flipped.
type negTransition struct {
	keyRec value.Record
	// factor is the change of the [no match] indicator: +1 when matches
	// disappeared, -1 when matches appeared.
	factor int64
}

func (rt *Runtime) negTransitions(lit *typecheck.LiteralTerm) []negTransition {
	rs := rt.relStateOf(lit.Rel)
	ix := rs.getIndex(negKeyCols(lit))
	seen := make(map[string]bool)
	var out []negTransition
	bp := value.GetEncodeBuf()
	enc := *bp
	for _, f := range rs.touched {
		if f.delta() == 0 {
			continue
		}
		keyRec := make(value.Record, len(lit.Checks))
		for i, chk := range lit.Checks {
			keyRec[i] = f.rec[chk.Col]
		}
		// Checks are in column order, so this encoding matches the index key.
		enc = keyRec.AppendEncode(enc[:0])
		if seen[string(enc)] {
			continue
		}
		seen[string(enc)] = true
		oldNE := rs.bucketNonEmpty(ix, enc, true)
		newNE := rs.bucketNonEmpty(ix, enc, false)
		switch {
		case oldNE && !newNE:
			out = append(out, negTransition{keyRec: keyRec, factor: 1})
		case !oldNE && newNE:
			out = append(out, negTransition{keyRec: keyRec, factor: -1})
		}
	}
	*bp = enc
	value.PutEncodeBuf(bp)
	return out
}

// runCountingStratum propagates settled lower-stratum deltas into one
// non-recursive relation using derivation counting: each changed body
// fact seeds its plan as the delta is walked, and every seeding's head
// contributions are applied to the head's counts as they are emitted. The
// head never appears in its own rule bodies, so evaluation neither reads
// what it writes nor changes the deltas it walks.
func (rt *Runtime) runCountingStratum(s int, initial bool) error {
	head := rt.rels[rt.strata[s][0]]
	var cur *compiledRule // the rule whose plan is running
	emit := func(rec value.Record, key string, hh uint64, w int64) error {
		rt.derivations++
		if head.applyCount(rec, key, w) != 0 && rt.ruleProf != nil {
			rt.ruleProf[cur.idx].delta++
		}
		return nil
	}
	var err error
	run := func(p *plan, seed value.Record, key string, w int64, mode viewMode) {
		if err == nil {
			cur = p.rule
			err = rt.runPlan(&rt.ctx, p, seed, key, w, mode, emit)
		}
	}
	for _, cr := range rt.rulesByHead[head] {
		if initial && cr.unitPlan != nil {
			run(cr.unitPlan, nil, "", 1, viewAllNew)
		}
		for idx, p := range cr.plansByBody {
			if p == nil {
				continue
			}
			lit := cr.body[idx].(*typecheck.LiteralTerm)
			litRel := rt.relStateOf(lit.Rel)
			if litRel.changed == 0 {
				continue
			}
			if lit.Negated {
				for _, tr := range rt.negTransitions(lit) {
					run(p, tr.keyRec, "", tr.factor, viewConvention)
				}
				continue
			}
			for _, f := range litRel.touched {
				if w := f.delta(); w != 0 {
					run(p, f.rec, f.key, w, viewConvention)
				}
			}
		}
	}
	if err != nil {
		return err
	}
	for _, spec := range rt.aggsByHead[head] {
		if err := rt.runAggregate(spec); err != nil {
			return err
		}
	}
	return head.checkSettled()
}

// runAggregate re-aggregates the groups affected by the hidden group
// relation's delta and applies the head changes.
func (rt *Runtime) runAggregate(spec *aggSpec) error {
	if spec.groupRel.changed == 0 {
		return nil
	}
	if rt.ruleProf != nil {
		t0 := time.Now()
		defer func() {
			rt.ruleProf[spec.idx].ns += int64(time.Since(t0))
		}()
	}
	env := make([]value.Value, spec.envSize, spec.envSize+rt.prog.FrameSize)
	seen := make(map[string]bool)
	var keys []value.Record
	for _, f := range spec.groupRel.touched {
		if f.delta() == 0 {
			continue
		}
		keyRec := f.rec[:spec.numKeys]
		keyEnc := keyRec.Key()
		if !seen[keyEnc] {
			seen[keyEnc] = true
			keys = append(keys, keyRec)
		}
	}
	if rt.ruleProf != nil {
		// One re-aggregated group is one seeding of the aggregation.
		rt.ruleProf[spec.idx].seedings += int64(len(keys))
	}
	var keyBuf []byte
	for _, keyRec := range keys {
		keyBuf = value.Record(keyRec).AppendEncode(keyBuf[:0])
		oldV, oldOK, err := rt.aggCompute(spec, keyBuf, true, env)
		if err != nil {
			return err
		}
		newV, newOK, err := rt.aggCompute(spec, keyBuf, false, env)
		if err != nil {
			return err
		}
		if oldOK && newOK && oldV.Equal(newV) {
			continue
		}
		mkHead := func(agg value.Value) (value.Record, error) {
			for i := 0; i < spec.numKeys; i++ {
				env[spec.slotOfCol[i]] = keyRec[i]
			}
			env[spec.outSlot] = agg
			rec := make(value.Record, len(spec.headExprs))
			for i, e := range spec.headExprs {
				v, err := e.Eval(env)
				if err != nil {
					return nil, fmt.Errorf("engine: %s: %w", spec.head.rel.Name, err)
				}
				rec[i] = v
			}
			return rec, nil
		}
		if oldOK {
			rec, err := mkHead(oldV)
			if err != nil {
				return err
			}
			rt.derivations++
			key := rec.Key()
			if rt.prov != nil {
				rt.prov.unrecordByLabel(provDigest(spec.head.id, key), spec.label)
			}
			tr := spec.head.applyCount(rec, key, -1)
			if rt.ruleProf != nil {
				a := &rt.ruleProf[spec.idx]
				a.derivs++
				if tr != 0 {
					a.delta++
				}
			}
		}
		if newOK {
			rec, err := mkHead(newV)
			if err != nil {
				return err
			}
			rt.derivations++
			key := rec.Key()
			tr := spec.head.applyCount(rec, key, 1)
			if rt.ruleProf != nil {
				a := &rt.ruleProf[spec.idx]
				a.derivs++
				if tr != 0 {
					a.delta++
				}
			}
			if rt.prov != nil {
				rt.recordAggProv(spec, keyBuf, rec, key)
			}
		}
	}
	return nil
}

// aggCompute evaluates the aggregate over one group in the chosen view.
// ok is false when the group is empty (no output row).
func (rt *Runtime) aggCompute(spec *aggSpec, keyEnc []byte, old bool, env []value.Value) (value.Value, bool, error) {
	var acc value.Value
	var sum int64
	var bitSum uint64
	n := 0
	for _, f := range spec.keyIx.factsOf(keyEnc) {
		if !f.presentIn(old) {
			continue
		}
		n++
		if spec.argExpr == nil {
			continue
		}
		for i, s := range spec.slotOfCol {
			env[s] = f.rec[i]
		}
		v, err := spec.argExpr.Eval(env)
		if err != nil {
			return value.Value{}, false, err
		}
		switch spec.agg {
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
	if n == 0 {
		return value.Value{}, false, nil
	}
	switch spec.agg {
	case "count":
		return value.Int(int64(n)), true, nil
	case "sum":
		if spec.argExpr.Type().Kind == value.TBit {
			return value.BitW(bitSum, spec.argExpr.Type().Width), true, nil
		}
		return value.Int(sum), true, nil
	default:
		return acc, true, nil
	}
}

// runRecursiveStratum brings one recursive stratum up to date: the
// Backward/Forward algorithm deletes the facts that lost their last proof
// (backward.go), then semi-naive insertion derives what the stratum gained.
func (rt *Runtime) runRecursiveStratum(s int, initial bool) error {
	wl := &worklist{rt: rt, stratum: s}
	// Skip quickly when nothing feeding the stratum changed.
	changed := initial
	var rules []*compiledRule
	for _, id := range rt.strata[s] {
		for _, cr := range rt.rulesByHead[rt.rels[id]] {
			rules = append(rules, cr)
			for idx, p := range cr.plansByBody {
				if p != nil {
					litRel := rt.relStateOf(cr.body[idx].(*typecheck.LiteralTerm).Rel)
					changed = changed || litRel.stratum != s && litRel.changed > 0
				}
			}
		}
	}
	if !changed {
		return nil
	}
	if !initial {
		if err := wl.deleteUnproved(rules); err != nil {
			return err
		}
	}
	if err := wl.seed(rules, initial, 1, viewAllNew, wl.inserter); err != nil {
		return err
	}
	return wl.drain(1, viewAllNew, wl.inserter)
}

// pending is a fact of a recursive stratum waiting to seed the in-stratum
// occurrences of its relation: one insertion just derived, or one
// deletion just deleted or proved.
type pending struct {
	rel *relState
	f   *fact
}

// worklist is a recursive stratum's semi-naive queue: deletion's search
// for lost derivations, its saturation and the insertion phase each push
// facts and drain the queue.
type worklist struct {
	rt      *Runtime
	stratum int
	queue   []pending
}

// inserter returns the emit that makes the rule's head facts present,
// queueing each one that was absent.
func (wl *worklist) inserter(cr *compiledRule) emitFunc {
	rt, rs := wl.rt, cr.head
	return func(rec value.Record, key string, _ uint64, _ int64) error {
		rt.derivations++
		if f := rs.internKey(rec, key); rs.setPresent(f) {
			wl.queue = append(wl.queue, pending{rel: rs, f: f})
			if rt.ruleProf != nil {
				rt.ruleProf[cr.idx].delta++
			}
		}
		return nil
	}
}

// seed runs the stratum's rules seeded at their changed lower-stratum
// literals, keeping the changes of one sign: -1 (support lost: deleted
// facts, negated keys whose matches appeared) for deletion's candidates,
// +1 (support gained) for insertion. Each run carries the sign as its
// weight, so provenance records what insertion finds and unrecords what
// deletion finds. With units, each rule's unit plan runs first. Emits go
// through mk(rule).
func (wl *worklist) seed(rules []*compiledRule, units bool, sign int64, mode viewMode, mk func(*compiledRule) emitFunc) error {
	rt := wl.rt
	for _, cr := range rules {
		emit := mk(cr)
		if units && cr.unitPlan != nil {
			if err := rt.runPlan(&rt.ctx, cr.unitPlan, nil, "", sign, mode, emit); err != nil {
				return err
			}
		}
		for idx, p := range cr.plansByBody {
			if p == nil {
				continue
			}
			lit := cr.body[idx].(*typecheck.LiteralTerm)
			litRel := rt.relStateOf(lit.Rel)
			if litRel.stratum == wl.stratum || litRel.changed == 0 {
				continue
			}
			if lit.Negated {
				for _, tr := range rt.negTransitions(lit) {
					if tr.factor == sign {
						if err := rt.runPlan(&rt.ctx, p, tr.keyRec, "", sign, mode, emit); err != nil {
							return err
						}
					}
				}
				continue
			}
			for _, f := range litRel.touched {
				if f.delta() == sign {
					if err := rt.runPlan(&rt.ctx, p, f.rec, f.key, sign, mode, emit); err != nil {
						return err
					}
				}
			}
		}
	}
	return nil
}

// drain pops queued facts until the queue is empty: each seeds every
// positive in-stratum occurrence of its relation with weight w under
// mode, emitting through mk(rule).
func (wl *worklist) drain(w int64, mode viewMode, mk func(*compiledRule) emitFunc) error {
	rt := wl.rt
	for len(wl.queue) > 0 {
		pd := wl.queue[len(wl.queue)-1]
		wl.queue = wl.queue[:len(wl.queue)-1]
		for _, occ := range rt.occsByRel[pd.rel.id] {
			// In-stratum negation is impossible (stratified).
			if occ.rule.head.stratum != wl.stratum || occ.rule.body[occ.bodyIdx].(*typecheck.LiteralTerm).Negated {
				continue
			}
			if err := rt.runPlan(&rt.ctx, occ.rule.plansByBody[occ.bodyIdx], pd.f.rec, pd.f.key, w,
				mode, mk(occ.rule)); err != nil {
				return err
			}
		}
	}
	return nil
}

// Contents returns a sorted snapshot of a relation's records.
func (rt *Runtime) Contents(name string) ([]value.Record, error) {
	rs := rt.relByName[name]
	if rs == nil || rs.hidden {
		return nil, fmt.Errorf("engine: unknown relation %q", name)
	}
	return rs.contents(), nil
}

// RelationRole reports a (non-hidden) relation's role; ok is false for
// unknown or hidden names.
func (rt *Runtime) RelationRole(name string) (ast.RelationRole, bool) {
	rs := rt.relByName[name]
	if rs == nil || rs.hidden {
		return 0, false
	}
	return rs.rel.Role, true
}

// Relations returns the names of the program's (non-hidden) relations,
// sorted.
func (rt *Runtime) Relations() []string {
	var names []string
	for _, rs := range rt.rels {
		if !rs.hidden {
			names = append(names, rs.rel.Name)
		}
	}
	sort.Strings(names)
	return names
}

// Stats summarizes runtime memory shape for benchmarking.
type Stats struct {
	Tuples       int // present tuples across all relations (incl. hidden)
	IndexEntries int // tuple references held by arrangements
	Indexes      int
}

// Stats reports current memory-shape statistics.
func (rt *Runtime) Stats() Stats {
	var st Stats
	for _, rs := range rt.rels {
		st.Tuples += len(rs.facts)
		for _, ix := range rs.indexList {
			st.Indexes++
			for _, b := range ix.buckets {
				st.IndexEntries += len(b.facts)
			}
		}
	}
	return st
}
