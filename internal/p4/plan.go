package p4

import "slices"

// plan is the program lowered once at load. Every header field and
// metadata field is a slot in one flat value vector, parser states and
// headers are indices, tables are pointers, and action bodies are op
// lists with their operands resolved, so a packet runs without a name
// lookup, a map or an allocation.
type plan struct {
	slots    int // length of the value vector
	maxKeys  int // most keys of any table
	hdrs     []hdrPlan
	states   []statePlan
	ingress  []ctlStmt
	egress   []ctlStmt
	deparser []int // header indices in emission order
	actions  map[string]*action
}

// Standard metadata occupies the first slots of the value vector; user
// metadata and then header fields follow.
const (
	slotIngress = iota
	slotEgress
	slotMcast
	slotInstance
)

// Parser transitions into the terminal states.
const (
	stateAccept = -1
	stateReject = -2
)

// hdrPlan places a header's fields: size bytes on the wire, byte-aligned.
type hdrPlan struct {
	size   int
	fields []fieldPlan
}

// fieldPlan places one header field in its slot and on the wire: it
// spans the nb bytes starting off bytes into the header, and the last of
// them holds trail bits past its end.
type fieldPlan struct {
	slot, off, nb int
	trail         uint
	mask          uint64
}

type statePlan struct {
	hdr   int // header extracted on entry, or -1
	sel   int // slot selected on, or -1 for an unconditional transition
	cases []casePlan
	next  int // unconditional transition or select default
}

type casePlan struct {
	value, mask uint64
	next        int
}

// operand is a value an op or condition reads.
type operand struct {
	kind uint8 // argConst, argParam or argSlot
	v    uint64
}

const (
	argConst = iota
	argParam
	argSlot
)

type opCode uint8

const (
	opSet opCode = iota // also multicast(): a set of mcast_grp
	opOutput
	opClone
	opDrop
	opDigest
	opSetValid
	opSetInvalid
)

type op struct {
	code   opCode
	arg    operand
	slot   int    // opSet destination
	mask   uint64 // opSet destination width
	hdr    int    // header of an opSet destination (-1: metadata), or of opSetValid/opSetInvalid
	digest *digestPlan
}

type digestPlan struct {
	name  string
	args  []operand
	masks []uint64
}

// action is a declared action and its lowered body.
type action struct {
	decl *Action
	ops  []op
}

// ctlStmt is a table apply (table != nil) or an if.
type ctlStmt struct {
	table     *tableState
	cond      *cond
	then, els []ctlStmt
}

type condOp uint8

const (
	condEq condOp = iota
	condNe
	condValid
	condNot
	condAnd
	condOr
)

var boolOps = map[string]condOp{"not": condNot, "and": condAnd, "or": condOr}

type cond struct {
	op   condOp
	l, r operand // condEq, condNe
	hdr  int     // condValid
	a, b *cond   // condNot (a), condAnd, condOr
}

// lowering carries the name tables lower needs only at load time.
type lowering struct {
	prog   *Program
	tables map[string]*tableState
	slot   map[FieldRef]int
	mask   []uint64 // per slot
	hdrOf  []int    // per slot: owning header, or -1
	hdr    map[string]int
	state  map[string]int
}

// lower compiles a validated program against its table states.
func lower(prog *Program, tables map[string]*tableState) *plan {
	lw := &lowering{
		prog: prog, tables: tables,
		slot:  make(map[FieldRef]int),
		hdr:   make(map[string]int),
		state: map[string]int{"accept": stateAccept, "reject": stateReject},
	}
	for _, f := range []string{FieldIngress, FieldEgress, FieldMcastGrp, FieldInstance} { // slotIngress...
		ref := FieldRef{StdMetaHeader, f}
		bits, _ := prog.fieldBits(ref)
		lw.addSlot(ref, bits, -1)
	}
	for _, m := range prog.Metadata {
		lw.addSlot(FieldRef{MetaHeader, m.Name}, m.Bits, -1)
	}
	pl := &plan{actions: make(map[string]*action)}
	for hi, h := range prog.Headers {
		lw.hdr[h.Name] = hi
		hp := hdrPlan{size: h.Bits() / 8}
		bit := 0
		for _, f := range h.Fields {
			end := bit + f.Bits
			last := (end - 1) / 8
			hp.fields = append(hp.fields, fieldPlan{
				slot: lw.addSlot(FieldRef{h.Name, f.Name}, f.Bits, hi),
				off:  bit / 8, nb: last - bit/8 + 1,
				trail: uint(8*(last+1) - end), mask: maskBits(f.Bits),
			})
			bit = end
		}
		pl.hdrs = append(pl.hdrs, hp)
	}
	pl.slots = len(lw.mask)
	for i, st := range prog.Parser {
		lw.state[st.Name] = i
	}
	for _, st := range prog.Parser {
		sp := statePlan{hdr: -1, sel: -1, next: lw.state[st.Next]}
		if st.Extract != "" {
			sp.hdr = lw.hdr[st.Extract]
		}
		if s := st.Select; s != nil {
			sp.sel, sp.next = lw.slot[s.Field], lw.state[s.Default]
			for _, c := range s.Cases {
				mask := c.Mask
				if mask == 0 {
					mask = ^uint64(0)
				}
				sp.cases = append(sp.cases, casePlan{value: c.Value & mask, mask: mask, next: lw.state[c.Next]})
			}
		}
		pl.states = append(pl.states, sp)
	}
	for _, a := range prog.Actions {
		act := &action{decl: a}
		for _, s := range a.Body {
			act.ops = append(act.ops, lw.stmt(s))
		}
		pl.actions[a.Name] = act
	}
	for _, t := range prog.Tables {
		ts := tables[t.Name]
		for _, k := range t.Keys {
			ts.keySlots = append(ts.keySlots, lw.slot[k.Ref])
		}
		pl.maxKeys = max(pl.maxKeys, len(t.Keys))
		ts.defact = pl.actions[t.DefaultAction.Action] // nil: a miss is a no-op
	}
	pl.ingress = lw.control(prog.Ingress.Apply)
	if prog.Egress != nil {
		pl.egress = lw.control(prog.Egress.Apply)
	}
	for _, h := range prog.Deparser {
		pl.deparser = append(pl.deparser, lw.hdr[h])
	}
	return pl
}

func (lw *lowering) addSlot(ref FieldRef, bits, hdr int) int {
	lw.slot[ref] = len(lw.mask)
	lw.mask = append(lw.mask, maskBits(bits))
	lw.hdrOf = append(lw.hdrOf, hdr)
	return lw.slot[ref]
}

func (lw *lowering) operand(e Expr) operand {
	switch e := e.(type) {
	case *ParamExpr:
		return operand{kind: argParam, v: uint64(e.Index)}
	case *FieldExpr:
		return operand{kind: argSlot, v: uint64(lw.slot[e.Ref])}
	default:
		return operand{kind: argConst, v: e.(*ConstExpr).Value}
	}
}

// set assigns e to a slot, truncated to the slot's width.
func (lw *lowering) set(slot int, e Expr) op {
	return op{code: opSet, arg: lw.operand(e), slot: slot, mask: lw.mask[slot], hdr: lw.hdrOf[slot]}
}

func (lw *lowering) stmt(s Stmt) op {
	switch s := s.(type) {
	case *SetField:
		return lw.set(lw.slot[s.Ref], s.Expr)
	case *Multicast:
		return lw.set(slotMcast, s.Group)
	case *Output:
		o := lw.set(slotEgress, s.Port)
		o.code = opOutput
		return o
	case *Clone:
		return op{code: opClone, arg: lw.operand(s.Port)}
	case *EmitDigest:
		d := lw.prog.DigestByName(s.Digest)
		dp := &digestPlan{name: d.Name}
		for i, f := range s.Fields {
			dp.args = append(dp.args, lw.operand(f))
			dp.masks = append(dp.masks, maskBits(d.Fields[i].Bits))
		}
		return op{code: opDigest, digest: dp}
	case *SetValid:
		if s.Valid {
			return op{code: opSetValid, hdr: lw.hdr[s.Header]}
		}
		return op{code: opSetInvalid, hdr: lw.hdr[s.Header]}
	default: // *Drop
		return op{code: opDrop}
	}
}

func (lw *lowering) control(stmts []ControlStmt) []ctlStmt {
	var out []ctlStmt
	for _, cs := range stmts {
		switch cs := cs.(type) {
		case *ApplyTable:
			out = append(out, ctlStmt{table: lw.tables[cs.Table]})
		case *If:
			out = append(out, ctlStmt{cond: lw.cond(cs.Cond), then: lw.control(cs.Then), els: lw.control(cs.Else)})
		}
	}
	return out
}

func (lw *lowering) cond(b BoolExpr) *cond {
	switch b := b.(type) {
	case *Compare:
		c := &cond{op: condEq, l: lw.operand(b.L), r: lw.operand(b.R)}
		if b.Op == "!=" {
			c.op = condNe
		}
		return c
	case *IsValid:
		return &cond{op: condValid, hdr: lw.hdr[b.Header]}
	}
	bo := b.(*BoolOp)
	c := &cond{op: boolOps[bo.Op], a: lw.cond(bo.L)}
	if bo.R != nil {
		c.b = lw.cond(bo.R)
	}
	return c
}

// pkt is the per-packet state, pooled per runtime. in is the ingress
// state; eg is rebuilt from it for each replica egress runs on.
type pkt struct {
	pl      *plan
	in, eg  state
	payload []byte
	keys    []uint64
	dropped bool // Result.Dropped
	digests []digestOut
	dvals   []uint64 // digest fields, digestOut.off into it
	clones  []uint16
	buf     []byte // deparsed frames, back to back
	outs    []frameOut
}

// state is one copy of a packet's field values. Slots of an invalid
// header hold zero, so reads need no validity test.
type state struct {
	vals      []uint64
	valid     []bool
	egressSet bool // egress_spec was assigned
	dropped   bool
}

type digestOut struct {
	d   *digestPlan
	off int
}

type frameOut struct {
	port       uint16
	start, end int
}

func (pl *plan) newPkt() *pkt {
	p := &pkt{pl: pl, keys: make([]uint64, pl.maxKeys)}
	for _, s := range []*state{&p.in, &p.eg} {
		s.vals, s.valid = make([]uint64, pl.slots), make([]bool, len(pl.hdrs))
	}
	return p
}

// run executes the pipeline on one packet into p under the runtime's
// read lock.
func (rt *Runtime) run(port uint16, data []byte, p *pkt) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	pl := rt.plan
	in := &p.in
	clear(in.vals)
	clear(in.valid)
	in.vals[slotIngress] = uint64(port)
	in.egressSet, in.dropped = false, false
	p.dropped = false
	p.digests, p.dvals, p.clones, p.buf, p.outs = p.digests[:0], p.dvals[:0], p.clones[:0], p.buf[:0], p.outs[:0]
	if !p.parse(data) {
		p.dropped = true // parse errors drop the packet, as BMv2 does by default
		return
	}
	p.control(in, pl.ingress)
	// Clone-session copies are emitted even for dropped originals
	// (mirroring must see denied traffic too). Clones egress asks for are
	// appended past n and ignored.
	for i, n := 0, len(p.clones); i < n; i++ {
		p.egress(p.clones[i])
	}
	switch g := uint16(in.vals[slotMcast]); {
	case in.dropped:
		p.dropped = true
	case g != 0: // multicast beats unicast, as in v1model
		for _, q := range rt.mcast[g] {
			if q != port { // no reflection back to the source port
				p.egress(q)
			}
		}
	case in.egressSet:
		p.egress(uint16(in.vals[slotEgress]))
	default:
		p.dropped = true // no egress decision
	}
}

func (p *pkt) parse(data []byte) bool {
	pl := p.pl
	pos, st := 0, 0
	for steps := 0; steps <= 1000; steps++ {
		sp := &pl.states[st]
		if sp.hdr >= 0 {
			h := &pl.hdrs[sp.hdr]
			if len(data)-pos < h.size {
				return false
			}
			b := data[pos : pos+h.size]
			for i := range h.fields {
				f := &h.fields[i]
				p.in.vals[f.slot] = readBits(b[f.off:f.off+f.nb], f.trail) & f.mask
			}
			p.in.valid[sp.hdr] = true
			pos += h.size
		}
		next := sp.next
		if sp.sel >= 0 {
			v := p.in.vals[sp.sel]
			for _, c := range sp.cases {
				if v&c.mask == c.value {
					next = c.next
					break
				}
			}
		}
		switch next {
		case stateAccept:
			p.payload = data[pos:]
			return true
		case stateReject:
			return false
		}
		st = next
	}
	return false // the parser did not terminate
}

// egress runs the egress control on a replica bound for port and, unless
// it drops the replica, deparses it into p.buf. A dropped replica's
// digests are discarded.
func (p *pkt) egress(port uint16) {
	pl := p.pl
	s := &p.eg
	copy(s.vals, p.in.vals)
	copy(s.valid, p.in.valid)
	s.vals[slotEgress] = uint64(port)
	s.dropped = false
	nd, nv := len(p.digests), len(p.dvals)
	p.control(s, pl.egress)
	if s.dropped {
		p.digests, p.dvals = p.digests[:nd], p.dvals[:nv]
		return
	}
	start := len(p.buf)
	for _, hi := range pl.deparser {
		if !s.valid[hi] {
			continue
		}
		h := &pl.hdrs[hi]
		off := len(p.buf)
		p.buf = slices.Grow(p.buf, h.size)[:off+h.size]
		clear(p.buf[off:])
		for i := range h.fields {
			f := &h.fields[i]
			writeBits(p.buf[off+f.off:off+f.off+f.nb], s.vals[f.slot], f.trail)
		}
	}
	p.buf = append(p.buf, p.payload...)
	p.outs = append(p.outs, frameOut{port: port, start: start, end: len(p.buf)})
}

func (p *pkt) control(s *state, stmts []ctlStmt) {
	for i := range stmts {
		c := &stmts[i]
		switch {
		case c.table != nil:
			p.apply(s, c.table)
		case s.test(c.cond):
			p.control(s, c.then)
		default:
			p.control(s, c.els)
		}
	}
}

func (p *pkt) apply(s *state, ts *tableState) {
	keys := p.keys[:len(ts.keySlots)]
	for i, slot := range ts.keySlots {
		keys[i] = s.vals[slot]
	}
	if e := ts.lookup(keys); e != nil {
		ts.hits.Add(1)
		p.exec(s, e.act, e.Params)
	} else {
		ts.misses.Add(1)
		if ts.defact != nil {
			p.exec(s, ts.defact, ts.table.DefaultAction.Params)
		}
	}
}

func (p *pkt) exec(s *state, a *action, params []uint64) {
	for i := range a.ops {
		o := &a.ops[i]
		switch o.code {
		case opSet, opOutput:
			if o.hdr >= 0 && !s.valid[o.hdr] {
				continue // writing an invalid header is a no-op
			}
			s.vals[o.slot] = s.get(o.arg, params) & o.mask
			if o.slot == slotEgress {
				s.egressSet = true
			}
			if o.code == opOutput {
				s.dropped = false
			}
		case opClone:
			p.clones = append(p.clones, uint16(s.get(o.arg, params)))
		case opDrop:
			s.dropped = true
		case opDigest:
			p.digests = append(p.digests, digestOut{d: o.digest, off: len(p.dvals)})
			for j, a := range o.digest.args {
				p.dvals = append(p.dvals, s.get(a, params)&o.digest.masks[j])
			}
		case opSetValid:
			s.valid[o.hdr] = true
		case opSetInvalid:
			if s.valid[o.hdr] {
				s.valid[o.hdr] = false
				for _, f := range p.pl.hdrs[o.hdr].fields {
					s.vals[f.slot] = 0
				}
			}
		}
	}
}

func (s *state) get(a operand, params []uint64) uint64 {
	switch a.kind {
	case argSlot:
		return s.vals[a.v]
	case argParam:
		return params[a.v]
	}
	return a.v
}

func (s *state) test(c *cond) bool {
	switch c.op {
	case condEq:
		return s.get(c.l, nil) == s.get(c.r, nil)
	case condNe:
		return s.get(c.l, nil) != s.get(c.r, nil)
	case condValid:
		return s.valid[c.hdr]
	case condNot:
		return !s.test(c.a)
	case condAnd:
		return s.test(c.a) && s.test(c.b)
	}
	return s.test(c.a) || s.test(c.b)
}
