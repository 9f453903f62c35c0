package p4

import "fmt"

// This file holds the reference interpreter: an AST walker that resolves
// every header, field, table, action and parser state by name for each
// packet. The runtime lowers the program once instead (plan.go); the
// differential tests and FuzzProcess hold the two to the same Result.

// ReferenceProcess runs one packet through the reference walker against
// rt's installed entries and multicast groups.
func ReferenceProcess(rt *Runtime, ingressPort uint16, data []byte) (Result, error) {
	rt.mu.RLock()
	defer rt.mu.RUnlock()
	w := &walker{
		rt:        rt,
		headerIdx: make(map[string]*HeaderType),
		metaIdx:   make(map[string]int),
		stateIdx:  make(map[string]*ParserState),
	}
	for _, h := range rt.prog.Headers {
		w.headerIdx[h.Name] = h
	}
	for i, m := range rt.prog.Metadata {
		w.metaIdx[m.Name] = i
	}
	for _, st := range rt.prog.Parser {
		w.stateIdx[st.Name] = st
	}
	return w.process(ingressPort, data)
}

type walker struct {
	rt        *Runtime
	headerIdx map[string]*HeaderType
	metaIdx   map[string]int
	stateIdx  map[string]*ParserState
}

// pktState is the per-packet execution state.
type pktState struct {
	w           *walker
	headerVals  map[string][]uint64
	headerValid map[string]bool
	meta        []uint64
	std         map[string]uint64
	payload     []byte
	dropped     bool
	mcastGroup  uint16
	digests     []DigestMessage
	clones      []uint16
}

func (w *walker) process(ingressPort uint16, data []byte) (Result, error) {
	rt := w.rt
	st := &pktState{
		w:           w,
		headerVals:  make(map[string][]uint64, len(rt.prog.Headers)),
		headerValid: make(map[string]bool, len(rt.prog.Headers)),
		meta:        make([]uint64, len(rt.prog.Metadata)),
		std:         map[string]uint64{FieldIngress: uint64(ingressPort)},
	}
	if err := st.parse(data); err != nil {
		// Parse errors drop the packet, as BMv2 does by default.
		return Result{Dropped: true}, nil
	}
	if err := st.runControl(rt.prog.Ingress.Apply); err != nil {
		return Result{}, err
	}

	var res Result
	// Clone-session copies are emitted even for dropped originals
	// (mirroring must see denied traffic too).
	for _, port := range st.clones {
		out, err := st.egressAndDeparse(port)
		if err != nil {
			return Result{}, err
		}
		if out != nil {
			res.Outputs = append(res.Outputs, PortOut{Port: port, Data: out})
		}
	}
	if st.dropped {
		res.Dropped = true
		res.Digests = st.digests
		return res, nil
	}
	// Replication: multicast beats unicast, matching v1model semantics
	// when mcast_grp is set.
	if st.mcastGroup != 0 {
		ports := rt.mcast[st.mcastGroup]
		for _, port := range ports {
			if port == ingressPort {
				continue // no reflection back to the source port
			}
			out, err := st.egressAndDeparse(port)
			if err != nil {
				return Result{}, err
			}
			if out != nil {
				res.Outputs = append(res.Outputs, PortOut{Port: port, Data: out})
			}
		}
		res.Digests = st.digests
		return res, nil
	}
	if egress, ok := st.std[FieldEgress]; ok {
		port := uint16(egress)
		out, err := st.egressAndDeparse(port)
		if err != nil {
			return Result{}, err
		}
		if out != nil {
			res.Outputs = append(res.Outputs, PortOut{Port: port, Data: out})
		}
		res.Digests = st.digests
		return res, nil
	}
	// No egress decision: drop.
	res.Dropped = true
	res.Digests = st.digests
	return res, nil
}

// egressAndDeparse runs the egress control (on a copy of the packet state
// for multicast replicas) and deparses. A nil return means the replica was
// dropped.
func (st *pktState) egressAndDeparse(port uint16) ([]byte, error) {
	repl := st.cloneForReplica()
	repl.std[FieldEgress] = uint64(port)
	if eg := st.w.rt.prog.Egress; eg != nil {
		if err := repl.runControl(eg.Apply); err != nil {
			return nil, err
		}
		if repl.dropped {
			return nil, nil
		}
	}
	st.digests = append(st.digests, repl.digests...)
	return repl.deparse(), nil
}

func (st *pktState) cloneForReplica() *pktState {
	c := &pktState{
		w:           st.w,
		headerVals:  make(map[string][]uint64, len(st.headerVals)),
		headerValid: make(map[string]bool, len(st.headerValid)),
		meta:        append([]uint64(nil), st.meta...),
		std:         make(map[string]uint64, len(st.std)),
		payload:     st.payload,
		mcastGroup:  st.mcastGroup,
	}
	for k, v := range st.headerVals {
		c.headerVals[k] = append([]uint64(nil), v...)
	}
	for k, v := range st.headerValid {
		c.headerValid[k] = v
	}
	for k, v := range st.std {
		c.std[k] = v
	}
	return c
}

func (st *pktState) parse(data []byte) error {
	r := &bitReader{data: data}
	state := st.w.rt.prog.Parser[0]
	for steps := 0; ; steps++ {
		if steps > 1000 {
			return fmt.Errorf("p4: parser did not terminate")
		}
		if state.Extract != "" {
			h := st.w.headerIdx[state.Extract]
			vals := make([]uint64, len(h.Fields))
			for i, f := range h.Fields {
				v, ok := r.read(f.Bits)
				if !ok {
					return fmt.Errorf("p4: packet too short extracting %s", h.Name)
				}
				vals[i] = v
			}
			st.headerVals[h.Name] = vals
			st.headerValid[h.Name] = true
		}
		next := state.Next
		if state.Select != nil {
			v, err := st.readField(state.Select.Field)
			if err != nil {
				return err
			}
			next = state.Select.Default
			for _, c := range state.Select.Cases {
				mask := c.Mask
				if mask == 0 {
					mask = ^uint64(0)
				}
				if v&mask == c.Value&mask {
					next = c.Next
					break
				}
			}
		}
		switch next {
		case "accept":
			st.payload = data[r.bytesConsumed():]
			return nil
		case "reject":
			return fmt.Errorf("p4: parser rejected packet")
		default:
			state = st.w.stateIdx[next]
		}
	}
}

func (st *pktState) readField(ref FieldRef) (uint64, error) {
	switch ref.Header {
	case StdMetaHeader:
		if ref.Field == FieldMcastGrp {
			return uint64(st.mcastGroup), nil
		}
		return st.std[ref.Field], nil
	case MetaHeader:
		idx, ok := st.w.metaIdx[ref.Field]
		if !ok {
			return 0, fmt.Errorf("p4: unknown metadata field %q", ref.Field)
		}
		return st.meta[idx], nil
	default:
		h := st.w.headerIdx[ref.Header]
		if h == nil {
			return 0, fmt.Errorf("p4: unknown header %q", ref.Header)
		}
		if !st.headerValid[ref.Header] {
			return 0, nil // reading an invalid header yields zero
		}
		i := h.FieldIndex(ref.Field)
		if i < 0 {
			return 0, fmt.Errorf("p4: header %s has no field %q", ref.Header, ref.Field)
		}
		return st.headerVals[ref.Header][i], nil
	}
}

// writeField assigns v, truncated to the field's declared width.
func (st *pktState) writeField(ref FieldRef, v uint64) error {
	bits, err := st.w.rt.prog.fieldBits(ref)
	if err != nil {
		return err
	}
	v &= maskBits(bits)
	switch ref.Header {
	case StdMetaHeader:
		switch ref.Field {
		case FieldMcastGrp:
			st.mcastGroup = uint16(v)
		default:
			st.std[ref.Field] = v
		}
	case MetaHeader:
		st.meta[st.w.metaIdx[ref.Field]] = v
	default:
		if st.headerValid[ref.Header] { // writing an invalid header is a no-op
			st.headerVals[ref.Header][st.w.headerIdx[ref.Header].FieldIndex(ref.Field)] = v
		}
	}
	return nil
}

func (st *pktState) evalExpr(e Expr, params []uint64) (uint64, error) {
	switch e := e.(type) {
	case *ConstExpr:
		return e.Value, nil
	case *ParamExpr:
		return params[e.Index], nil
	case *FieldExpr:
		return st.readField(e.Ref)
	default:
		return 0, fmt.Errorf("p4: unknown expression %T", e)
	}
}

func (st *pktState) evalBool(b BoolExpr) (bool, error) {
	switch b := b.(type) {
	case *Compare:
		l, err := st.evalExpr(b.L, nil)
		if err != nil {
			return false, err
		}
		r, err := st.evalExpr(b.R, nil)
		if err != nil {
			return false, err
		}
		if b.Op == "!=" {
			return l != r, nil
		}
		return l == r, nil
	case *IsValid:
		return st.headerValid[b.Header], nil
	case *BoolOp:
		l, err := st.evalBool(b.L)
		if err != nil {
			return false, err
		}
		switch b.Op {
		case "not":
			return !l, nil
		case "and":
			if !l {
				return false, nil
			}
			return st.evalBool(b.R)
		case "or":
			if l {
				return true, nil
			}
			return st.evalBool(b.R)
		}
		return false, fmt.Errorf("p4: unknown boolean operator %q", b.Op)
	default:
		return false, fmt.Errorf("p4: unknown condition %T", b)
	}
}

func (st *pktState) runControl(stmts []ControlStmt) error {
	for _, cs := range stmts {
		switch cs := cs.(type) {
		case *ApplyTable:
			if err := st.applyTable(cs.Table); err != nil {
				return err
			}
		case *If:
			cond, err := st.evalBool(cs.Cond)
			if err != nil {
				return err
			}
			branch := cs.Then
			if !cond {
				branch = cs.Else
			}
			if err := st.runControl(branch); err != nil {
				return err
			}
		}
	}
	return nil
}

func (st *pktState) applyTable(name string) error {
	ts := st.w.rt.tables[name]
	vals := make([]uint64, len(ts.table.Keys))
	for i, k := range ts.table.Keys {
		v, err := st.readField(k.Ref)
		if err != nil {
			return err
		}
		vals[i] = v
	}
	var call ActionCall
	if e := ts.lookup(vals); e != nil {
		ts.hits.Add(1)
		call = ActionCall{Action: e.Action, Params: e.Params}
	} else {
		ts.misses.Add(1)
		call = ts.table.DefaultAction
		if call.Action == "" {
			return nil // no default action: miss is a no-op
		}
	}
	act := st.w.rt.prog.ActionByName(call.Action)
	return st.runAction(act, call.Params)
}

func (st *pktState) runAction(act *Action, params []uint64) error {
	for _, stmt := range act.Body {
		switch s := stmt.(type) {
		case *SetField:
			v, err := st.evalExpr(s.Expr, params)
			if err != nil {
				return err
			}
			if err := st.writeField(s.Ref, v); err != nil {
				return err
			}
		case *Output:
			v, err := st.evalExpr(s.Port, params)
			if err != nil {
				return err
			}
			st.std[FieldEgress] = v & maskBits(StdIngressBits)
			st.dropped = false
		case *Multicast:
			v, err := st.evalExpr(s.Group, params)
			if err != nil {
				return err
			}
			st.mcastGroup = uint16(v)
		case *Clone:
			v, err := st.evalExpr(s.Port, params)
			if err != nil {
				return err
			}
			st.clones = append(st.clones, uint16(v))
		case *Drop:
			st.dropped = true
		case *EmitDigest:
			d := st.w.rt.prog.DigestByName(s.Digest)
			fields := make([]uint64, len(s.Fields))
			for i, fe := range s.Fields {
				v, err := st.evalExpr(fe, params)
				if err != nil {
					return err
				}
				fields[i] = v & maskBits(d.Fields[i].Bits)
			}
			st.digests = append(st.digests, DigestMessage{Digest: s.Digest, Fields: fields})
		case *SetValid:
			if s.Valid && !st.headerValid[s.Header] {
				h := st.w.headerIdx[s.Header]
				st.headerVals[s.Header] = make([]uint64, len(h.Fields))
			}
			st.headerValid[s.Header] = s.Valid
		}
	}
	return nil
}

// deparse emits valid headers in deparser order followed by the payload.
func (st *pktState) deparse() []byte {
	w := &bitWriter{}
	for _, hn := range st.w.rt.prog.Deparser {
		if !st.headerValid[hn] {
			continue
		}
		h := st.w.headerIdx[hn]
		vals := st.headerVals[hn]
		for i, f := range h.Fields {
			w.write(vals[i], f.Bits)
		}
	}
	return append(w.data, st.payload...)
}

// bitReader extracts big-endian bit-packed fields from a byte slice.
type bitReader struct {
	data []byte
	pos  int // bit offset
}

// read extracts the next n bits (n <= 64) as a big-endian unsigned value.
// ok is false when the data is exhausted.
func (r *bitReader) read(n int) (v uint64, ok bool) {
	if r.pos+n > len(r.data)*8 {
		return 0, false
	}
	for i := 0; i < n; i++ {
		byteIdx := r.pos >> 3
		bitIdx := 7 - r.pos&7
		v = v<<1 | uint64(r.data[byteIdx]>>bitIdx&1)
		r.pos++
	}
	return v, true
}

// bytesConsumed returns how many whole bytes have been consumed; the
// parser only extracts byte-aligned headers so this is exact at header
// boundaries.
func (r *bitReader) bytesConsumed() int { return (r.pos + 7) / 8 }

// bitWriter packs big-endian bit fields into a byte slice.
type bitWriter struct {
	data []byte
	pos  int
}

// write appends the low n bits of v.
func (w *bitWriter) write(v uint64, n int) {
	for i := n - 1; i >= 0; i-- {
		if w.pos&7 == 0 {
			w.data = append(w.data, 0)
		}
		bit := byte(v >> uint(i) & 1)
		w.data[w.pos>>3] |= bit << (7 - w.pos&7)
		w.pos++
	}
}
