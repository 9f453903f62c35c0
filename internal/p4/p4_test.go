package p4

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/packet"
)

// testProgram builds a small L2/L3 pipeline exercising every IR feature:
// Ethernet/VLAN parsing, exact and LPM and ternary tables, digests,
// multicast flooding, VLAN push/pop.
func testProgram() *Program {
	return &Program{
		Name: "test_switch",
		Headers: []*HeaderType{
			{Name: "ethernet", Fields: []HeaderField{
				{Name: "dst", Bits: 48}, {Name: "src", Bits: 48}, {Name: "etype", Bits: 16},
			}},
			{Name: "vlan", Fields: []HeaderField{
				{Name: "pcp", Bits: 3}, {Name: "dei", Bits: 1},
				{Name: "vid", Bits: 12}, {Name: "etype", Bits: 16},
			}},
			{Name: "ipv4", Fields: []HeaderField{
				{Name: "version", Bits: 4}, {Name: "ihl", Bits: 4}, {Name: "tos", Bits: 8},
				{Name: "len", Bits: 16}, {Name: "id", Bits: 16}, {Name: "flags", Bits: 3},
				{Name: "frag", Bits: 13}, {Name: "ttl", Bits: 8}, {Name: "proto", Bits: 8},
				{Name: "csum", Bits: 16}, {Name: "src", Bits: 32}, {Name: "dst", Bits: 32},
			}},
		},
		Metadata: []MetaField{{Name: "vlan_id", Bits: 12}},
		Parser: []*ParserState{
			{Name: "start", Extract: "ethernet", Select: &Select{
				Field: FieldRef{"ethernet", "etype"},
				Cases: []SelectCase{
					{Value: 0x8100, Next: "parse_vlan"},
					{Value: 0x0800, Next: "parse_ipv4"},
				},
				Default: "accept",
			}},
			{Name: "parse_vlan", Extract: "vlan", Select: &Select{
				Field:   FieldRef{"vlan", "etype"},
				Cases:   []SelectCase{{Value: 0x0800, Next: "parse_ipv4"}},
				Default: "accept",
			}},
			{Name: "parse_ipv4", Extract: "ipv4", Next: "accept"},
		},
		Actions: []*Action{
			{Name: "set_vlan", Params: []ActionParam{{Name: "vid", Bits: 12}}, Body: []Stmt{
				&SetField{Ref: FieldRef{MetaHeader, "vlan_id"}, Expr: &ParamExpr{Index: 0}},
			}},
			{Name: "use_tag_vlan", Body: []Stmt{
				&SetField{Ref: FieldRef{MetaHeader, "vlan_id"}, Expr: &FieldExpr{Ref: FieldRef{"vlan", "vid"}}},
			}},
			{Name: "forward", Params: []ActionParam{{Name: "port", Bits: 9}}, Body: []Stmt{
				&Output{Port: &ParamExpr{Index: 0}},
			}},
			{Name: "flood", Params: []ActionParam{{Name: "grp", Bits: 16}}, Body: []Stmt{
				&Multicast{Group: &ParamExpr{Index: 0}},
			}},
			{Name: "learn", Body: []Stmt{
				&EmitDigest{Digest: "mac_learn", Fields: []Expr{
					&FieldExpr{Ref: FieldRef{"ethernet", "src"}},
					&FieldExpr{Ref: FieldRef{MetaHeader, "vlan_id"}},
					&FieldExpr{Ref: FieldRef{StdMetaHeader, FieldIngress}},
				}},
			}},
			{Name: "drop_pkt", Body: []Stmt{&Drop{}}},
			{Name: "pop_vlan", Body: []Stmt{
				&SetField{Ref: FieldRef{"ethernet", "etype"}, Expr: &FieldExpr{Ref: FieldRef{"vlan", "etype"}}},
				&SetValid{Header: "vlan", Valid: false},
			}},
			{Name: "route", Params: []ActionParam{{Name: "port", Bits: 9}}, Body: []Stmt{
				&Output{Port: &ParamExpr{Index: 0}},
			}},
			{Name: "acl_drop", Body: []Stmt{&Drop{}}},
			{Name: "nop", Body: nil},
		},
		Tables: []*Table{
			{Name: "vlan_assign",
				Keys:          []TableKey{{Ref: FieldRef{StdMetaHeader, FieldIngress}, Match: MatchExact}},
				Actions:       []string{"set_vlan", "use_tag_vlan"},
				DefaultAction: ActionCall{Action: "set_vlan", Params: []uint64{1}},
			},
			{Name: "learned_src",
				Keys: []TableKey{
					{Ref: FieldRef{MetaHeader, "vlan_id"}, Match: MatchExact},
					{Ref: FieldRef{"ethernet", "src"}, Match: MatchExact},
				},
				Actions:       []string{"nop", "learn"},
				DefaultAction: ActionCall{Action: "learn"},
			},
			{Name: "fwd",
				Keys: []TableKey{
					{Ref: FieldRef{MetaHeader, "vlan_id"}, Match: MatchExact},
					{Ref: FieldRef{"ethernet", "dst"}, Match: MatchExact},
				},
				Actions:       []string{"forward", "flood"},
				DefaultAction: ActionCall{Action: "flood", Params: []uint64{1}},
			},
			{Name: "routes",
				Keys:    []TableKey{{Ref: FieldRef{"ipv4", "dst"}, Match: MatchLPM}},
				Actions: []string{"route", "drop_pkt"},
			},
			{Name: "acl",
				Keys: []TableKey{
					{Ref: FieldRef{"ipv4", "src"}, Match: MatchTernary},
					{Ref: FieldRef{"ipv4", "proto"}, Match: MatchOptional},
				},
				Actions: []string{"acl_drop", "nop"},
			},
		},
		Digests: []*Digest{
			{Name: "mac_learn", Fields: []DigestField{
				{Name: "mac", Bits: 48}, {Name: "vlan", Bits: 12}, {Name: "port", Bits: 9},
			}},
		},
		Ingress: &Control{Name: "ingress", Apply: []ControlStmt{
			&If{
				Cond: &IsValid{Header: "vlan"},
				Then: []ControlStmt{&ApplyTable{Table: "vlan_assign"}},
				Else: []ControlStmt{&ApplyTable{Table: "vlan_assign"}},
			},
			&ApplyTable{Table: "learned_src"},
			&If{
				Cond: &IsValid{Header: "ipv4"},
				// The ACL applies after routing: in BMv2-style semantics a
				// later Output overrides an earlier drop, so deny rules
				// must come last.
				Then: []ControlStmt{&ApplyTable{Table: "routes"}, &ApplyTable{Table: "acl"}},
				Else: []ControlStmt{&ApplyTable{Table: "fwd"}},
			},
		}},
		Deparser: []string{"ethernet", "vlan", "ipv4"},
	}
}

func newTestRuntime(t *testing.T) *Runtime {
	t.Helper()
	rt, err := NewRuntime(testProgram())
	if err != nil {
		t.Fatalf("NewRuntime: %v", err)
	}
	return rt
}

func ethFrame(dst, src packet.MAC, etype uint16, payload []byte) []byte {
	e := packet.Ethernet{Dst: dst, Src: src, EtherType: etype}
	return append(e.Append(nil), payload...)
}

func TestValidateOK(t *testing.T) {
	if err := testProgram().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	cases := map[string]func(p *Program){
		"unaligned header": func(p *Program) {
			p.Headers[0].Fields[0].Bits = 47
		},
		"unknown extract": func(p *Program) {
			p.Parser[0].Extract = "nope"
		},
		"unknown transition": func(p *Program) {
			p.Parser[2].Next = "nowhere"
		},
		"table unknown action": func(p *Program) {
			p.Tables[0].Actions = []string{"nope"}
		},
		"table no keys": func(p *Program) {
			p.Tables[0].Keys = nil
		},
		"bad digest ref": func(p *Program) {
			p.Actions[4].Body = []Stmt{&EmitDigest{Digest: "nope"}}
		},
		"bad param index": func(p *Program) {
			p.Actions[0].Body = []Stmt{&SetField{
				Ref: FieldRef{MetaHeader, "vlan_id"}, Expr: &ParamExpr{Index: 5}}}
		},
		"unknown control table": func(p *Program) {
			p.Ingress.Apply = []ControlStmt{&ApplyTable{Table: "nope"}}
		},
		"unknown boolean operator": func(p *Program) {
			p.Ingress.Apply = []ControlStmt{&If{Cond: &BoolOp{Op: "xor", L: &IsValid{"vlan"}, R: &IsValid{"ipv4"}}}}
		},
		"and without right operand": func(p *Program) {
			p.Ingress.Apply = []ControlStmt{&If{Cond: &BoolOp{Op: "and", L: &IsValid{"vlan"}}}}
		},
	}
	for name, mutate := range cases {
		p := testProgram()
		mutate(p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate succeeded", name)
		}
	}
}

func TestUntaggedPacketFloodsByDefault(t *testing.T) {
	rt := newTestRuntime(t)
	rt.SetMulticastGroup(1, []uint16{1, 2, 3})
	frame := ethFrame(0xffffffffffff, 0x0000000000aa, 0x1234, []byte("hi"))
	res, err := rt.Process(2, frame)
	if err != nil {
		t.Fatalf("Process: %v", err)
	}
	if res.Dropped || len(res.Outputs) != 2 {
		t.Fatalf("flood outputs = %+v", res)
	}
	for _, out := range res.Outputs {
		if out.Port == 2 {
			t.Errorf("flooded back to ingress port")
		}
		if string(out.Data) != string(frame) {
			t.Errorf("flooded frame mutated")
		}
	}
	// Digest for the unknown source MAC with the default VLAN.
	if len(res.Digests) != 1 || res.Digests[0].Digest != "mac_learn" {
		t.Fatalf("digests = %+v", res.Digests)
	}
	d := res.Digests[0]
	if d.Fields[0] != 0xaa || d.Fields[1] != 1 || d.Fields[2] != 2 {
		t.Fatalf("digest fields = %v", d.Fields)
	}
}

func TestExactForwarding(t *testing.T) {
	rt := newTestRuntime(t)
	// Learned: no digest for known macs.
	if err := rt.InsertEntry("learned_src", Entry{
		Matches: []FieldMatch{{Value: 1}, {Value: 0xaa}},
		Action:  "nop",
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertEntry("fwd", Entry{
		Matches: []FieldMatch{{Value: 1}, {Value: 0xbb}},
		Action:  "forward", Params: []uint64{7},
	}); err != nil {
		t.Fatal(err)
	}
	frame := ethFrame(0xbb, 0xaa, 0x1234, nil)
	res, err := rt.Process(2, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Port != 7 {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	if len(res.Digests) != 0 {
		t.Fatalf("unexpected digest: %+v", res.Digests)
	}
}

func TestVLANTaggedPath(t *testing.T) {
	rt := newTestRuntime(t)
	if err := rt.InsertEntry("vlan_assign", Entry{
		Matches: []FieldMatch{{Value: 5}},
		Action:  "use_tag_vlan",
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertEntry("fwd", Entry{
		Matches: []FieldMatch{{Value: 42}, {Value: 0xbb}},
		Action:  "forward", Params: []uint64{9},
	}); err != nil {
		t.Fatal(err)
	}
	eth := packet.Ethernet{Dst: 0xbb, Src: 0xaa, EtherType: packet.EtherTypeVLAN}
	vlan := packet.VLAN{VID: 42, EtherType: 0x1234}
	frame := vlan.Append(eth.Append(nil))
	res, err := rt.Process(5, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Port != 9 {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	// The tag is preserved on output (no pop action configured).
	var gotEth packet.Ethernet
	rest, err := gotEth.Decode(res.Outputs[0].Data)
	if err != nil || gotEth.EtherType != packet.EtherTypeVLAN {
		t.Fatalf("output frame: %+v, %v", gotEth, err)
	}
	var gotVlan packet.VLAN
	if _, err := gotVlan.Decode(rest); err != nil || gotVlan.VID != 42 {
		t.Fatalf("output vlan: %+v, %v", gotVlan, err)
	}
}

func TestLPMLongestPrefixWins(t *testing.T) {
	rt := newTestRuntime(t)
	ip1, _ := packet.ParseIPv4("10.0.0.0")
	ip2, _ := packet.ParseIPv4("10.0.1.0")
	if err := rt.InsertEntry("routes", Entry{
		Matches: []FieldMatch{{Value: uint64(ip1), PrefixLen: 8}},
		Action:  "route", Params: []uint64{1},
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertEntry("routes", Entry{
		Matches: []FieldMatch{{Value: uint64(ip2), PrefixLen: 24}},
		Action:  "route", Params: []uint64{2},
	}); err != nil {
		t.Fatal(err)
	}
	mk := func(dst string) []byte {
		d, _ := packet.ParseIPv4(dst)
		ip := packet.IP{TTL: 64, Protocol: packet.ProtoUDP, Src: 0x0a000001, Dst: d}
		return append(ethFrame(0xbb, 0xaa, packet.EtherTypeIPv4, nil), ip.Append(nil, 0)...)
	}
	res, _ := rt.Process(3, mk("10.0.1.9"))
	if len(res.Outputs) != 1 || res.Outputs[0].Port != 2 {
		t.Fatalf("/24 not preferred: %+v", res.Outputs)
	}
	res, _ = rt.Process(3, mk("10.9.9.9"))
	if len(res.Outputs) != 1 || res.Outputs[0].Port != 1 {
		t.Fatalf("/8 fallback failed: %+v", res.Outputs)
	}
	res, _ = rt.Process(3, mk("192.168.0.1"))
	if !res.Dropped {
		t.Fatalf("no-route packet not dropped: %+v", res)
	}
}

func TestTernaryPriorityAndOptional(t *testing.T) {
	rt := newTestRuntime(t)
	srcNet, _ := packet.ParseIPv4("10.0.0.0")
	// Low priority: drop everything from 10/8.
	if err := rt.InsertEntry("acl", Entry{
		Matches:  []FieldMatch{{Value: uint64(srcNet), Mask: 0xff000000}, {Wildcard: true}},
		Priority: 1,
		Action:   "acl_drop",
	}); err != nil {
		t.Fatal(err)
	}
	// Higher priority: allow UDP from 10/8.
	if err := rt.InsertEntry("acl", Entry{
		Matches:  []FieldMatch{{Value: uint64(srcNet), Mask: 0xff000000}, {Value: uint64(packet.ProtoUDP)}},
		Priority: 10,
		Action:   "nop",
	}); err != nil {
		t.Fatal(err)
	}
	routeDst, _ := packet.ParseIPv4("0.0.0.0")
	if err := rt.InsertEntry("routes", Entry{
		Matches: []FieldMatch{{Value: uint64(routeDst), PrefixLen: 0}},
		Action:  "route", Params: []uint64{4},
	}); err != nil {
		t.Fatal(err)
	}
	mk := func(proto byte) []byte {
		src, _ := packet.ParseIPv4("10.1.1.1")
		dst, _ := packet.ParseIPv4("20.0.0.1")
		ip := packet.IP{TTL: 64, Protocol: proto, Src: src, Dst: dst}
		return append(ethFrame(0xbb, 0xaa, packet.EtherTypeIPv4, nil), ip.Append(nil, 0)...)
	}
	res, _ := rt.Process(3, mk(packet.ProtoUDP))
	if res.Dropped || len(res.Outputs) != 1 {
		t.Fatalf("UDP exemption failed: %+v", res)
	}
	res, _ = rt.Process(3, mk(packet.ProtoTCP))
	if !res.Dropped {
		t.Fatalf("TCP from 10/8 not dropped: %+v", res)
	}
}

func TestVLANPopRewritesFrame(t *testing.T) {
	prog := testProgram()
	// Route all IPv4 out port 1 after popping the VLAN tag.
	prog.Ingress.Apply = []ControlStmt{
		&If{Cond: &IsValid{Header: "vlan"}, Then: []ControlStmt{&ApplyTable{Table: "pop"}}},
		&ApplyTable{Table: "fwd"},
	}
	prog.Tables = append(prog.Tables, &Table{
		Name:          "pop",
		Keys:          []TableKey{{Ref: FieldRef{"vlan", "vid"}, Match: MatchExact}},
		Actions:       []string{"pop_vlan", "nop"},
		DefaultAction: ActionCall{Action: "nop"},
	})
	rt, err := NewRuntime(prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertEntry("pop", Entry{
		Matches: []FieldMatch{{Value: 7}}, Action: "pop_vlan",
	}); err != nil {
		t.Fatal(err)
	}
	if err := rt.InsertEntry("fwd", Entry{
		Matches: []FieldMatch{{Value: 0}, {Value: 0xbb}},
		Action:  "forward", Params: []uint64{1},
	}); err != nil {
		t.Fatal(err)
	}
	eth := packet.Ethernet{Dst: 0xbb, Src: 0xaa, EtherType: packet.EtherTypeVLAN}
	vlan := packet.VLAN{VID: 7, EtherType: 0x1234}
	frame := append(vlan.Append(eth.Append(nil)), 0xde, 0xad)
	res, err := rt.Process(2, frame)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 {
		t.Fatalf("outputs = %+v", res)
	}
	var gotEth packet.Ethernet
	rest, err := gotEth.Decode(res.Outputs[0].Data)
	if err != nil {
		t.Fatal(err)
	}
	if gotEth.EtherType != 0x1234 {
		t.Fatalf("etype after pop = %#x", gotEth.EtherType)
	}
	if len(rest) != 2 || rest[0] != 0xde {
		t.Fatalf("payload after pop = %v", rest)
	}
}

func TestEntryLifecycleAndErrors(t *testing.T) {
	rt := newTestRuntime(t)
	e := Entry{Matches: []FieldMatch{{Value: 1}, {Value: 0xcc}}, Action: "forward", Params: []uint64{3}}
	if err := rt.InsertEntry("fwd", e); err != nil {
		t.Fatal(err)
	}
	if rt.EntryCount("fwd") != 1 {
		t.Fatalf("EntryCount = %d", rt.EntryCount("fwd"))
	}
	// Replacement with same matches.
	e.Params = []uint64{4}
	if err := rt.InsertEntry("fwd", e); err != nil {
		t.Fatal(err)
	}
	entries, _ := rt.Entries("fwd")
	if len(entries) != 1 || entries[0].Params[0] != 4 {
		t.Fatalf("entries = %+v", entries)
	}
	if err := rt.DeleteEntry("fwd", e.Matches); err != nil {
		t.Fatal(err)
	}
	if err := rt.DeleteEntry("fwd", e.Matches); err == nil {
		t.Fatalf("double delete succeeded")
	}
	bad := []struct {
		name  string
		table string
		e     Entry
	}{
		{"unknown table", "nope", e},
		{"wrong arity", "fwd", Entry{Matches: []FieldMatch{{Value: 1}}, Action: "forward", Params: []uint64{1}}},
		{"overflow key", "fwd", Entry{Matches: []FieldMatch{{Value: 1 << 13}, {Value: 1}}, Action: "forward", Params: []uint64{1}}},
		{"bad action", "fwd", Entry{Matches: []FieldMatch{{Value: 1}, {Value: 2}}, Action: "route", Params: []uint64{1}}},
		{"bad params", "fwd", Entry{Matches: []FieldMatch{{Value: 1}, {Value: 2}}, Action: "forward"}},
		{"param overflow", "fwd", Entry{Matches: []FieldMatch{{Value: 1}, {Value: 2}}, Action: "forward", Params: []uint64{1 << 10}}},
	}
	for _, c := range bad {
		if err := rt.InsertEntry(c.table, c.e); err == nil {
			t.Errorf("%s: insert succeeded", c.name)
		}
	}
}

func TestParserRejectsTruncated(t *testing.T) {
	rt := newTestRuntime(t)
	res, err := rt.Process(1, []byte{1, 2, 3})
	if err != nil || !res.Dropped {
		t.Fatalf("truncated packet result = %+v, %v", res, err)
	}
}

func TestP4InfoAndEntryCheck(t *testing.T) {
	info, err := BuildP4Info(testProgram())
	if err != nil {
		t.Fatal(err)
	}
	if len(info.Tables) != 5 || len(info.Actions) != 10 || len(info.Digests) != 1 {
		t.Fatalf("info shape: %d tables, %d actions, %d digests",
			len(info.Tables), len(info.Actions), len(info.Digests))
	}
	fwd := info.Table("fwd")
	if fwd == nil || len(fwd.MatchFields) != 2 || fwd.MatchFields[1].Bits != 48 {
		t.Fatalf("fwd info = %+v", fwd)
	}
	if fwd.MatchFields[0].Match != "exact" {
		t.Fatalf("match kind = %s", fwd.MatchFields[0].Match)
	}
	ok := Entry{Matches: []FieldMatch{{Value: 1}, {Value: 2}}, Action: "forward", Params: []uint64{1}}
	if err := CheckEntryAgainstInfo(info, "fwd", &ok); err != nil {
		t.Fatalf("CheckEntryAgainstInfo(ok) = %v", err)
	}
	badAction := ok
	badAction.Action = "route"
	if err := CheckEntryAgainstInfo(info, "fwd", &badAction); err == nil ||
		!strings.Contains(err.Error(), "does not allow") {
		t.Fatalf("bad action accepted: %v", err)
	}
	// IDs are deterministic.
	info2, _ := BuildP4Info(testProgram())
	if info2.Table("fwd").ID != fwd.ID {
		t.Fatalf("table IDs not stable")
	}
}

func TestBitReaderWriter(t *testing.T) {
	w := &bitWriter{}
	w.write(0b101, 3)
	w.write(1, 1)
	w.write(0xabc, 12)
	w.write(0xffff, 16)
	r := &bitReader{data: w.data}
	if v, ok := r.read(3); !ok || v != 0b101 {
		t.Fatalf("read 3 = %v", v)
	}
	if v, ok := r.read(1); !ok || v != 1 {
		t.Fatalf("read 1 = %v", v)
	}
	if v, ok := r.read(12); !ok || v != 0xabc {
		t.Fatalf("read 12 = %#x", v)
	}
	if v, ok := r.read(16); !ok || v != 0xffff {
		t.Fatalf("read 16 = %#x", v)
	}
	if _, ok := r.read(1); ok {
		t.Fatalf("read past end succeeded")
	}
}

// mustParseRuntime parses a P4 source and loads it.
func mustParseRuntime(t *testing.T, src string) *Runtime {
	t.Helper()
	prog, err := ParseProgram("t", src)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := NewRuntime(prog)
	if err != nil {
		t.Fatal(err)
	}
	return rt
}

// TestMetaAssignTruncates: P4 assignment truncates to the destination's
// width, so a table keyed on a 4-bit metadata field matches 0xf after
// meta.x = 0x1f.
func TestMetaAssignTruncates(t *testing.T) {
	rt := mustParseRuntime(t, `
		header h { bit<8> f; }
		metadata { bit<4> x; }
		parser { state start { extract(h); transition accept; } }
		control Ingress {
			action set_x() { meta.x = 0x1f; }
			action out(bit<16> port) { output(port); }
			table a { key = { h.f: exact; } actions = { set_x; } default_action = set_x; }
			table t { key = { meta.x: exact; } actions = { out; } }
			apply { a.apply(); t.apply(); }
		}
		deparser { emit(h); }
	`)
	if err := rt.InsertEntry("t", Entry{Matches: []FieldMatch{{Value: 0xf}}, Action: "out", Params: []uint64{2}}); err != nil {
		t.Fatal(err)
	}
	res, err := rt.Process(1, []byte{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 1 || res.Outputs[0].Port != 2 {
		t.Fatalf("meta.x = 0x1f did not match the 0xf entry: %+v", res)
	}
}

// TestMcastGrpReadsBack: standard_metadata.mcast_grp reads what
// multicast() wrote.
func TestMcastGrpReadsBack(t *testing.T) {
	rt := mustParseRuntime(t, `
		header h { bit<8> f; }
		parser { state start { extract(h); transition accept; } }
		control Ingress {
			action flood() { multicast(5); }
			action mark() { h.f = 0x42; }
			table m { key = { h.f: exact; } actions = { flood; } default_action = flood; }
			table t { key = { h.f: exact; } actions = { mark; } default_action = mark; }
			apply {
				m.apply();
				if (standard_metadata.mcast_grp == 5) { t.apply(); }
			}
		}
		deparser { emit(h); }
	`)
	rt.SetMulticastGroup(5, []uint16{2, 3})
	res, err := rt.Process(1, []byte{7})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Outputs) != 2 {
		t.Fatalf("outputs = %+v", res.Outputs)
	}
	for _, o := range res.Outputs {
		if len(o.Data) != 1 || o.Data[0] != 0x42 {
			t.Fatalf("port %d frame %x: the mcast_grp branch did not run", o.Port, o.Data)
		}
	}
}

// TestReadWriteBitsMatchBitStream: the byte-chunk field access the
// lowered pipeline uses agrees with the bit-at-a-time reference on
// random layouts, including 64-bit fields that straddle nine bytes.
func TestReadWriteBitsMatchBitStream(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for iter := 0; iter < 500; iter++ {
		var widths []int
		total := 0
		for total == 0 || total%8 != 0 {
			w := 1 + rng.Intn(64)
			if rng.Intn(3) == 0 {
				w = 64
			}
			widths = append(widths, w)
			total += w
		}
		vals := make([]uint64, len(widths))
		w := &bitWriter{}
		for i, n := range widths {
			vals[i] = rng.Uint64() & maskBits(n)
			w.write(vals[i], n)
		}
		got := make([]byte, total/8)
		bit := 0
		for i, n := range widths {
			end := bit + n
			last := (end - 1) / 8
			b, trail := w.data[bit/8:last+1], uint(8*(last+1)-end)
			if v := readBits(b, trail) & maskBits(n); v != vals[i] {
				t.Fatalf("layout %v field %d: readBits = %#x, want %#x", widths, i, v, vals[i])
			}
			writeBits(got[bit/8:last+1], vals[i], trail)
			bit = end
		}
		if string(got) != string(w.data) {
			t.Fatalf("layout %v: writeBits %x, bit stream %x", widths, got, w.data)
		}
	}
}
