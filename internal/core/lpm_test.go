package core_test

import (
	"testing"

	"repro/internal/deploy"
	"repro/internal/ovsdb"
	"repro/internal/p4"
	"repro/internal/packet"
)

// The L3 router scenario drives the LPM and ternary codegen paths through
// the full stack: routes with prefix lengths and ACLs with masks and
// priorities flow from OVSDB rows to installed entries to packet
// behaviour.

const routerSchema = `{
  "name": "router",
  "tables": {
    "Route": {
      "columns": {
        "prefix": {"type": "integer"},
        "plen": {"type": "integer"},
        "port": {"type": "integer"}
      },
      "isRoot": true
    },
    "AclRule": {
      "columns": {
        "src": {"type": "integer"},
        "mask": {"type": "integer"},
        "prio": {"type": "integer"}
      },
      "isRoot": true
    }
  }
}`

const routerP4 = `
header ethernet { bit<48> dst; bit<48> src; bit<16> etype; }
header ipv4 {
    bit<4> version; bit<4> ihl; bit<8> tos; bit<16> len;
    bit<16> id; bit<3> flags; bit<13> frag; bit<8> ttl;
    bit<8> proto; bit<16> csum; bit<32> src; bit<32> dst;
}
parser {
    state start {
        extract(ethernet);
        transition select(ethernet.etype) {
            0x0800: parse_ip;
            default: reject;
        }
    }
    state parse_ip { extract(ipv4); transition accept; }
}
control Ingress {
    action route(bit<16> port) { output(port); }
    action deny() { drop(); }
    action nop() { }
    table routes {
        key = { ipv4.dst: lpm; }
        actions = { route; }
    }
    table acl {
        key = { ipv4.src: ternary; }
        actions = { deny; }
        default_action = nop;
    }
    apply {
        routes.apply();
        acl.apply();
    }
}
deparser { emit(ethernet); emit(ipv4); }
`

// Generated input relations order columns alphabetically:
// Route(_uuid, plen, port, prefix) and AclRule(_uuid, mask, prio, src).
const routerRules = `
Routes(p as bit<32>, plen, port as bit<16>) :- Route(_, plen, port, p).
Acl(s as bit<32>, m as bit<32>, prio) :- AclRule(_, m, prio, s).
`

func startRouterStack(t *testing.T) *deploy.Stack {
	t.Helper()
	schema, err := ovsdb.ParseSchema([]byte(routerSchema))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := p4.ParseProgram("router", routerP4)
	if err != nil {
		t.Fatal(err)
	}
	s, err := deploy.Start(deploy.Spec{Schema: schema, Rules: routerRules,
		Classes: []deploy.Class{{Program: prog, IDs: []string{"r0"}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func ipFrame(src, dst packet.IPv4) []byte {
	e := packet.Ethernet{Dst: 0x1, Src: 0x2, EtherType: packet.EtherTypeIPv4}
	ip := packet.IP{TTL: 64, Protocol: packet.ProtoUDP, Src: src, Dst: dst}
	return append(e.Append(nil), ip.Append(nil, 0)...)
}

func TestControllerLPMAndTernary(t *testing.T) {
	s := startRouterStack(t)
	sw := s.Switch("r0")
	h1, err := s.Fabric.AttachHost("h1", "r0", 1)
	if err != nil {
		t.Fatal(err)
	}
	h2, _ := s.Fabric.AttachHost("h2", "r0", 2)
	h3, _ := s.Fabric.AttachHost("h3", "r0", 3)

	net10, _ := packet.ParseIPv4("10.0.0.0")
	net10_1, _ := packet.ParseIPv4("10.1.0.0")
	blockNet, _ := packet.ParseIPv4("192.168.0.0")
	if err := s.Transact(
		ovsdb.OpInsert("Route", map[string]ovsdb.Value{
			"prefix": int64(net10), "plen": int64(8), "port": int64(2),
		}),
		ovsdb.OpInsert("Route", map[string]ovsdb.Value{
			"prefix": int64(net10_1), "plen": int64(16), "port": int64(3),
		}),
		ovsdb.OpInsert("AclRule", map[string]ovsdb.Value{
			"src": int64(blockNet), "mask": int64(0xffff0000), "prio": int64(10),
		}),
	); err != nil {
		t.Fatal(err)
	}
	waitCount := func(table string, want int) {
		t.Helper()
		if err := s.WaitEntries("r0", table, want); err != nil {
			t.Fatal(err)
		}
	}
	waitCount("routes", 2)
	waitCount("acl", 1)

	// Verify the installed LPM entry carries the prefix length and the
	// ternary entry its mask and priority.
	routes, _ := sw.Runtime().Entries("routes")
	plens := map[int]bool{}
	for _, e := range routes {
		plens[e.Matches[0].PrefixLen] = true
	}
	if !plens[8] || !plens[16] {
		t.Fatalf("prefix lengths = %v", routes)
	}
	acls, _ := sw.Runtime().Entries("acl")
	if acls[0].Matches[0].Mask != 0xffff0000 || acls[0].Priority != 10 {
		t.Fatalf("acl entry = %+v", acls[0])
	}

	// Longest prefix wins: 10.1.x.x → port 3, other 10.x → port 2.
	src, _ := packet.ParseIPv4("172.16.0.1")
	dst1, _ := packet.ParseIPv4("10.1.2.3")
	dst2, _ := packet.ParseIPv4("10.9.9.9")
	if err := h1.Send(ipFrame(src, dst1)); err != nil {
		t.Fatal(err)
	}
	if h3.ReceivedCount() != 1 || h2.ReceivedCount() != 0 {
		t.Fatalf("LPM /16: h2=%d h3=%d", h2.ReceivedCount(), h3.ReceivedCount())
	}
	h3.Received()
	if err := h1.Send(ipFrame(src, dst2)); err != nil {
		t.Fatal(err)
	}
	if h2.ReceivedCount() != 1 {
		t.Fatalf("LPM /8 fallback: h2=%d", h2.ReceivedCount())
	}
	h2.Received()

	// The ACL drops sources in 192.168/16 even though a route matches.
	blocked, _ := packet.ParseIPv4("192.168.5.5")
	if err := h1.Send(ipFrame(blocked, dst2)); err != nil {
		t.Fatal(err)
	}
	if h2.ReceivedCount() != 0 {
		t.Fatalf("ACL did not drop: h2=%d", h2.ReceivedCount())
	}

	// Withdrawing the /16 shifts traffic to the /8.
	if err := s.Transact(
		ovsdb.OpDelete("Route", ovsdb.Cond("plen", "==", int64(16)))); err != nil {
		t.Fatal(err)
	}
	waitCount("routes", 1)
	if err := h1.Send(ipFrame(src, dst1)); err != nil {
		t.Fatal(err)
	}
	if h2.ReceivedCount() != 1 || h3.ReceivedCount() != 0 {
		t.Fatalf("after withdraw: h2=%d h3=%d", h2.ReceivedCount(), h3.ReceivedCount())
	}
}
