package snvs

import (
	"encoding/json"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/ovsdb"
	"repro/internal/packet"
	"repro/internal/switchsim"
)

func TestPipelineValidates(t *testing.T) {
	if err := Pipeline().Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSchemaParses(t *testing.T) {
	schema, err := Schema()
	if err != nil {
		t.Fatalf("Schema: %v", err)
	}
	if len(schema.Tables) != 5 {
		t.Fatalf("tables = %d, want 5 (the paper's snvs has 5 OVSDB tables)", len(schema.Tables))
	}
}

// stack is the snvs deployment on one switch, snvs0.
type stack struct {
	*deploy.Stack
	t     *testing.T
	sw    *switchsim.Switch
	hosts map[string]*switchsim.Host
}

func startStack(t *testing.T) *stack {
	t.Helper()
	schema, err := Schema()
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.Start(deploy.Spec{Schema: schema, Rules: Rules,
		Classes: []deploy.Class{{Program: Pipeline(), IDs: []string{"snvs0"}}}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	return &stack{Stack: d, t: t, sw: d.Switch("snvs0"), hosts: make(map[string]*switchsim.Host)}
}

func (s *stack) host(name string, port uint16) *switchsim.Host {
	s.t.Helper()
	h, err := s.Fabric.AttachHost(name, "snvs0", port)
	if err != nil {
		s.t.Fatal(err)
	}
	s.hosts[name] = h
	return h
}

func (s *stack) transact(ops ...ovsdb.Operation) {
	s.t.Helper()
	if err := s.Transact(ops...); err != nil {
		s.t.Fatalf("transact: %v", err)
	}
}

func (s *stack) waitEntries(table string, want int) {
	s.t.Helper()
	if err := s.WaitEntries("snvs0", table, want); err != nil {
		s.t.Fatal(err)
	}
}

func (s *stack) waitMulticast(group uint16, want int) {
	s.t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if got := len(s.sw.Runtime().MulticastGroup(group)); got == want {
			return
		}
		if time.Now().After(deadline) {
			s.t.Fatalf("group %d has %d ports, want %d",
				group, len(s.sw.Runtime().MulticastGroup(group)), want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func (s *stack) addAccessPort(name string, num, vlan int64) {
	s.transact(ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": name, "port_num": num, "vlan_mode": "access", "tag": vlan,
	}))
}

func (s *stack) addTrunkPort(name string, num int64, trunks ...int64) {
	atoms := make([]ovsdb.Atom, len(trunks))
	for i, v := range trunks {
		atoms[i] = v
	}
	s.transact(ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": name, "port_num": num, "vlan_mode": "trunk",
		"trunks": ovsdb.NewSet(atoms...),
	}))
}

func frame(dst, src packet.MAC) []byte {
	e := packet.Ethernet{Dst: dst, Src: src, EtherType: 0x1234}
	return append(e.Append(nil), 0xbe, 0xef)
}

func taggedFrame(dst, src packet.MAC, vid uint16) []byte {
	e := packet.Ethernet{Dst: dst, Src: src, EtherType: packet.EtherTypeVLAN}
	v := packet.VLAN{VID: vid, EtherType: 0x1234}
	return append(v.Append(e.Append(nil)), 0xbe, 0xef)
}

func TestFullStackSNVS(t *testing.T) {
	s := startStack(t)
	h1 := s.host("h1", 1)
	h2 := s.host("h2", 2)
	h3 := s.host("h3", 3) // trunk side
	h4 := s.host("h4", 4) // mirror target

	// Configure: flooding on, two access ports in VLAN 10, a trunk port
	// carrying VLANs 10 and 20.
	s.transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	}))
	s.addAccessPort("p1", 1, 10)
	s.addAccessPort("p2", 2, 10)
	s.addTrunkPort("p3", 3, 10, 20)

	// The controller computes and installs: 2 in_vlan entries, 4 vlan_ok
	// entries, flood entries for VLANs 10 and 20, tag manipulation, and
	// multicast groups.
	s.waitEntries("in_vlan", 2)
	s.waitEntries("vlan_ok", 4)
	s.waitEntries("flood", 2)
	s.waitEntries("strip_tag", 2)
	s.waitEntries("add_tag", 1)
	s.waitMulticast(4096+10, 3)
	s.waitMulticast(4096+20, 1)

	// --- Flooding + MAC learning ---
	macH1 := packet.MAC(0x00000000aa01)
	macH2 := packet.MAC(0x00000000aa02)
	if err := h1.Send(frame(0xffffffffffff, macH1)); err != nil {
		t.Fatal(err)
	}
	// Flooded to the other VLAN-10 ports: h2 untagged, h3 tagged.
	if h2.ReceivedCount() != 1 {
		t.Fatalf("h2 received %d frames", h2.ReceivedCount())
	}
	got := h3.Received()
	if len(got) != 1 {
		t.Fatalf("h3 received %d frames", len(got))
	}
	var eth packet.Ethernet
	rest, err := eth.Decode(got[0])
	if err != nil || eth.EtherType != packet.EtherTypeVLAN {
		t.Fatalf("trunk frame not tagged: %+v, %v", eth, err)
	}
	var vl packet.VLAN
	if _, err := vl.Decode(rest); err != nil || vl.VID != 10 {
		t.Fatalf("trunk tag = %+v, %v", vl, err)
	}
	h2.Received()

	// The digest taught the controller h1's MAC: smac + dmac entries.
	s.waitEntries("dmac", 1)
	s.waitEntries("smac", 1)

	// Now h2 unicasts to h1: only port 1 receives.
	if err := h2.Send(frame(macH1, macH2)); err != nil {
		t.Fatal(err)
	}
	if h1.ReceivedCount() != 1 || h3.ReceivedCount() != 0 {
		t.Fatalf("unicast: h1=%d h3=%d", h1.ReceivedCount(), h3.ReceivedCount())
	}
	h1.Received()
	s.waitEntries("dmac", 2) // h2's MAC learned too

	// --- Trunk ingress: tagged frame on VLAN 20 floods only VLAN 20 ---
	if err := h3.Send(taggedFrame(0xffffffffffff, 0xbb03, 20)); err != nil {
		t.Fatal(err)
	}
	if h1.ReceivedCount() != 0 && h2.ReceivedCount() != 0 {
		t.Fatalf("VLAN 20 leaked into VLAN 10")
	}
	// Disallowed VLAN on trunk: dropped.
	dropsBefore := s.sw.Dropped()
	if err := h3.Send(taggedFrame(0xffffffffffff, 0xbb03, 30)); err != nil {
		t.Fatal(err)
	}
	if s.sw.Dropped() != dropsBefore+1 {
		t.Fatalf("VLAN 30 not dropped")
	}

	// --- Static MACs ---
	// dmac so far: h1 and h2 learned in VLAN 10, h3's source learned in
	// VLAN 20; the static MAC makes four.
	s.transact(ovsdb.OpInsert("StaticMac", map[string]ovsdb.Value{
		"mac": int64(0xcc04), "vlan": int64(10), "port": int64(2),
	}))
	s.waitEntries("dmac", 4)

	// --- Port mirroring ---
	s.transact(ovsdb.OpInsert("Mirror", map[string]ovsdb.Value{
		"src_port": int64(1), "dst_port": int64(4),
	}))
	s.waitEntries("mirror_ingress", 1)
	if err := h1.Send(frame(macH2, macH1)); err != nil {
		t.Fatal(err)
	}
	if h4.ReceivedCount() != 1 {
		t.Fatalf("mirror target received %d frames", h4.ReceivedCount())
	}
	if h2.ReceivedCount() != 1 {
		t.Fatalf("mirrored unicast lost: h2=%d", h2.ReceivedCount())
	}
	h2.Received()
	h4.Received()

	// --- ACL: denied source is dropped but still mirrored ---
	s.transact(ovsdb.OpInsert("Acl", map[string]ovsdb.Value{
		"src_mac": int64(macH1), "deny": true,
	}))
	s.waitEntries("acl_src", 1)
	if err := h1.Send(frame(macH2, macH1)); err != nil {
		t.Fatal(err)
	}
	if h2.ReceivedCount() != 0 {
		t.Fatalf("ACL-denied frame delivered")
	}
	if h4.ReceivedCount() != 1 {
		t.Fatalf("ACL-denied frame not mirrored")
	}

	// --- Incremental retraction: deleting a port unwinds its state ---
	s.transact(ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", "p2")))
	s.waitEntries("in_vlan", 1)
	s.waitEntries("vlan_ok", 3)
	s.waitMulticast(4096+10, 2)

	if err := s.Ctrl.Err(); err != nil {
		t.Fatalf("controller error: %v", err)
	}
}

func TestFullStackModifyPort(t *testing.T) {
	s := startStack(t)
	s.transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	}))
	s.addAccessPort("p1", 1, 10)
	s.waitEntries("in_vlan", 1)
	s.waitMulticast(4096+10, 1)

	// Moving the port to VLAN 20 retracts VLAN 10 state and installs
	// VLAN 20 state (a monitor "modify" update).
	s.transact(ovsdb.OpUpdate("Port",
		map[string]ovsdb.Value{"tag": int64(20)},
		ovsdb.Cond("name", "==", "p1")))
	s.waitMulticast(4096+20, 1)
	s.waitMulticast(4096+10, 0)

	entries, err := s.sw.Runtime().Entries("in_vlan")
	if err != nil || len(entries) != 1 {
		t.Fatalf("in_vlan = %v, %v", entries, err)
	}
	if entries[0].Params[0] != 20 {
		t.Fatalf("in_vlan vid = %d, want 20", entries[0].Params[0])
	}
}

func TestTrunkSetModification(t *testing.T) {
	// Changing a trunk port's VLAN set is a monitor "modify" on a
	// set-valued column: the auxiliary element relation must diff
	// correctly through the whole stack.
	s := startStack(t)
	s.transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	}))
	s.addTrunkPort("p3", 3, 10, 20)
	s.waitEntries("vlan_ok", 2)

	// Replace {10,20} with {20,30,40}.
	s.transact(ovsdb.OpUpdate("Port",
		map[string]ovsdb.Value{"trunks": ovsdb.NewSet(int64(20), int64(30), int64(40))},
		ovsdb.Cond("name", "==", "p3")))
	s.waitEntries("vlan_ok", 3)
	entries, err := s.sw.Runtime().Entries("vlan_ok")
	if err != nil {
		t.Fatal(err)
	}
	got := map[uint64]bool{}
	for _, e := range entries {
		got[e.Matches[1].Value] = true
	}
	for _, want := range []uint64{20, 30, 40} {
		if !got[want] {
			t.Errorf("vlan %d missing after trunk update: %v", want, got)
		}
	}
	if got[10] {
		t.Errorf("vlan 10 not retracted")
	}
	// Mutate: add one VLAN via the OVSDB mutate op.
	s.transact(ovsdb.OpMutate("Port",
		[][3]json.RawMessage{ovsdb.Mutation("trunks", "insert", ovsdb.NewSet(int64(50)))},
		ovsdb.Cond("name", "==", "p3")))
	s.waitEntries("vlan_ok", 4)
}

func TestControllerSurfacesDataPlaneDeath(t *testing.T) {
	// A data-plane connection gone for good (closed, not merely down: a
	// killed switch is redialed and resynced, see TestKillRestartEndToEnd)
	// must surface as a controller error on the next push, not hang or
	// panic.
	s := startStack(t)
	s.transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	}))
	s.addAccessPort("p1", 1, 10)
	s.waitEntries("in_vlan", 1)

	s.Device("snvs0").Close()
	// The next management-plane change forces a push onto the closed
	// connection.
	s.addAccessPort("p2", 2, 10)
	deadline := time.Now().Add(5 * time.Second)
	for s.Ctrl.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("controller never noticed the dead data plane")
		}
		time.Sleep(time.Millisecond)
	}
	// Stop after failure is safe and idempotent.
	s.Ctrl.Stop()
	s.Ctrl.Stop()
}

func TestControllerSurfacesManagementPlaneDeath(t *testing.T) {
	// Closing the OVSDB connection must likewise surface via Err().
	s := startStack(t)
	s.transact(ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
		"name": "snvs0", "flood_unknown": true,
	}))
	s.addAccessPort("p1", 1, 10)
	s.waitEntries("in_vlan", 1)

	s.MP.Close()
	deadline := time.Now().Add(5 * time.Second)
	for s.Ctrl.Err() == nil {
		if time.Now().After(deadline) {
			t.Fatal("controller never noticed the dead management plane")
		}
		time.Sleep(time.Millisecond)
	}
}
