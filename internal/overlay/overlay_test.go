package overlay

import (
	"testing"

	"repro/internal/deploy"
	"repro/internal/ovsdb"
	"repro/internal/packet"
	"repro/internal/switchsim"
)

func TestPipelinesValidate(t *testing.T) {
	if err := LeafPipeline().Validate(); err != nil {
		t.Fatalf("leaf: %v", err)
	}
	if err := SpinePipeline().Validate(); err != nil {
		t.Fatalf("spine: %v", err)
	}
}

type overlayTopo struct {
	*deploy.Stack
	t                   *testing.T
	leaf1, leaf2, spine *switchsim.Switch
	hosts               map[string]*switchsim.Host
}

func startOverlay(t *testing.T) *overlayTopo {
	t.Helper()
	schema, err := Schema()
	if err != nil {
		t.Fatal(err)
	}
	d, err := deploy.Start(deploy.Spec{Schema: schema, Rules: Rules, Classes: []deploy.Class{
		{Name: "Leaf", PerDevice: true, Program: LeafPipeline(), IDs: []string{"leaf1", "leaf2"}},
		{Name: "Spine", Program: SpinePipeline(), IDs: []string{"spine"}},
	}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(d.Close)
	tp := &overlayTopo{Stack: d, t: t, leaf1: d.Switch("leaf1"), leaf2: d.Switch("leaf2"),
		spine: d.Switch("spine"), hosts: make(map[string]*switchsim.Host)}
	for name, loc := range map[string]struct {
		sw   string
		port uint16
	}{
		"h1": {"leaf1", 1}, "h3": {"leaf1", 2}, "h5": {"leaf1", 3},
		"h2": {"leaf2", 1}, "h4": {"leaf2", 2},
	} {
		h, err := d.Fabric.AttachHost(name, loc.sw, loc.port)
		if err != nil {
			t.Fatal(err)
		}
		tp.hosts[name] = h
	}
	if err := d.Fabric.LinkSwitches("leaf1", UplinkPort, "spine", 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Fabric.LinkSwitches("leaf2", UplinkPort, "spine", 2); err != nil {
		t.Fatal(err)
	}
	return tp
}

func (tp *overlayTopo) wait(sw *switchsim.Switch, table string, want int) {
	tp.t.Helper()
	if err := tp.WaitEntries(sw.Name(), table, want); err != nil {
		tp.t.Fatal(err)
	}
}

func ofFrame(dst, src packet.MAC) []byte {
	e := packet.Ethernet{Dst: dst, Src: src, EtherType: 0x1234}
	return append(e.Append(nil), 0xfe, 0xed)
}

func TestOverlayTenantFabric(t *testing.T) {
	tp := startOverlay(t)
	// Two tenants; tenant 200 reuses tenant 100's h1 MAC on purpose.
	const (
		macA1 = packet.MAC(0xA1) // h1 (tenant 100) AND h3 (tenant 200)
		macA2 = packet.MAC(0xA2) // h2 (tenant 100)
		macB4 = packet.MAC(0xB4) // h4 (tenant 200)
		macA5 = packet.MAC(0xA5) // h5 (tenant 100)
	)
	if err := tp.Transact(
		ovsdb.OpInsert("Leaf", map[string]ovsdb.Value{"name": "leaf1", "id": int64(1), "spine_port": int64(1)}),
		ovsdb.OpInsert("Leaf", map[string]ovsdb.Value{"name": "leaf2", "id": int64(2), "spine_port": int64(2)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(macA1), "leaf": "leaf1", "port": int64(1), "tenant": int64(100)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(macA2), "leaf": "leaf2", "port": int64(1), "tenant": int64(100)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(macA1), "leaf": "leaf1", "port": int64(2), "tenant": int64(200)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(macB4), "leaf": "leaf2", "port": int64(2), "tenant": int64(200)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(macA5), "leaf": "leaf1", "port": int64(3), "tenant": int64(100)}),
	); err != nil {
		t.Fatal(err)
	}
	// leaf1 hosts: h1, h3, h5 -> 3 tenant/dmac_local entries; remote MACs
	// (h2, h4) -> 2 dmac_remote entries. Decap: own id.
	tp.wait(tp.leaf1, "tenant_tbl", 3)
	tp.wait(tp.leaf1, "dmac_local", 3)
	tp.wait(tp.leaf1, "dmac_remote", 2)
	tp.wait(tp.leaf1, "decap_tbl", 1)
	tp.wait(tp.leaf2, "dmac_remote", 3)
	tp.wait(tp.spine, "route", 2)

	h1, h2 := tp.hosts["h1"], tp.hosts["h2"]
	h3, h4, h5 := tp.hosts["h3"], tp.hosts["h4"], tp.hosts["h5"]

	// --- Cross-leaf delivery within tenant 100, via the tunnel. ---
	if err := h1.Send(ofFrame(macA2, macA1)); err != nil {
		t.Fatal(err)
	}
	got := h2.Received()
	if len(got) != 1 {
		t.Fatalf("h2 received %d frames", len(got))
	}
	// The delivered frame is the original (decapsulated).
	var eth packet.Ethernet
	rest, err := eth.Decode(got[0])
	if err != nil || eth.EtherType != 0x1234 || len(rest) != 2 {
		t.Fatalf("delivered frame not restored: %+v, %v", eth, err)
	}
	// The spine routed exactly one tunnel frame.
	if c, _ := tp.spine.Runtime().Counters("route"); c.Hits != 1 {
		t.Fatalf("spine route hits = %d", c.Hits)
	}

	// --- Same MAC, different tenants: h4 (tenant 200) reaches h3, not h1.
	if err := h4.Send(ofFrame(macA1, macB4)); err != nil {
		t.Fatal(err)
	}
	if h3.ReceivedCount() != 1 || h1.ReceivedCount() != 0 {
		t.Fatalf("tenant isolation by MAC failed: h3=%d h1=%d",
			h3.ReceivedCount(), h1.ReceivedCount())
	}
	h3.Received()

	// --- Cross-tenant traffic is dropped. ---
	drops := tp.leaf1.Dropped()
	if err := h1.Send(ofFrame(macB4, macA1)); err != nil {
		t.Fatal(err)
	}
	if tp.leaf1.Dropped() != drops+1 {
		t.Fatalf("cross-tenant frame not dropped")
	}
	if h4.ReceivedCount() != 0 {
		t.Fatalf("cross-tenant frame delivered")
	}

	// --- Same-leaf delivery does not touch the fabric. ---
	spineHits, _ := tp.spine.Runtime().Counters("route")
	if err := h1.Send(ofFrame(macA5, macA1)); err != nil {
		t.Fatal(err)
	}
	if h5.ReceivedCount() != 1 {
		t.Fatalf("local delivery failed")
	}
	if after, _ := tp.spine.Runtime().Counters("route"); after.Hits != spineHits.Hits {
		t.Fatalf("local traffic crossed the spine")
	}

	// --- Moving a host between leaves re-plumbs the overlay. ---
	if err := tp.Transact(
		ovsdb.OpUpdate("Host",
			map[string]ovsdb.Value{"leaf": "leaf1", "port": int64(4)},
			ovsdb.Cond("mac", "==", int64(macA2)),
			ovsdb.Cond("tenant", "==", int64(100)))); err != nil {
		t.Fatal(err)
	}
	tp.wait(tp.leaf1, "dmac_local", 4)
	tp.wait(tp.leaf1, "dmac_remote", 1)
	if err := tp.Ctrl.Err(); err != nil {
		t.Fatal(err)
	}
}
