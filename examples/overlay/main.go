// Tunnel overlay: tenant networks over a shared leaf-spine fabric.
//
// The paper situates Nerpa in network virtualization, where OVN-style
// systems build tenant overlays with tunnels. This example runs the
// overlay program from internal/overlay: traffic entering a leaf is
// classified by tenant, encapsulated in a tunnel header carrying the
// destination leaf and the tenant VNI, routed by a spine that only ever
// sees tunnel headers, and decapsulated at the destination leaf. Two
// tenants deliberately share a MAC address to show the isolation.
//
//	go run ./examples/overlay
package main

import (
	"fmt"
	"log"

	"repro/internal/deploy"
	"repro/internal/overlay"
	"repro/internal/ovsdb"
	"repro/internal/packet"
)

func main() {
	schema, err := overlay.Schema()
	check(err)
	s, err := deploy.Start(deploy.Spec{Schema: schema, Rules: overlay.Rules, Classes: []deploy.Class{
		{Name: "Leaf", PerDevice: true, Program: overlay.LeafPipeline(), IDs: []string{"leaf1", "leaf2"}},
		{Name: "Spine", Program: overlay.SpinePipeline(), IDs: []string{"spine"}},
	}})
	check(err)
	defer s.Close()
	leaf1, spine := s.Switch("leaf1"), s.Switch("spine")

	// tenant 100: red; tenant 200: blue. Both have a host with MAC 0xA1.
	fabric := s.Fabric
	red1, err := fabric.AttachHost("red1", "leaf1", 1)
	check(err)
	red2, err := fabric.AttachHost("red2", "leaf2", 1)
	check(err)
	blue1, err := fabric.AttachHost("blue1", "leaf1", 2)
	check(err)
	blue2, err := fabric.AttachHost("blue2", "leaf2", 2)
	check(err)
	check(fabric.LinkSwitches("leaf1", overlay.UplinkPort, "spine", 1))
	check(fabric.LinkSwitches("leaf2", overlay.UplinkPort, "spine", 2))

	check(s.Transact(
		ovsdb.OpInsert("Leaf", map[string]ovsdb.Value{"name": "leaf1", "id": int64(1), "spine_port": int64(1)}),
		ovsdb.OpInsert("Leaf", map[string]ovsdb.Value{"name": "leaf2", "id": int64(2), "spine_port": int64(2)}),
		// red tenant (VNI 100): MAC 0xA1 on leaf1, 0xA2 on leaf2.
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(0xA1), "leaf": "leaf1", "port": int64(1), "tenant": int64(100)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(0xA2), "leaf": "leaf2", "port": int64(1), "tenant": int64(100)}),
		// blue tenant (VNI 200): ALSO MAC 0xA1 (on leaf2!) plus 0xB1.
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(0xB1), "leaf": "leaf1", "port": int64(2), "tenant": int64(200)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(0xA1), "leaf": "leaf2", "port": int64(2), "tenant": int64(200)}),
	))
	check(s.WaitEntries("leaf1", "dmac_remote", 2))
	check(s.WaitEntries("spine", "route", 2))
	fmt.Println("overlay plumbed: tenant tables, encap/decap, spine routes")

	frame := func(dst, src packet.MAC) []byte {
		e := packet.Ethernet{Dst: dst, Src: src, EtherType: 0x1234}
		return append(e.Append(nil), 'h', 'i')
	}

	check(red1.Send(frame(0xA2, 0xA1)))
	fmt.Printf("red1 -> red2 across the fabric: red2 got %d (tunneled via spine)\n",
		red2.ReceivedCount())
	c, _ := spine.Runtime().Counters("route")
	fmt.Printf("spine saw %d tunnel frame(s); it never inspects tenant MACs\n", c.Hits)

	check(blue1.Send(frame(0xA1, 0xB1)))
	fmt.Printf("blue1 -> MAC 0xA1: blue2 got %d, red1 got %d (same MAC, different tenant)\n",
		blue2.ReceivedCount(), red1.ReceivedCount())

	before := leaf1.Dropped()
	check(red1.Send(frame(0xB1, 0xA1)))
	fmt.Printf("red1 -> blue MAC: dropped=%v (tenants cannot reach each other)\n",
		leaf1.Dropped() > before)
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
