// snvs: the paper's §4.3 example system, exercised feature by feature.
//
// A three-port switch (two access ports in VLAN 10, one trunk carrying
// VLANs 10 and 20) is configured entirely through OVSDB transactions. The
// example then demonstrates every snvs feature: VLAN admission and
// tagging, flooding, MAC learning through the digest feedback loop,
// static MACs, ingress mirroring, ACLs, and incremental retraction when
// configuration is removed.
//
//	go run ./examples/snvs
package main

import (
	"fmt"
	"log"

	"repro/internal/deploy"
	"repro/internal/ovsdb"
	"repro/internal/packet"
	"repro/internal/snvs"
	"repro/internal/switchsim"
)

type demo struct {
	*deploy.Stack
	sw    *switchsim.Switch
	hosts map[string]*switchsim.Host
}

func main() {
	d := start()
	defer d.Close()

	fmt.Println("=== configuration through the management plane ===")
	d.transact(
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{
			"name": "snvs0", "flood_unknown": true,
		}),
		ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p1", "port_num": int64(1), "vlan_mode": "access", "tag": int64(10),
		}),
		ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p2", "port_num": int64(2), "vlan_mode": "access", "tag": int64(10),
		}),
		ovsdb.OpInsert("Port", map[string]ovsdb.Value{
			"name": "p3", "port_num": int64(3), "vlan_mode": "trunk",
			"trunks": ovsdb.NewSet(int64(10), int64(20)),
		}),
	)
	d.wait("vlan_ok", 4)
	d.report("after port configuration")

	fmt.Println("\n=== flooding and the learning feedback loop ===")
	h1, h2, h3 := d.hosts["h1"], d.hosts["h2"], d.hosts["h3"]
	macH1, macH2 := packet.MAC(0xaa01), packet.MAC(0xaa02)
	must(h1.Send(untagged(0xffffffffffff, macH1)))
	fmt.Printf("h1 broadcast: h2 got %d (untagged), h3 got %d (tagged for the trunk)\n",
		h2.ReceivedCount(), h3.ReceivedCount())
	showTag(h3.Received()[0])
	h2.Received()
	d.wait("dmac", 1)
	must(h2.Send(untagged(macH1, macH2)))
	fmt.Printf("h2 unicast to learned MAC: h1 got %d, h3 got %d (no flood)\n",
		h1.ReceivedCount(), h3.ReceivedCount())
	h1.Received()

	fmt.Println("\n=== VLAN isolation on the trunk ===")
	must(h3.Send(tagged(0xffffffffffff, 0xbb03, 20)))
	fmt.Printf("VLAN 20 broadcast from trunk: h1 got %d, h2 got %d (isolated)\n",
		h1.ReceivedCount(), h2.ReceivedCount())
	before := d.sw.Dropped()
	must(h3.Send(tagged(0xffffffffffff, 0xbb03, 30)))
	fmt.Printf("VLAN 30 (not allowed on trunk): dropped=%v\n", d.sw.Dropped() > before)

	fmt.Println("\n=== port mirroring ===")
	d.transact(ovsdb.OpInsert("Mirror", map[string]ovsdb.Value{
		"src_port": int64(1), "dst_port": int64(4),
	}))
	d.wait("mirror_ingress", 1)
	h4 := d.hosts["h4"]
	must(h1.Send(untagged(macH2, macH1)))
	fmt.Printf("h1 -> h2 with mirror on port 1: h2 got %d, mirror target got %d\n",
		h2.ReceivedCount(), h4.ReceivedCount())
	h2.Received()
	h4.Received()

	fmt.Println("\n=== ACL: denied source still mirrored ===")
	d.transact(ovsdb.OpInsert("Acl", map[string]ovsdb.Value{
		"src_mac": int64(macH1), "deny": true,
	}))
	d.wait("acl_src", 1)
	must(h1.Send(untagged(macH2, macH1)))
	fmt.Printf("denied h1 -> h2: h2 got %d, mirror still got %d\n",
		h2.ReceivedCount(), h4.ReceivedCount())
	h4.Received()

	fmt.Println("\n=== incremental retraction ===")
	d.transact(ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", "p2")))
	d.wait("vlan_ok", 3)
	d.report("after removing p2 (only its entries were retracted)")
}

func start() *demo {
	schema, err := snvs.Schema()
	must(err)
	s, err := deploy.Start(deploy.Spec{Schema: schema, Rules: snvs.Rules,
		Classes: []deploy.Class{{Program: snvs.Pipeline(), IDs: []string{"snvs0"}}}})
	must(err)
	d := &demo{Stack: s, sw: s.Switch("snvs0"), hosts: make(map[string]*switchsim.Host)}
	for i, name := range []string{"h1", "h2", "h3", "h4"} {
		h, err := s.Fabric.AttachHost(name, "snvs0", uint16(i+1))
		must(err)
		d.hosts[name] = h
	}
	return d
}

func (d *demo) transact(ops ...ovsdb.Operation) { must(d.Transact(ops...)) }

func (d *demo) wait(table string, want int) { must(d.WaitEntries("snvs0", table, want)) }

func (d *demo) report(when string) {
	fmt.Printf("data-plane tables %s:\n", when)
	for _, t := range []string{"in_vlan", "vlan_ok", "flood", "dmac", "mirror_ingress", "acl_src"} {
		fmt.Printf("  %-15s %d entries\n", t, d.sw.Runtime().EntryCount(t))
	}
}

func untagged(dst, src packet.MAC) []byte {
	e := packet.Ethernet{Dst: dst, Src: src, EtherType: 0x1234}
	return append(e.Append(nil), 0xbe, 0xef)
}

func tagged(dst, src packet.MAC, vid uint16) []byte {
	e := packet.Ethernet{Dst: dst, Src: src, EtherType: packet.EtherTypeVLAN}
	v := packet.VLAN{VID: vid, EtherType: 0x1234}
	return append(v.Append(e.Append(nil)), 0xbe, 0xef)
}

func showTag(frame []byte) {
	var e packet.Ethernet
	rest, err := e.Decode(frame)
	must(err)
	if e.EtherType == packet.EtherTypeVLAN {
		var v packet.VLAN
		_, err := v.Decode(rest)
		must(err)
		fmt.Printf("  trunk frame carries 802.1Q tag: vid=%d\n", v.VID)
	}
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
