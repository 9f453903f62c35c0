// Spine-leaf: one controller, two device classes, two P4 programs.
//
// The paper's §4.1 notes that the framework "can generally support
// multiple classes of devices (e.g., spine, leaf switches), each running
// a different P4 program" with management relations reflecting the
// classes. This example builds exactly that: two leaf switches and a
// spine (each leaf's relations are per-device, so the same rules compute
// *different* entries for each leaf), configured entirely through two
// OVSDB tables.
//
//	go run ./examples/spineleaf
package main

import (
	"fmt"
	"log"

	"repro/internal/deploy"
	"repro/internal/ovsdb"
	"repro/internal/packet"
	"repro/internal/spineleaf"
	"repro/internal/switchsim"
)

func main() {
	// --- One management database, two leaves + one spine wired into a
	// fabric, and one controller over two classes. ---
	schema, err := spineleaf.Schema()
	check(err)
	s, err := deploy.Start(deploy.Spec{Schema: schema, Rules: spineleaf.Rules, Classes: []deploy.Class{
		{Name: "Leaf", PerDevice: true, Program: spineleaf.LeafPipeline(), IDs: []string{"leaf1", "leaf2"}},
		{Name: "Spine", Program: spineleaf.SpinePipeline(), IDs: []string{"spine"}},
	}})
	check(err)
	defer s.Close()
	leaf1, leaf2, spine := s.Switch("leaf1"), s.Switch("leaf2"), s.Switch("spine")
	h1, err := s.Fabric.AttachHost("h1", "leaf1", 1)
	check(err)
	h2, err := s.Fabric.AttachHost("h2", "leaf2", 1)
	check(err)
	check(s.Fabric.LinkSwitches("leaf1", spineleaf.UplinkPort, "spine", 1))
	check(s.Fabric.LinkSwitches("leaf2", spineleaf.UplinkPort, "spine", 2))
	fmt.Println("controller up: leaf and spine programs type-checked against shared rules")

	// --- Configure the fabric through the database. ---
	check(s.Transact(
		ovsdb.OpInsert("Leaf", map[string]ovsdb.Value{"name": "leaf1", "spine_port": int64(1)}),
		ovsdb.OpInsert("Leaf", map[string]ovsdb.Value{"name": "leaf2", "spine_port": int64(2)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(0xaa01), "leaf": "leaf1", "port": int64(1)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(0xaa02), "leaf": "leaf2", "port": int64(1)}),
	))
	check(s.WaitEntries("leaf1", "dmac", 2))
	check(s.WaitEntries("leaf2", "dmac", 2))
	check(s.WaitEntries("spine", "fwd", 2))
	fmt.Println("configured: 2 hosts, 2 leaves")
	show := func(sw *switchsim.Switch, table string) {
		entries, err := sw.Runtime().Entries(table)
		check(err)
		for _, e := range entries {
			fmt.Printf("  %-5s %s[dst=%04x] -> %s(port %d)\n",
				sw.Name(), table, e.Matches[0].Value, e.Action, e.Params[0])
		}
	}
	fmt.Println("per-device entries (same rules, different switches):")
	show(leaf1, "dmac")
	show(leaf2, "dmac")
	show(spine, "fwd")

	// --- Cross-fabric unicast. ---
	e := packet.Ethernet{Dst: 0xaa02, Src: 0xaa01, EtherType: 0x1234}
	check(h1.Send(append(e.Append(nil), 'h', 'i')))
	fmt.Printf("\nh1 -> h2 across leaf1/spine/leaf2: h2 received %d frame(s)\n",
		h2.ReceivedCount())
}

func check(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
