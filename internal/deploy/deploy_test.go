package deploy_test

import (
	"fmt"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/deploy"
	"repro/internal/ovsdb"
	"repro/internal/packet"
	"repro/internal/snvs"
)

func snvsSpec(t *testing.T) deploy.Spec {
	t.Helper()
	schema, err := snvs.Schema()
	if err != nil {
		t.Fatal(err)
	}
	return deploy.Spec{Schema: schema, Rules: snvs.Rules, Classes: []deploy.Class{
		{Program: snvs.Pipeline(), IDs: []string{"snvs0"}},
	}}
}

func port(i int) ovsdb.Operation {
	return ovsdb.OpInsert("Port", map[string]ovsdb.Value{
		"name": fmt.Sprintf("p%d", i), "port_num": int64(i), "vlan_mode": "access", "tag": int64(10),
	})
}

// TestRestartAndQuiesce boots the stack, commits ports, restarts the
// switch (which comes back empty) and the database server, and checks
// that the controller heals the switch and that Close leaves no
// goroutine behind.
func TestRestartAndQuiesce(t *testing.T) {
	base := runtime.NumGoroutine()
	s, err := deploy.Start(snvsSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Transact(
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "snvs0", "flood_unknown": true}),
		port(1), port(2), port(3),
	); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 3); err != nil {
		t.Fatal(err)
	}

	old := s.Switch("snvs0")
	if err := s.Restart("snvs0"); err != nil {
		t.Fatal(err)
	}
	if s.Switch("snvs0") == old {
		t.Fatal("restart kept the old switch")
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 3); err != nil {
		t.Fatal(err)
	}

	s.Kill(deploy.DB)
	for i, r := range s.DB.Transact([]ovsdb.Operation{port(4)}) {
		if r.Error != "" {
			t.Fatalf("op %d: %s", i, r.Error)
		}
	}
	if err := s.Restart(deploy.DB); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 4); err != nil {
		t.Fatal(err)
	}
	// The management client is usable again once it has redialed.
	deadline := time.Now().Add(10 * time.Second)
	for s.Transact(port(5)) != nil {
		if time.Now().After(deadline) {
			t.Fatal("no commit through the management client after the restart")
		}
		time.Sleep(time.Millisecond)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 5); err != nil {
		t.Fatal(err)
	}

	s.Close()
	deadline = time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("%d goroutines after Close, %d before Start:\n%s",
				runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(time.Millisecond)
	}
}

// TestControllerTakeover: a controller started against switches that an
// earlier controller programmed takes them over as it finds them. A
// port deleted while no controller ran loses its entry, and the entries
// still derived are not inserted a second time (which the switch would
// refuse, latching the controller).
func TestControllerTakeover(t *testing.T) {
	s, err := deploy.Start(snvsSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Transact(
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "snvs0", "flood_unknown": true}),
		port(1), port(2), port(3),
	); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 3); err != nil {
		t.Fatal(err)
	}
	s.Ctrl.Stop()
	for i, r := range s.DB.Transact([]ovsdb.Operation{ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", "p2"))}) {
		if r.Error != "" {
			t.Fatalf("op %d: %s", i, r.Error)
		}
	}
	if err := s.RestartController(); err != nil {
		t.Fatal(err)
	}
	if err := s.Ctrl.Barrier(); err != nil {
		t.Fatalf("new controller: %v", err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 2); err != nil {
		t.Fatal(err)
	}
	// The new controller keeps serving commits.
	if err := s.Transact(port(4)); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 3); err != nil {
		t.Fatal(err)
	}
}

// dmacPorts lists the ports of switch id's dmac entries.
func dmacPorts(t *testing.T, s *deploy.Stack, id string) []uint64 {
	t.Helper()
	entries, err := s.Switch(id).Runtime().Entries("dmac")
	if err != nil {
		t.Fatal(err)
	}
	var ports []uint64
	for _, e := range entries {
		ports = append(ports, e.Params...)
	}
	return ports
}

// waitDmacPorts polls until switch id's dmac entries point at want,
// failing early if the controller stops.
func waitDmacPorts(t *testing.T, s *deploy.Stack, id string, want ...uint64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !slices.Equal(dmacPorts(t, s, id), want) {
		if err := s.Ctrl.Err(); err != nil {
			t.Fatal(err)
		}
		if time.Now().After(deadline) {
			t.Fatalf("dmac ports %v, want %v", dmacPorts(t, s, id), want)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestStaticMacOverridesLearnt: a static MAC takes precedence over the
// same MAC learnt on another port of its VLAN. The StaticMac row moves
// the dmac entry to its port instead of a second entry for the key,
// which the switch would refuse (latching the controller), and deleting
// the row hands the entry back to the learnt port.
func TestStaticMacOverridesLearnt(t *testing.T) {
	s, err := deploy.Start(snvsSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Transact(
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "snvs0", "flood_unknown": true}),
		port(1), port(2),
	); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 2); err != nil {
		t.Fatal(err)
	}
	const mac = 0x02000000000a
	eth := packet.Ethernet{Dst: 0xffffffffffff, Src: mac, EtherType: 0x1234}
	if err := s.Switch("snvs0").Inject(1, eth.Append(nil)); err != nil {
		t.Fatal(err)
	}
	waitDmacPorts(t, s, "snvs0", 1)

	if err := s.Transact(ovsdb.OpInsert("StaticMac", map[string]ovsdb.Value{
		"mac": int64(mac), "vlan": int64(10), "port": int64(2),
	})); err != nil {
		t.Fatal(err)
	}
	waitDmacPorts(t, s, "snvs0", 2)

	if err := s.Transact(ovsdb.OpDelete("StaticMac", ovsdb.Cond("mac", "==", int64(mac)))); err != nil {
		t.Fatal(err)
	}
	waitDmacPorts(t, s, "snvs0", 1)
	if err := s.Ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
}

// TestControllerRestartForgetsLearnt: learnt MACs live only in the
// controller's engine, fed by the switch's digests. A restarted controller
// starts with none, so its takeover deletes every learnt smac and dmac
// entry and leaves the switch level with it, frames to the forgotten
// hosts flood again, and the next frame from a host learns it anew.
func TestControllerRestartForgetsLearnt(t *testing.T) {
	s, err := deploy.Start(snvsSpec(t))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Transact(
		ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "snvs0", "flood_unknown": true}),
		port(1), port(2), port(3),
	); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "in_vlan", 3); err != nil {
		t.Fatal(err)
	}
	mac := func(p uint16) packet.MAC { return packet.MAC(0x020000000000 + uint64(p)) }
	inject := func(from uint16, dst packet.MAC) {
		t.Helper()
		eth := packet.Ethernet{Dst: dst, Src: mac(from), EtherType: 0x1234}
		if err := s.Switch("snvs0").Inject(from, eth.Append(nil)); err != nil {
			t.Fatal(err)
		}
	}
	for p := uint16(1); p <= 3; p++ {
		inject(p, 0xffffffffffff)
	}
	if err := s.WaitEntries("snvs0", "smac", 3); err != nil {
		t.Fatal(err)
	}
	waitDmacPorts(t, s, "snvs0", 1, 2, 3)

	if err := s.RestartController(); err != nil {
		t.Fatal(err)
	}
	if err := s.WaitEntries("snvs0", "smac", 0); err != nil {
		t.Fatal(err)
	}
	waitDmacPorts(t, s, "snvs0")
	// Drift 0: the new engine derives no learnt entry either.
	for _, rel := range []string{"Smac", "Dmac"} {
		recs, err := s.Ctrl.Contents(rel)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != 0 {
			t.Fatalf("restarted controller derives %s %v, want none", rel, recs)
		}
	}

	// Host 1 sends to host 2, which the switch knew before the restart:
	// with flood_unknown the frame floods to the other ports of the VLAN,
	// and host 1 is learnt again.
	var mu sync.Mutex
	var out []uint16
	s.Switch("snvs0").SetOutputHandler(func(port uint16, _ []byte) {
		mu.Lock()
		defer mu.Unlock()
		out = append(out, port)
	})
	inject(1, mac(2))
	mu.Lock()
	slices.Sort(out)
	flooded := slices.Clone(out)
	mu.Unlock()
	if !slices.Equal(flooded, []uint16{2, 3}) {
		t.Fatalf("frame to a forgotten host went out on %v, want flooded to [2 3]", flooded)
	}
	if err := s.WaitEntries("snvs0", "smac", 1); err != nil {
		t.Fatal(err)
	}
	waitDmacPorts(t, s, "snvs0", 1)
}
