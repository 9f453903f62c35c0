package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/ovsdb"
	"repro/internal/p4"
	"repro/internal/snvs"
	"repro/internal/spineleaf"
)

func leafInfo(t *testing.T) *p4.P4Info {
	t.Helper()
	info, err := p4.BuildP4Info(snvs.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	return info
}

func TestNewWithClassesValidation(t *testing.T) {
	mp, dp := newFakes(t)
	dp2 := &fakeDP{info: dp.info}

	cases := map[string]struct {
		classes []DeviceClass
		want    string
	}{
		"no classes": {nil, "no device classes"},
		"empty class": {
			[]DeviceClass{{Name: "Leaf"}}, "has no devices"},
		"duplicate class": {
			[]DeviceClass{
				{Name: "A", Devices: []Device{{ID: "d1", DP: dp}}},
				{Name: "A", Devices: []Device{{ID: "d2", DP: dp2}}},
			}, "duplicate device class"},
		"duplicate device id": {
			[]DeviceClass{{Name: "A", Devices: []Device{
				{ID: "d1", DP: dp}, {ID: "d1", DP: dp2},
			}}}, "duplicate device id"},
		// Resync addresses a device by ID alone, so one ID in two classes
		// would reconcile the device against the wrong class's tables.
		"device id in two classes": {
			[]DeviceClass{
				{Name: "A", Devices: []Device{{ID: "d1", DP: dp}}},
				{Name: "B", Devices: []Device{{ID: "d1", DP: dp2}}},
			}, `device id "d1" is in both class "A" and class "B"`},
	}
	for name, c := range cases {
		t.Run(name, func(t *testing.T) {
			_, err := NewWithClasses(Config{Rules: snvs.Rules, Database: "snvs"}, mp, c.classes)
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error = %v, want %q", err, c.want)
			}
		})
	}
}

func TestNewWithClassesProgramMismatch(t *testing.T) {
	mp, dp := newFakes(t)
	other := *dp.info
	other.Program = "different"
	dp2 := &fakeDP{info: &other}
	_, err := NewWithClasses(Config{Rules: snvs.Rules, Database: "snvs"}, mp,
		[]DeviceClass{{Devices: []Device{{ID: "a", DP: dp}, {ID: "b", DP: dp2}}}})
	if err == nil || !strings.Contains(err.Error(), "runs") {
		t.Fatalf("program mismatch accepted: %v", err)
	}
}

func TestClassPrefixedRulesCompile(t *testing.T) {
	// Two classes of the same program under different prefixes: rules must
	// reference the prefixed relations.
	mp, dp := newFakes(t)
	dp2 := &fakeDP{info: leafInfo(t)}
	rules := strings.NewReplacer(
		"InVlan(", "AInVlan(",
		"VlanOk(", "AVlanOk(",
		"Flood(", "AFlood(",
		"MulticastGroup(", "AMulticastGroup(",
		"Dmac(", "ADmac(",
		"Smac(", "ASmac(",
		"MirrorIngress(", "AMirrorIngress(",
		"AclSrc(", "AAclSrc(",
		"StripTag(", "AStripTag(",
		"AddTag(", "AAddTag(",
		"Learn(", "ALearn(",
	).Replace(snvs.Rules)
	ctrl, err := NewWithClasses(Config{Rules: rules, Database: "snvs"}, mp,
		[]DeviceClass{
			{Name: "A", Devices: []Device{{ID: "a0", DP: dp}}},
			{Name: "B", Devices: []Device{{ID: "b0", DP: dp2}}},
		})
	if err != nil {
		t.Fatalf("NewWithClasses: %v", err)
	}
	defer ctrl.Stop()
	if ctrl.Program().Relation("AInVlan") == nil || ctrl.Program().Relation("BInVlan") == nil {
		t.Fatalf("prefixed relations missing")
	}
	// Class B has no rules: its relations stay empty, which is legal.
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
}

func TestStopIdempotentAndBarrierAfterStop(t *testing.T) {
	mp, dp := newFakes(t)
	ctrl := startCtrl(t, mp, dp)
	ctrl.Stop()
	ctrl.Stop() // second stop must not panic
	if err := ctrl.Barrier(); err != nil {
		// Barrier after stop returns the recorded error (nil here) or
		// simply unblocks; either way it must not hang or panic.
		t.Logf("barrier after stop: %v", err)
	}
}

// TestResyncPerDeviceClass: in a per-device class the resync derives one
// device's state from relations that hold every device's records. leaf0
// must get its own entries and groups plus the class-wide group, and
// nothing addressed to leaf1 — exactly what the live leaf0 was pushed.
func TestResyncPerDeviceClass(t *testing.T) {
	schema, err := spineleaf.Schema()
	if err != nil {
		t.Fatal(err)
	}
	info, err := p4.BuildP4Info(spineleaf.LeafPipeline())
	if err != nil {
		t.Fatal(err)
	}
	mp := &fakeMP{db: ovsdb.NewDatabase(schema)}
	leaf0, leaf1 := &fakeDP{info: info}, &fakeDP{info: info}
	transact(t, mp,
		ovsdb.OpInsert("Leaf", map[string]ovsdb.Value{"name": "leaf0", "spine_port": int64(1)}),
		ovsdb.OpInsert("Leaf", map[string]ovsdb.Value{"name": "leaf1", "spine_port": int64(2)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(0xaa01), "leaf": "leaf0", "port": int64(3)}),
		ovsdb.OpInsert("Host", map[string]ovsdb.Value{"mac": int64(0xaa02), "leaf": "leaf1", "port": int64(4)}),
	)
	// The leaf half of spineleaf.Rules, plus group 7 addressed to the whole
	// class (empty device column).
	const rules = `
LeafDmac(l, m as bit<48>, p as bit<16>) :- Host(_, l, m, p).
LeafDmac(l2, m as bit<48>, 10) :- Host(_, l, m, _), Leaf(_, l2, _), l2 != l.
LeafMulticastGroup(l, 1, p as bit<16>) :- Host(_, l, _, p).
LeafMulticastGroup("", 7, sp as bit<16>) :- Leaf(_, _, sp).
`
	ctrl, err := NewWithClasses(Config{Rules: rules, Database: "spineleaf"}, mp,
		[]DeviceClass{{Name: "Leaf", PerDevice: true, Devices: []Device{
			{ID: "leaf0", DP: leaf0}, {ID: "leaf1", DP: leaf1},
		}}})
	if err != nil {
		t.Fatalf("NewWithClasses: %v", err)
	}
	t.Cleanup(ctrl.Stop)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}

	tr := newFakeTR()
	if err := ctrl.Resync("leaf0", tr); err != nil {
		t.Fatalf("resync: %v", err)
	}
	live := newFakeTR()
	if err := live.Write(leaf0.allUpdates()...); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr.entries, live.entries) {
		t.Fatalf("resynced leaf0 entries = %v\nlive leaf0 entries = %v", tr.entries, live.entries)
	}
	if !reflect.DeepEqual(tr.mcast, live.mcast) {
		t.Fatalf("resynced leaf0 groups = %v, live leaf0 groups = %v", tr.mcast, live.mcast)
	}
	// Spelled out, so the comparison above cannot pass vacuously: two dmac
	// entries with leaf0's view of aa02 (the uplink, not leaf1's host
	// port), leaf0's own flood group, and the shared group.
	if len(tr.entries) != 2 {
		t.Fatalf("leaf0 has %d entries, want 2: %v", len(tr.entries), tr.entries)
	}
	for _, e := range tr.entries {
		if e.Matches[0].Value == 0xaa02 && e.Params[0] != 10 {
			t.Fatalf("leaf0 got leaf1's entry for aa02: %v", e)
		}
	}
	want := map[uint16][]uint16{1: {3}, 7: {1, 2}}
	if !reflect.DeepEqual(tr.mcast, want) {
		t.Fatalf("leaf0 groups = %v, want %v", tr.mcast, want)
	}
}
