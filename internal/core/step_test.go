package core

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/codegen"
	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/dl/zset"
	"repro/internal/ovsdb"
	"repro/internal/p4"
	"repro/internal/p4rt"
	"repro/internal/snvs"
	"repro/internal/spineleaf"
)

// modelDevice is an in-memory switch: table entries keyed by entryIdent,
// plus multicast groups. Like a P4Runtime switch it refuses an insert of
// a held entry and a modify or delete of an absent one. While down,
// every write fails with p4rt.ErrUnavailable.
type modelDevice struct {
	entries map[string]p4rt.TableEntry
	groups  map[uint16][]uint16
	down    bool
}

func newModelDevice() *modelDevice {
	return &modelDevice{entries: map[string]p4rt.TableEntry{}, groups: map[uint16][]uint16{}}
}

func (d *modelDevice) write(ups []p4rt.Update) error {
	if d.down {
		return fmt.Errorf("model device down: %w", p4rt.ErrUnavailable)
	}
	for _, u := range ups {
		if g := u.Multicast; g != nil {
			if len(g.Ports) == 0 {
				delete(d.groups, g.Group)
			} else {
				d.groups[g.Group] = slices.Clone(g.Ports)
			}
			continue
		}
		k := entryIdent(u.Entry)
		_, held := d.entries[k]
		switch {
		case u.Type == p4rt.UpdateInsert && held:
			return fmt.Errorf("insert of held entry %s", k)
		case u.Type != p4rt.UpdateInsert && !held:
			return fmt.Errorf("%s of absent entry %s", u.Type, k)
		case u.Type == p4rt.UpdateDelete:
			delete(d.entries, k)
		default:
			d.entries[k] = *u.Entry
		}
	}
	return nil
}

// read returns what the device holds in table, as ReadTable would.
func (d *modelDevice) read(table string) []p4rt.TableEntry {
	var out []p4rt.TableEntry
	for _, e := range d.entries {
		if e.Table == table {
			out = append(out, e)
		}
	}
	return out
}

// stepScope is one small world whose event orders TestStepEventOrders
// enumerates: a program, its device classes, the database it starts
// from, three commits c1 < c2 < c3, an optional digest, the device that
// goes down and comes back up, and a fallback snapshot of the final
// database.
type stepScope struct {
	name               string
	schema             *ovsdb.DatabaseSchema
	rules              string
	classes            []DeviceClass
	infos              []*p4.P4Info
	seed               []ovsdb.Operation    // the database before the controller starts
	commits            [3][]ovsdb.Operation // insert a row, modify it, delete another
	digest             *p4rt.DigestList     // sent by digestFrom; nil when the program has none
	digestFrom, flappy string

	initial ovsdb.TableUpdates
	updates [3]ovsdb.TableUpdates
	final   ovsdb.TableUpdates // every row after c3: the resnapshot's rows
	txns    [3]uint64
	want    map[string]*modelDevice // by device ID: NaiveEval's view
}

// Schedule items: a commit, the digest, the device going down, it
// coming back up (and being resynced), and the management plane
// resuming from a fresh snapshot.
const (
	itemCommit = iota
	itemDigest
	itemDown
	itemUp
	itemResnap
)

var itemNames = [...]string{"c", "digest", "down", "up", "resnap"}

// orders lists every order of the scope's events: commits in commit
// order, down before up, the digest (if any) anywhere.
func (sc *stepScope) orders() [][]int {
	left := [4]int{3, 0, 1, 1}
	if sc.digest != nil {
		left[itemDigest] = 1
	}
	var out [][]int
	var walk func(prefix []int)
	walk = func(prefix []int) {
		if left == [4]int{} {
			out = append(out, slices.Clone(prefix))
			return
		}
		for it := range left {
			if left[it] == 0 || (it == itemUp && left[itemDown] > 0) {
				continue
			}
			left[it]--
			walk(append(prefix, it))
			left[it]++
		}
	}
	walk(nil)
	return out
}

// resnapOrders lists every order with a resnapshot, which stands for a
// reconnect the database could not resume from its gap window: the
// commits not delivered before it are missed, and its rows are the
// final database's. Each is an order of orders with the resnapshot
// inserted at some position and the commits after it dropped.
func resnapOrders(orders [][]int) [][]int {
	seen := map[string]bool{}
	var out [][]int
	for _, order := range orders {
		for i := 0; i <= len(order); i++ {
			o := append(slices.Clone(order[:i]), itemResnap)
			for _, it := range order[i:] {
				if it != itemCommit {
					o = append(o, it)
				}
			}
			if key := fmt.Sprint(o); !seen[key] {
				seen[key] = true
				out = append(out, o)
			}
		}
	}
	return out
}

// splits lists every way an order's runs of adjacent commits can be
// coalesced: each result gives, per position, whether a commit there
// merges into the commit before it. The first split coalesces nothing.
func splits(order []int) [][]bool {
	out := [][]bool{make([]bool, len(order))}
	for i := 1; i < len(order); i++ {
		if order[i] != itemCommit || order[i-1] != itemCommit {
			continue
		}
		for _, s := range out {
			merged := slices.Clone(s)
			merged[i] = true
			out = append(out, merged)
		}
	}
	return out
}

// scheduleName renders a schedule: commits numbered, a coalesced run in
// brackets.
func scheduleName(order []int, merge []bool) string {
	var parts []string
	commit := 0
	for i, it := range order {
		name := itemNames[it]
		if it == itemCommit {
			commit++
			name = fmt.Sprintf("c%d", commit)
		}
		startsRun := it == itemCommit && i+1 < len(order) && merge[i+1] && !merge[i]
		switch {
		case startsRun:
			name = "[" + name
		case merge[i] && (i+1 == len(order) || !merge[i+1]):
			name += "]"
		}
		parts = append(parts, name)
	}
	return strings.Join(parts, " ")
}

// prepare records the scope's database history once: the initial
// snapshot, each commit's monitor update, and the final contents, from
// which NaiveEval derives what every device must end up holding.
func (sc *stepScope) prepare(t *testing.T) {
	t.Helper()
	s, err := newStep(sc.schema, sc.rules, sc.classes, sc.infos, engine.Options{})
	if err != nil {
		t.Fatalf("newStep: %v", err)
	}
	db := ovsdb.NewDatabase(sc.schema)
	transactOK(t, db, sc.seed...)
	type delivery struct {
		txn uint64
		tu  ovsdb.TableUpdates
	}
	got := make(chan delivery, len(sc.commits))
	mon, initial, err := db.AddMonitor(s.monitorRequests(), func(txn uint64, tu ovsdb.TableUpdates) {
		got <- delivery{txn, tu}
	})
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Cancel()
	sc.initial = initial
	for i, ops := range sc.commits {
		transactOK(t, db, ops...)
		d := <-got
		sc.txns[i], sc.updates[i] = d.txn, d.tu
	}
	final, finalSnap, err := db.AddMonitor(s.monitorRequests(), func(uint64, ovsdb.TableUpdates) {})
	if err != nil {
		t.Fatal(err)
	}
	final.Cancel()
	sc.final = finalSnap

	inputs := map[string][]value.Record{}
	ups, err := s.ovsdbUpdates(finalSnap)
	if err != nil {
		t.Fatal(err)
	}
	if sc.digest != nil {
		dups, err := s.digestUpdates(sc.digestFrom, *sc.digest)
		if err != nil {
			t.Fatal(err)
		}
		ups = append(ups, dups...)
	}
	for _, u := range ups {
		inputs[u.Relation] = append(inputs[u.Relation], u.Rec)
	}
	derived, err := engine.NaiveEval(s.prog.Checked, inputs)
	if err != nil {
		t.Fatal(err)
	}
	// What each device must hold, from the generated bindings alone: a
	// record addressed to the device or to its whole class.
	sc.want = map[string]*modelDevice{}
	for _, cs := range s.classes {
		for _, id := range cs.devices {
			dev := newModelDevice()
			for rel, b := range cs.gen.Outputs {
				for _, rec := range derived[rel] {
					if to := b.Device(rec); to != "" && to != id {
						continue
					}
					e, err := b.EntryFromRecord(rec)
					if err != nil {
						t.Fatal(err)
					}
					dev.entries[entryIdent(&e)] = e
				}
			}
			for _, rec := range derived[cs.gen.MulticastName] {
				var to string
				var group, port uint16
				if cs.perDevice {
					to, group, port, err = codegen.MulticastDeviceFromRecord(rec)
				} else {
					group, port, err = codegen.MulticastFromRecord(rec)
				}
				if err != nil {
					t.Fatal(err)
				}
				if to == "" || to == id {
					dev.groups[group] = append(dev.groups[group], port)
				}
			}
			for _, ports := range dev.groups {
				slices.Sort(ports)
			}
			sc.want[id] = dev
		}
	}
}

func transactOK(t *testing.T, db *ovsdb.Database, ops ...ovsdb.Operation) {
	t.Helper()
	for i, r := range db.Transact(ops) {
		if r.Error != "" {
			t.Fatalf("op %d: %s (%s)", i, r.Error, r.Details)
		}
	}
}

// run drives a fresh step through one schedule, acting as the
// controller's driver: each batch is applied and planned and its streams
// written to the model devices (a down device's writes are dropped);
// down empties the flapping device when restart is set, up resyncs it
// through drift, and a resnapshot applies what it finds changed as one
// batch. It returns the devices' final state.
func (sc *stepScope) run(order []int, merge []bool, restart bool) (map[string]*modelDevice, error) {
	s, err := newStep(sc.schema, sc.rules, sc.classes, sc.infos, engine.Options{})
	if err != nil {
		return nil, err
	}
	devs := map[string]*modelDevice{}
	for id := range sc.want {
		devs[id] = newModelDevice()
	}
	push := func(batch []event) error {
		delta, err := s.apply(batch)
		if err != nil {
			return err
		}
		p, err := s.plan(delta, batch[len(batch)-1].txnID, batch[0].source)
		if err != nil {
			return err
		}
		for _, dw := range p.writes {
			for _, b := range dw.batches {
				if err := devs[dw.id].write(b); err != nil && !errors.Is(err, p4rt.ErrUnavailable) {
					return fmt.Errorf("write to %s: %w", dw.id, err)
				}
			}
		}
		return nil
	}
	ups, err := s.ovsdbUpdates(sc.initial)
	if err != nil {
		return nil, err
	}
	if err := push([]event{{source: "initial", updates: ups}}); err != nil {
		return nil, err
	}
	var batch []event
	commit := 0
	for i, it := range order {
		switch it {
		case itemCommit:
			var ups []engine.Update
			if ups, err = s.ovsdbUpdates(sc.updates[commit]); err != nil {
				return nil, err
			}
			batch = append(batch, event{source: "ovsdb", txnID: sc.txns[commit], updates: ups})
			commit++
			if i+1 < len(order) && merge[i+1] {
				continue // the next commit joins this batch
			}
			err = push(batch)
			batch = nil
		case itemDigest:
			var ups []engine.Update
			if ups, err = s.digestUpdates(sc.digestFrom, *sc.digest); err == nil {
				err = push([]event{{source: "digest", updates: ups}})
			}
		case itemResnap:
			var ups []engine.Update
			if ups, err = s.resnapshot(sc.final); err == nil {
				err = push([]event{{source: "ovsdb", updates: ups}})
			}
		case itemDown:
			dev := devs[sc.flappy]
			if restart {
				*dev = *newModelDevice()
			}
			dev.down = true
		case itemUp:
			dev := devs[sc.flappy]
			dev.down = false
			var actual []p4rt.TableEntry
			for _, table := range s.devClass[sc.flappy].tables {
				actual = append(actual, dev.read(table)...)
			}
			var d *drift
			if d, err = s.drift(sc.flappy, actual); err == nil {
				err = dev.write(slices.Concat(d.stale, d.missing, d.modified, d.groups))
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return devs, nil
}

// diffDevices describes how got differs from want, "" when it does not.
func diffDevices(got, want map[string]*modelDevice) string {
	var out []string
	for _, id := range sortedKeys(want) {
		g, w := got[id], want[id]
		for _, k := range sortedKeys(w.entries) {
			if e, ok := g.entries[k]; !ok {
				out = append(out, fmt.Sprintf("%s lacks %s", id, k))
			} else if !reflect.DeepEqual(e, w.entries[k]) {
				out = append(out, fmt.Sprintf("%s holds %+v, want %+v", id, e, w.entries[k]))
			}
		}
		for _, k := range sortedKeys(g.entries) {
			if _, ok := w.entries[k]; !ok {
				out = append(out, fmt.Sprintf("%s holds stale %s", id, k))
			}
		}
		if !reflect.DeepEqual(g.groups, w.groups) {
			out = append(out, fmt.Sprintf("%s groups %v, want %v", id, g.groups, w.groups))
		}
	}
	return strings.Join(out, "; ")
}

// TestStepEventOrders checks the step against the north-star invariant
// on small scopes, exhaustively: after the initial snapshot, every order
// of three commits, a digest and one device going down and coming back
// up, under every coalescing split of adjacent commits (the first split
// of each order coalescing nothing), leaves every device holding exactly
// what NaiveEval derives from the final database and the digest — so
// every split of an order also ends where its uncoalesced run does. So
// does every such order with a resnapshot of the final database in
// place of the commits it follows: after c1 it drops one row, modifies
// one and keeps the rest, and it leaves the digest's relation alone.
// Each order runs twice: the device restarting empty while down, and the
// device keeping its tables while its writes are dropped (so the resync
// finds stale and modified entries too).
func TestStepEventOrders(t *testing.T) {
	for _, sc := range []*stepScope{snvsScope(t), spineleafScope(t)} {
		t.Run(sc.name, func(t *testing.T) {
			sc.prepare(t)
			orders, schedules := sc.orders(), 0
			orders = append(orders, resnapOrders(orders)...)
			for _, restart := range []bool{true, false} {
				for _, order := range orders {
					for _, merge := range splits(order) {
						name := fmt.Sprintf("restart=%v: %s", restart, scheduleName(order, merge))
						got, err := sc.run(order, merge, restart)
						if err != nil {
							t.Fatalf("%s: %v", name, err)
						}
						if diff := diffDevices(got, sc.want); diff != "" {
							t.Fatalf("%s: devices differ from NaiveEval: %s", name, diff)
						}
						schedules++
					}
				}
			}
			t.Logf("%d orders, %d schedules per device mode, all equal to NaiveEval",
				len(orders), schedules/2)
		})
	}
}

// snvsScope: one snvs switch. c1 inserts access port p3, c2 moves it to
// another VLAN (a modify), c3 deletes port p2; the digest learns one MAC
// on a port that stays and one on p3's first VLAN.
func snvsScope(t *testing.T) *stepScope {
	schema, err := snvs.Schema()
	if err != nil {
		t.Fatal(err)
	}
	return &stepScope{
		name: "snvs", schema: schema, rules: snvs.Rules,
		classes: []DeviceClass{{Devices: []Device{{ID: "dev0"}}}},
		infos:   []*p4.P4Info{leafInfo(t)},
		seed: []ovsdb.Operation{
			ovsdb.OpInsert("SwitchCfg", map[string]ovsdb.Value{"name": "s", "flood_unknown": true}),
			ovsdb.OpInsert("Port", portRow("p1", 1, 10)),
			ovsdb.OpInsert("Port", portRow("p2", 2, 20)),
		},
		commits: [3][]ovsdb.Operation{
			{ovsdb.OpInsert("Port", portRow("p3", 3, 30))},
			{ovsdb.OpUpdate("Port", map[string]ovsdb.Value{"tag": int64(31)}, ovsdb.Cond("name", "==", "p3"))},
			{ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", "p2"))},
		},
		digest: &p4rt.DigestList{Digest: "learn", ListID: 1, Messages: [][]uint64{
			{0xaa, 10, 1}, {0xbb, 30, 3},
		}},
		digestFrom: "dev0", flappy: "dev0",
	}
}

// spineleafScope: the per-device Leaf class (leaf0, leaf1) beside the
// Spine class, with group 7 addressed to the whole Leaf class. c1 adds a
// host on leaf0, c2 moves it to another port (a modify), c3 deletes
// leaf1's Leaf row, which changes the class-wide group; leaf0 flaps.
// The program has no digest.
func spineleafScope(t *testing.T) *stepScope {
	schema, err := spineleaf.Schema()
	if err != nil {
		t.Fatal(err)
	}
	leaf, err := p4.BuildP4Info(spineleaf.LeafPipeline())
	if err != nil {
		t.Fatal(err)
	}
	spine, err := p4.BuildP4Info(spineleaf.SpinePipeline())
	if err != nil {
		t.Fatal(err)
	}
	host := func(mac int64, leaf string, port int64) map[string]ovsdb.Value {
		return map[string]ovsdb.Value{"mac": mac, "leaf": leaf, "port": port}
	}
	return &stepScope{
		name: "spineleaf", schema: schema,
		rules: spineleaf.Rules + `LeafMulticastGroup("", 7, sp as bit<16>) :- Leaf(_, _, sp).` + "\n",
		classes: []DeviceClass{
			{Name: "Leaf", PerDevice: true, Devices: []Device{{ID: "leaf0"}, {ID: "leaf1"}}},
			{Name: "Spine", Devices: []Device{{ID: "spine0"}}},
		},
		infos: []*p4.P4Info{leaf, spine},
		seed: []ovsdb.Operation{
			ovsdb.OpInsert("Leaf", map[string]ovsdb.Value{"name": "leaf0", "spine_port": int64(1)}),
			ovsdb.OpInsert("Leaf", map[string]ovsdb.Value{"name": "leaf1", "spine_port": int64(2)}),
			ovsdb.OpInsert("Host", host(0xaa01, "leaf0", 3)),
			ovsdb.OpInsert("Host", host(0xaa02, "leaf1", 4)),
		},
		commits: [3][]ovsdb.Operation{
			{ovsdb.OpInsert("Host", host(0xaa03, "leaf0", 5))},
			{ovsdb.OpUpdate("Host", map[string]ovsdb.Value{"port": int64(6)}, ovsdb.Cond("mac", "==", int64(0xaa03)))},
			{ovsdb.OpDelete("Leaf", ovsdb.Cond("name", "==", "leaf1"))},
		},
		flappy: "leaf0",
	}
}

// earlyMP is a management plane whose MonitorTxn delivers a live commit
// — deleting port p1 — to the callback before it returns the snapshot,
// which still holds p1. ovsdb.Client and ResilientClient can both do
// this: an update may reach the callback before the monitor's reply.
type earlyMP struct{ *fakeMP }

func (m earlyMP) MonitorTxn(_ string, _ any, requests map[string]*ovsdb.MonitorRequest, cb func(uint64, ovsdb.TableUpdates)) (ovsdb.TableUpdates, error) {
	delivered := make(chan struct{})
	var once sync.Once
	_, initial, err := m.db.AddMonitor(requests, func(txn uint64, tu ovsdb.TableUpdates) {
		cb(txn, tu)
		once.Do(func() { close(delivered) })
	})
	if err != nil {
		return nil, err
	}
	if r := m.db.Transact([]ovsdb.Operation{ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", "p1"))}); r[0].Error != "" {
		return nil, fmt.Errorf("delete p1: %s", r[0].Error)
	}
	<-delivered
	return initial, nil
}

// TestLiveCommitBeforeInitialSnapshot: a commit delivered before the
// snapshot it follows must still apply after it. Applied first, the
// delete would be a no-op and the snapshot would re-insert the row for
// good.
func TestLiveCommitBeforeInitialSnapshot(t *testing.T) {
	mp, dp := newFakes(t)
	transact(t, mp, ovsdb.OpInsert("Port", portRow("p1", 1, 10)), ovsdb.OpInsert("Port", portRow("p2", 2, 20)))
	ctrl, err := New(Config{Rules: snvs.Rules, Database: "snvs"}, earlyMP{mp}, dp)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(ctrl.Stop)
	if err := ctrl.Barrier(); err != nil {
		t.Fatal(err)
	}
	ports, err := ctrl.Contents("Port")
	if err != nil {
		t.Fatal(err)
	}
	if len(ports) != 1 || !strings.Contains(ports[0].String(), "p2") {
		t.Fatalf("engine holds ports %v, want p2 alone (the database's)", ports)
	}
	dev := newModelDevice()
	if err := dev.write(dp.allUpdates()); err != nil {
		t.Fatal(err)
	}
	for _, e := range dev.entries {
		if e.Table == "in_vlan" && e.Matches[0].Value == 1 {
			t.Fatalf("device still admits deleted port 1: %+v", e)
		}
	}
}

// TestPlanOrderIsContentOrder: plan's streams are a function of the
// delta's contents alone. One delta, built by adding its entries in two
// opposite orders and planned by two steps in the same state, yields
// identical per-device streams, each deletes, then inserts, then groups.
// The delta deletes two snvs ports and adds six over three VLANs, so
// each output relation changes by several entries of each sign.
func TestPlanOrderIsContentOrder(t *testing.T) {
	sc := snvsScope(t)
	db := ovsdb.NewDatabase(sc.schema)
	transactOK(t, db, sc.seed...)
	probe, err := newStep(sc.schema, sc.rules, sc.classes, sc.infos, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := make(chan ovsdb.TableUpdates, 1)
	mon, initial, err := db.AddMonitor(probe.monitorRequests(), func(_ uint64, tu ovsdb.TableUpdates) { got <- tu })
	if err != nil {
		t.Fatal(err)
	}
	defer mon.Cancel()
	commit := []ovsdb.Operation{
		ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", "p1")),
		ovsdb.OpDelete("Port", ovsdb.Cond("name", "==", "p2")),
	}
	for i := int64(3); i <= 8; i++ {
		commit = append(commit, ovsdb.OpInsert("Port", portRow(fmt.Sprintf("p%d", i), i, 10*(i%3+1))))
	}
	transactOK(t, db, commit...)
	update := <-got

	var streams [2]map[string][]p4rt.Update
	for i := range streams {
		s, err := newStep(sc.schema, sc.rules, sc.classes, sc.infos, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		var delta engine.Delta
		for j, tu := range []ovsdb.TableUpdates{initial, update} {
			ups, err := s.ovsdbUpdates(tu)
			if err != nil {
				t.Fatal(err)
			}
			if delta, err = s.apply([]event{{source: "ovsdb", updates: ups}}); err != nil {
				t.Fatal(err)
			}
			if j == 0 { // the initial sync: group membership advances
				if _, err := s.plan(delta, 0, "initial"); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Rebuild the commit's delta, adding its entries forwards or
		// backwards.
		rebuilt := engine.Delta{}
		for rel, z := range delta {
			es := z.Entries()
			if i == 1 {
				slices.Reverse(es)
			}
			rebuilt[rel] = zset.New()
			for _, e := range es {
				rebuilt[rel].Add(e.Rec, e.Weight)
			}
		}
		p, err := s.plan(rebuilt, 0, "ovsdb")
		if err != nil {
			t.Fatal(err)
		}
		streams[i] = map[string][]p4rt.Update{}
		for _, dw := range p.writes {
			streams[i][dw.id] = slices.Concat(dw.batches...)
		}
	}
	if !reflect.DeepEqual(streams[0], streams[1]) {
		t.Fatalf("one delta, two streams:\n%v\n%v", streams[0], streams[1])
	}
	rank := func(u p4rt.Update) int {
		switch {
		case u.Multicast != nil:
			return 2
		case u.Type == p4rt.UpdateDelete:
			return 0
		}
		return 1
	}
	ups := streams[0]["dev0"]
	var seen [3]int
	for i, u := range ups {
		seen[rank(u)]++
		if i > 0 && rank(u) < rank(ups[i-1]) {
			t.Fatalf("update %d (%v) after %v: want deletes, inserts, groups", i, u, ups[i-1])
		}
	}
	if seen[0] < 2 || seen[1] < 6 || seen[2] == 0 {
		t.Fatalf("the stream has %v deletes/inserts/groups, want ≥ 2, ≥ 6, ≥ 1", seen)
	}
}

// TestDriftReportsKeyConflict: two records of one output relation that
// derive different entries under one match key make drift fail, naming
// the table, the key and both records, instead of keeping the last. The
// conflict is defect 2's: snvs without its static-MAC guard derives a
// dmac entry from a static MAC on port 1 and another from the same MAC
// learnt on port 2. With the guard, drift succeeds.
func TestDriftReportsKeyConflict(t *testing.T) {
	const guard = ", not StaticKey(v, m)"
	if !strings.Contains(snvs.Rules, guard) {
		t.Fatalf("snvs.Rules lost its static-MAC guard %q", guard)
	}
	schema, err := snvs.Schema()
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name, rules string
		conflict    bool
	}{
		{"guarded", snvs.Rules, false},
		{"unguarded", strings.Replace(snvs.Rules, guard, "", 1), true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := newStep(schema, tc.rules, []DeviceClass{{Devices: []Device{{ID: "dev0"}}}},
				[]*p4.P4Info{leafInfo(t)}, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			db := ovsdb.NewDatabase(schema)
			transactOK(t, db,
				ovsdb.OpInsert("Port", portRow("p1", 1, 10)),
				ovsdb.OpInsert("Port", portRow("p2", 2, 10)),
				ovsdb.OpInsert("StaticMac", map[string]ovsdb.Value{
					"mac": int64(0xaa), "vlan": int64(10), "port": int64(1)}))
			mon, initial, err := db.AddMonitor(s.monitorRequests(), func(uint64, ovsdb.TableUpdates) {})
			if err != nil {
				t.Fatal(err)
			}
			mon.Cancel()
			ups, err := s.ovsdbUpdates(initial)
			if err != nil {
				t.Fatal(err)
			}
			learnt, err := s.digestUpdates("dev0", p4rt.DigestList{Digest: "learn", ListID: 1,
				Messages: [][]uint64{{0xaa, 10, 2}}})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.apply([]event{{source: "initial", updates: append(ups, learnt...)}}); err != nil {
				t.Fatal(err)
			}
			_, err = s.drift("dev0", nil)
			if !tc.conflict {
				if err != nil {
					t.Fatalf("drift: %v", err)
				}
				return
			}
			if err == nil {
				t.Fatal("drift kept one of two conflicting dmac entries")
			}
			t.Log(err)
			for _, want := range []string{"table dmac", "[{10 0 0 false} {170 0 0 false}]", "Dmac(10, 170, 1)", "Dmac(10, 170, 2)"} {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("drift error %q does not name %q", err, want)
				}
			}
		})
	}
}
