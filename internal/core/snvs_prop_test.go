package core

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/dl/ast"
	"repro/internal/dl/engine"
	"repro/internal/dl/value"
	"repro/internal/dl/zset"
	"repro/internal/ovsdb"
	"repro/internal/p4"
	"repro/internal/p4rt"
	"repro/internal/snvs"
)

// bulkPort is one Port row of a bulk transaction; trunks is nil for an
// access port.
type bulkPort struct {
	uuid   string
	num    int64
	vlan   int64
	trunks []int64
}

func (p bulkPort) row() ovsdb.Row {
	if p.trunks == nil {
		return ovsdb.Row{"name": p.uuid, "port_num": p.num, "vlan_mode": "access", "tag": p.vlan}
	}
	atoms := make([]ovsdb.Atom, len(p.trunks))
	for i, v := range p.trunks {
		atoms[i] = v
	}
	return ovsdb.Row{"name": p.uuid, "port_num": p.num, "vlan_mode": "trunk", "trunks": ovsdb.NewSet(atoms...)}
}

// bulkGen draws bulk_reconfig-shaped transactions for one snvs switch:
// slots of ports, a quarter of them trunks over all VLANs, inserted and
// deleted whole. Transactions are monitor updates, converted to engine
// updates by the controller's own step.
type bulkGen struct {
	t     testing.TB
	s     *step
	rng   *rand.Rand
	vlans []int64 // trunk VLANs; the first access ones carry access ports
	next  int64   // next port number
}

const (
	bulkTrunkVlans  = 16
	bulkAccessVlans = 10
)

func newBulkGen(t testing.TB, opts engine.Options, seed int64) *bulkGen {
	t.Helper()
	schema, err := snvs.Schema()
	if err != nil {
		t.Fatal(err)
	}
	info, err := p4.BuildP4Info(snvs.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	s, err := newStep(schema, snvs.Rules, []DeviceClass{{Devices: []Device{{ID: "dev0"}}}}, []*p4.P4Info{info}, opts)
	if err != nil {
		t.Fatal(err)
	}
	g := &bulkGen{t: t, s: s, rng: rand.New(rand.NewSource(seed)), next: 1}
	for _, v := range g.rng.Perm(4000)[:bulkTrunkVlans] {
		g.vlans = append(g.vlans, int64(v+2))
	}
	return g
}

func (g *bulkGen) port(trunk bool) bulkPort {
	p := bulkPort{uuid: fmt.Sprintf("u%d", g.next), num: g.next}
	g.next++
	if trunk {
		p.trunks = append([]int64(nil), g.vlans...)
	} else {
		p.vlan = g.vlans[g.rng.Intn(bulkAccessVlans)]
	}
	return p
}

// slot draws n ports: every fourth is a trunk.
func (g *bulkGen) slot(n int) []bulkPort {
	ports := make([]bulkPort, n)
	for i := range ports {
		ports[i] = g.port(i%4 == 3)
	}
	return ports
}

// txn accumulates one transaction's monitor update.
type txn ovsdb.TableUpdates

func (tx txn) row(table, uuid string, ru ovsdb.RowUpdate) {
	if tx[table] == nil {
		tx[table] = ovsdb.TableUpdate{}
	}
	tx[table][uuid] = ru
}

func (tx txn) ports(ports []bulkPort, insert bool) txn {
	for _, p := range ports {
		if insert {
			tx.row("Port", p.uuid, ovsdb.RowUpdate{New: p.row()})
		} else {
			tx.row("Port", p.uuid, ovsdb.RowUpdate{Old: p.row()})
		}
	}
	return tx
}

// updates converts a transaction, and the MACs learnt with it, to engine
// updates.
func (g *bulkGen) updates(tx txn, learnt [][]uint64) []engine.Update {
	g.t.Helper()
	ups, err := g.s.ovsdbUpdates(ovsdb.TableUpdates(tx))
	if err != nil {
		g.t.Fatal(err)
	}
	if len(learnt) > 0 {
		dups, err := g.s.digestUpdates("dev0", p4rt.DigestList{Digest: "learn", ListID: 1, Messages: learnt})
		if err != nil {
			g.t.Fatal(err)
		}
		ups = append(ups, dups...)
	}
	return ups
}

// preload is the first transaction: the switch config and n access
// ports, each with a static host.
func (g *bulkGen) preload(n int) ([]engine.Update, []bulkPort) {
	tx := txn{}
	tx.row("SwitchCfg", "cfg", ovsdb.RowUpdate{New: ovsdb.Row{"name": "snvs0", "flood_unknown": true}})
	var ports []bulkPort
	for i := 0; i < n; i++ {
		p := g.port(false)
		ports = append(ports, p)
		tx.ports([]bulkPort{p}, true)
		tx.row("StaticMac", "m-"+p.uuid, ovsdb.RowUpdate{New: ovsdb.Row{"mac": 0x020000000000 + p.num, "vlan": p.vlan, "port": p.num}})
	}
	return g.updates(tx, nil), ports
}

// TestSnvsBulkMatchesNaive holds the engine to NaiveEval on the snvs
// program under bulk_reconfig-shaped transactions: 256-port slots, a
// quarter trunks over 16 VLANs, inserted and deleted whole, between
// transactions that remove and add trunk Ports together with their
// Port_Trunks, modify a trunk's VLAN set (its Port record deleted and
// re-inserted in one transaction) and learn MACs. After every
// transaction each relation's contents and the output delta must equal
// NaiveEval over the accumulated inputs, with and without Collect.
func TestSnvsBulkMatchesNaive(t *testing.T) {
	for _, opts := range []engine.Options{{}, {Collect: true}} {
		t.Run(fmt.Sprintf("collect=%v", opts.Collect), func(t *testing.T) {
			for _, seed := range []int64{1, 7} {
				runSnvsBulk(t, opts, seed)
			}
		})
	}
}

func runSnvsBulk(t *testing.T, opts engine.Options, seed int64) {
	g := newBulkGen(t, opts, seed)
	prog, rt := g.s.prog, g.s.rt
	live := map[string]map[string]value.Record{} // accumulated inputs
	prev, err := engine.NaiveEval(prog.Checked, nil)
	if err != nil {
		t.Fatal(err)
	}
	step := func(name string, ups []engine.Update) {
		t.Helper()
		delta, err := rt.Apply(ups)
		if err != nil {
			t.Fatalf("seed %d %s: %v", seed, name, err)
		}
		for _, u := range ups {
			m := live[u.Relation]
			if m == nil {
				m = map[string]value.Record{}
				live[u.Relation] = m
			}
			if u.Insert {
				m[u.Rec.Key()] = u.Rec
			} else {
				delete(m, u.Rec.Key())
			}
		}
		inputs := map[string][]value.Record{}
		for rel, m := range live {
			for _, rec := range m {
				inputs[rel] = append(inputs[rel], rec)
			}
		}
		want, err := engine.NaiveEval(prog.Checked, inputs)
		if err != nil {
			t.Fatal(err)
		}
		for _, rel := range rt.Relations() {
			got, err := rt.Contents(rel)
			if err != nil {
				t.Fatal(err)
			}
			if diff := recordsDiff(got, want[rel]); diff != "" {
				t.Fatalf("seed %d %s: %s contents differ from NaiveEval: %s", seed, name, rel, diff)
			}
		}
		for rel := range delta {
			if r := prog.Relation(rel); r == nil || r.Role != ast.RoleOutput {
				t.Fatalf("seed %d %s: delta for non-output relation %s", seed, name, rel)
			}
		}
		for _, rel := range prog.Checked.Relations {
			if rel.Role != ast.RoleOutput {
				continue
			}
			z := zset.New()
			for _, rec := range want[rel.Name] {
				z.Add(rec, 1)
			}
			for _, rec := range prev[rel.Name] {
				z.Add(rec, -1)
			}
			got := delta[rel.Name]
			if got == nil {
				got = zset.New()
			}
			if !got.Equal(z) {
				t.Fatalf("seed %d %s: %s delta has %d entries, NaiveEval's %d", seed, name, rel.Name, got.Len(), z.Len())
			}
		}
		prev = want
	}

	pre, access := g.preload(16)
	step("preload", pre)
	for round := 0; round < 2; round++ {
		slot := g.slot(256)
		step("bulk insert", g.updates(txn{}.ports(slot, true), nil))

		// Trunk churn inside the live slot: remove three trunk Ports with
		// their Port_Trunks, add two, halve a fourth's VLAN set, and learn
		// MACs behind the slot's ports.
		var trunks []int
		for i, p := range slot {
			if p.trunks != nil {
				trunks = append(trunks, i)
			}
		}
		g.rng.Shuffle(len(trunks), func(i, j int) { trunks[i], trunks[j] = trunks[j], trunks[i] })
		tx := txn{}
		for _, i := range trunks[:3] {
			tx.ports(slot[i:i+1], false)
		}
		added := []bulkPort{g.port(true), g.port(true)}
		tx.ports(added, true)
		mod := &slot[trunks[3]]
		old := mod.row()
		mod.trunks = mod.trunks[:bulkTrunkVlans/2]
		tx.row("Port", mod.uuid, ovsdb.RowUpdate{Old: ovsdb.Row{"trunks": old["trunks"]}, New: mod.row()})
		var kept []bulkPort
		for i, p := range slot {
			if i != trunks[0] && i != trunks[1] && i != trunks[2] {
				kept = append(kept, p)
			}
		}
		kept = append(kept, added...)
		var learnt [][]uint64
		for k := 0; k < 8; k++ {
			p := kept[g.rng.Intn(len(kept))]
			vlan := p.vlan
			if p.trunks != nil {
				vlan = p.trunks[g.rng.Intn(len(p.trunks))]
			}
			learnt = append(learnt, []uint64{uint64(0x040000000000 + g.next*16 + int64(k)), uint64(vlan), uint64(p.num)})
		}
		step("trunk churn", g.updates(tx, learnt))

		step("bulk delete", g.updates(txn{}.ports(kept, false), nil))
	}
	step("delete preload", g.updates(txn{}.ports(access, false), nil))
}

// recordsDiff describes the first difference between two sorted record
// lists ("" when equal).
func recordsDiff(got, want []value.Record) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d records, want %d", len(got), len(want))
	}
	for i := range got {
		if !got[i].Equal(want[i]) {
			return fmt.Sprintf("record %d = %v, want %v", i, got[i], want[i])
		}
	}
	return ""
}

// BenchmarkSnvsBulkApply times Runtime.Apply of bulk_reconfig-shaped
// transactions on the snvs program: a 256-port slot, a quarter trunks
// over 16 VLANs, inserted and then deleted whole, over 1000 preloaded
// access ports. One op is one transaction.
func BenchmarkSnvsBulkApply(b *testing.B) {
	g := newBulkGen(b, engine.Options{}, 1)
	pre, _ := g.preload(1000)
	if _, err := g.s.rt.Apply(pre); err != nil {
		b.Fatal(err)
	}
	slot := g.slot(256)
	txns := [][]engine.Update{g.updates(txn{}.ports(slot, true), nil), g.updates(txn{}.ports(slot, false), nil)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.s.rt.Apply(txns[i%2]); err != nil {
			b.Fatal(err)
		}
	}
}
