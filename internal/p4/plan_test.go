package p4_test

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/overlay"
	"repro/internal/p4"
	"repro/internal/snvs"
	"repro/internal/spineleaf"
)

// edgesP4 reaches what the deployments' programs do not: reads of a
// header after setInvalid and after setInvalid+setValid, egress that
// drops a replica carrying a digest, un-drops it with output, asks for a
// clone, or keys on mcast_grp, and an ingress output after a drop.
const edgesP4 = `
header eth { bit<48> dst; bit<48> src; bit<16> etype; }
header tag { bit<3> pcp; bit<13> id; bit<16> etype; }
metadata { bit<4> m; bit<13> v; }
digest seen { bit<48> mac; bit<4> m; bit<16> grp; bit<13> v; }
parser {
  state start {
    extract(eth);
    transition select(eth.etype) { 0x8100: parse_tag; 0x88B5: loop; default: accept; }
  }
  state parse_tag { extract(tag); transition accept; }
  state loop { transition loop; }
}
control Ingress {
  action set_m(bit<4> x) { meta.m = x; meta.v = tag.id; }
  action untag() { eth.etype = tag.etype; tag.setInvalid(); meta.v = tag.id; }
  action retag() { tag.setInvalid(); tag.setValid(); tag.etype = eth.etype; eth.etype = 0x8100; meta.v = tag.id; }
  action fwd(bit<16> port) { output(port); }
  action flood(bit<16> grp) { multicast(grp); }
  action deny() { drop(); }
  action deny_then_fwd(bit<16> port) { drop(); output(port); }
  action mirror(bit<16> port) { clone(port); }
  action note() { digest(seen, {eth.src, meta.m, standard_metadata.mcast_grp, meta.v}); }
  table t1 {
    key = { standard_metadata.ingress_port: exact; }
    actions = { set_m; untag; retag; }
    default_action = untag;
  }
  table t2 {
    key = { meta.m: exact; eth.dst: exact; }
    actions = { fwd; flood; deny; deny_then_fwd; mirror; }
    default_action = flood(1);
  }
  table t3 {
    key = { meta.v: exact; }
    actions = { note; mirror; deny; }
    default_action = note;
  }
  apply {
    t1.apply();
    t2.apply();
    if (standard_metadata.mcast_grp != 0 || !(meta.v == 0) && tag.isValid()) { t3.apply(); }
  }
}
control Egress {
  action e_drop() { drop(); }
  action e_note() { digest(seen, {eth.src, meta.m, standard_metadata.egress_spec, meta.v}); }
  action e_note_drop() { digest(seen, {eth.dst, meta.m, standard_metadata.mcast_grp, meta.v}); drop(); }
  action e_out(bit<16> port) { output(port); }
  action e_clone(bit<16> port) { clone(port); }
  action e_untag() { eth.etype = tag.etype; tag.setInvalid(); }
  table e1 {
    key = { standard_metadata.egress_spec: exact; standard_metadata.mcast_grp: exact; }
    actions = { e_drop; e_note; e_note_drop; e_clone; e_untag; }
    default_action = e_note;
  }
  table e2 {
    key = { meta.m: exact; }
    actions = { e_drop; e_out; e_note_drop; }
  }
  apply { e1.apply(); e2.apply(); }
}
deparser { emit(eth); emit(tag); }
`

// pipelines are the deployments' programs — snvs (access and trunk
// ports, VLAN tags pushed and popped, flood groups, learn digests, ACL
// deny, mirroring clones), the spine-leaf pair and the overlay pair
// (tunnel encap and decap) — and edgesP4.
func pipelines(t *testing.T) map[string]*p4.Program {
	edges, err := p4.ParseProgram("edges", edgesP4)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]*p4.Program{
		"snvs":          snvs.Pipeline(),
		"leaf":          spineleaf.LeafPipeline(),
		"spine":         spineleaf.SpinePipeline(),
		"overlay_leaf":  overlay.LeafPipeline(),
		"overlay_spine": overlay.SpinePipeline(),
		"edges":         edges,
	}
}

// small draws from the small domain every key, parameter and frame field
// uses, so random frames hit random entries often.
func small(rng *rand.Rand) uint64 { return uint64(rng.Intn(6)) }

// randomEntry draws an entry for t: keys and parameters from the small
// domain, any allowed action.
func randomEntry(rng *rand.Rand, prog *p4.Program, t *p4.Table) p4.Entry {
	e := p4.Entry{Action: t.Actions[rng.Intn(len(t.Actions))], Priority: rng.Intn(3)}
	for range t.Keys {
		e.Matches = append(e.Matches, p4.FieldMatch{Value: small(rng), Wildcard: rng.Intn(4) == 0})
	}
	for range prog.ActionByName(e.Action).Params {
		e.Params = append(e.Params, small(rng))
	}
	return e
}

// randomFrame builds a frame from small MACs, an ethertype the parsers
// branch on (VLAN, tunnel) or not, and 16-bit words from the small
// domain; one in eight is truncated at a random length.
func randomFrame(rng *rand.Rand) []byte {
	f := make([]byte, 14, 40)
	binary.BigEndian.PutUint16(f[4:], uint16(small(rng)))
	binary.BigEndian.PutUint16(f[10:], uint16(small(rng)))
	if rng.Intn(8) == 0 {
		copy(f[:6], []byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	}
	etypes := []uint16{0x8100, 0x88B5, 0x0800, 0x1234}
	binary.BigEndian.PutUint16(f[12:], etypes[rng.Intn(len(etypes))])
	for i := rng.Intn(12); i > 0; i-- {
		f = binary.BigEndian.AppendUint16(f, uint16(small(rng)))
	}
	if rng.Intn(8) == 0 {
		f = f[:rng.Intn(len(f))]
	}
	return f
}

// TestPlanMatchesWalker holds the lowered pipeline to the reference
// walker: on every pipeline, seeded random tables and multicast groups,
// churned as frames arrive, give the same Result — outputs in the same
// order with the same bytes, digests in the same order, the same drop.
func TestPlanMatchesWalker(t *testing.T) {
	for name, prog := range pipelines(t) {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				rt, err := p4.NewRuntime(prog)
				if err != nil {
					t.Fatal(err)
				}
				churn := func(n int) {
					for i := 0; i < n; i++ {
						tbl := prog.Tables[rng.Intn(len(prog.Tables))]
						e := randomEntry(rng, prog, tbl)
						if rng.Intn(4) == 0 {
							rt.DeleteEntry(tbl.Name, e.Matches) // absent entries are fine
						} else if err := rt.InsertEntry(tbl.Name, e); err != nil {
							t.Fatal(err)
						}
					}
					g := uint16(1 + small(rng))
					var ports []uint16
					for p := uint16(0); p < 6; p++ {
						if rng.Intn(2) == 0 {
							ports = append(ports, p)
						}
					}
					rt.SetMulticastGroup(g, ports)
				}
				churn(60)
				for i := 0; i < 3000; i++ {
					if i%100 == 99 {
						churn(10)
					}
					port, frame := uint16(small(rng)), randomFrame(rng)
					want, werr := p4.ReferenceProcess(rt, port, frame)
					got, gerr := rt.Process(port, frame)
					if werr != nil || gerr != nil {
						t.Fatalf("frame %d: errors walker=%v plan=%v", i, werr, gerr)
					}
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("frame %d port %d %x:\nplan   %+v\nwalker %+v", i, port, frame, got, want)
					}
				}
			})
		}
	}
}

// knownUnicast loads snvs with one access VLAN whose two hosts know each
// other and returns a frame from the host on port 1 to the one on port 2.
func knownUnicast(t testing.TB) (*p4.Runtime, []byte) {
	rt, err := p4.NewRuntime(snvs.Pipeline())
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []struct {
		table  string
		keys   []uint64
		action string
		params []uint64
	}{
		{"in_vlan", []uint64{1}, "set_vlan", []uint64{10}},
		{"in_vlan", []uint64{2}, "set_vlan", []uint64{10}},
		{"vlan_ok", []uint64{1, 10}, "vlan_allow", nil},
		{"smac", []uint64{10, 0xa}, "known", nil},
		{"dmac", []uint64{10, 0xb}, "forward", []uint64{2}},
		{"strip_tag", []uint64{2}, "pop_tag", nil},
	} {
		e := p4.Entry{Action: w.action, Params: w.params}
		for _, k := range w.keys {
			e.Matches = append(e.Matches, p4.FieldMatch{Value: k})
		}
		if err := rt.InsertEntry(w.table, e); err != nil {
			t.Fatal(err)
		}
	}
	frame := make([]byte, 60)
	frame[5], frame[11], frame[12] = 0xb, 0xa, 0x08
	return rt, frame
}

// TestProcessAllocs: Process copies a known-unicast frame's output with
// at most two allocations (the output list and its bytes).
func TestProcessAllocs(t *testing.T) {
	rt, frame := knownUnicast(t)
	if res, _ := rt.Process(1, frame); len(res.Outputs) != 1 || res.Outputs[0].Port != 2 {
		t.Fatalf("known unicast: %+v", res)
	}
	if n := testing.AllocsPerRun(1000, func() { rt.Process(1, frame) }); n > 2 {
		t.Fatalf("Process allocates %v per frame, want at most 2", n)
	}
}

// BenchmarkProcess measures known-unicast snvs forwarding through the
// lowered pipeline and, for comparison, through the reference walker.
func BenchmarkProcess(b *testing.B) {
	rt, frame := knownUnicast(b)
	b.Run("plan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rt.Process(1, frame)
		}
	})
	b.Run("walker", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			p4.ReferenceProcess(rt, 1, frame)
		}
	})
}
