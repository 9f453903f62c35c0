package p4of

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"testing"

	"repro/internal/p4"
)

// runFlows runs one packet, given as its OpenFlow field values, through
// a compiled flow table the way an OpenFlow switch does: in each table
// the highest-priority matching flow applies its actions, a flow without
// a goto ends the pipeline, and then the action set runs (a group beats
// an output; an empty set drops). It returns the ports the packet and
// its clones leave by, ascending. A group does not send back out of the
// ingress port.
func runFlows(t *testing.T, flows []Flow, fields map[string]uint64, groups map[uint64][]uint16) []uint16 {
	t.Helper()
	var ports []uint16
	set := map[string]uint64{}
	num := func(s string) uint64 {
		if v, ok := fields[s]; ok {
			return v
		}
		v, err := strconv.ParseUint(s, 0, 64)
		if err != nil {
			t.Fatalf("runFlows: operand %q", s)
		}
		return v
	}
	matches := func(fl *Flow) bool {
		if fl.Match == "" {
			return true
		}
		for _, conj := range strings.Split(fl.Match, ",") {
			name, val, ok := strings.Cut(conj, "=")
			if !ok {
				t.Fatalf("runFlows: match %q", conj)
			}
			mask := ^uint64(0)
			if v, m, ok := strings.Cut(val, "/"); ok {
				if !strings.HasPrefix(m, "0x") {
					t.Fatalf("runFlows: prefix match %q", conj)
				}
				val, mask = v, num(m)
			}
			if fields[name]&mask != num(val)&mask {
				return false
			}
		}
		return true
	}
	for table := 0; table >= 0; {
		var hit *Flow
		for i := range flows {
			if fl := &flows[i]; fl.Table == table && matches(fl) && (hit == nil || fl.Priority > hit.Priority) {
				hit = fl
			}
		}
		if hit == nil {
			t.Fatalf("runFlows: no flow of table %d matches %v", table, fields)
		}
		table = -1
		for _, act := range topLevelActions(hit.Actions) {
			switch kind, arg, _ := strings.Cut(act, ":"); {
			case act == "drop", act == "":
			case act == "clear_actions":
				clear(set)
			case kind == "goto_table":
				table = int(num(arg))
			case kind == "set_field":
				v, f, _ := strings.Cut(arg, "->")
				fields[f] = num(v)
			case strings.HasPrefix(act, "write_actions("):
				k, v, _ := strings.Cut(strings.TrimSuffix(strings.TrimPrefix(act, "write_actions("), ")"), ":")
				set[k] = num(v)
			case strings.HasPrefix(act, "clone(output:"):
				ports = append(ports, uint16(num(strings.TrimSuffix(strings.TrimPrefix(act, "clone(output:"), ")"))))
			case strings.HasPrefix(act, "controller("):
			default:
				t.Fatalf("runFlows: action %q", act)
			}
		}
	}
	if g, ok := set["group"]; ok {
		for _, q := range groups[g] {
			if uint64(q) != fields["standard_metadata_ingress_port"] {
				ports = append(ports, q)
			}
		}
	} else if p, ok := set["output"]; ok {
		ports = append(ports, uint16(p))
	}
	slices.Sort(ports)
	return ports
}

// switchPorts runs frame through the switch's own pipeline and returns
// the ports its copies leave by, ascending.
func switchPorts(t *testing.T, rt *p4.Runtime, port uint16, frame []byte) []uint16 {
	t.Helper()
	res, err := rt.Process(port, frame)
	if err != nil {
		t.Fatal(err)
	}
	var ports []uint16
	for _, o := range res.Outputs {
		ports = append(ports, o.Port)
	}
	slices.Sort(ports)
	return ports
}

// TestDropClearsActionSetAndContinues: P4's drop() only marks the packet.
// The tables after it still run, so a mirror still clones a denied
// frame, and a later output(p) undoes it. The compiled flow does the
// same in OpenFlow: it clears the action set, so an output or group an
// earlier table wrote does not run, and it goes on to the next table.
// Over fixturePrograms, every flow of an action that drops clears the
// action set and keeps its goto; on snvs the
// compiled pipeline and the switch send each frame to the same ports,
// with one exception.
//
// The exception is a multicast(g) after a drop(). The switch's drop flag
// outlives a later multicast, so the switch drops the packet, while
// OpenFlow writes the group into the cleared action set and floods it.
// On snvs that is a frame on a VLAN its port is not admitted to
// (vlan_ok's default drops it) with a destination dmac does not know:
// flood's entry for the VLAN floods it in OpenFlow only. The case below
// pins both outcomes.
func TestDropClearsActionSetAndContinues(t *testing.T) {
	progs := fixturePrograms(t)
	isDrop := func(s p4.Stmt) bool { _, ok := s.(*p4.Drop); return ok }
	for name, prog := range progs {
		pl, err := Compile(prog)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, ct := range pl.Tables {
			calls := []p4.ActionCall{ct.table.DefaultAction}
			for _, a := range ct.table.Actions {
				calls = append(calls, p4.ActionCall{Action: a, Params: make([]uint64, len(prog.ActionByName(a).Params))})
			}
			for _, call := range calls {
				if act := prog.ActionByName(call.Action); act == nil || !slices.ContainsFunc(act.Body, isDrop) {
					continue
				}
				actions, err := pl.compileActionCall(ct, call)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				acts := topLevelActions(actions)
				if !slices.Contains(acts, "clear_actions") || slices.Contains(acts, "drop") {
					t.Errorf("%s: %s/%s = %q, want clear_actions in place of drop", name, ct.Name, call.Action, actions)
				}
				if want := fmt.Sprintf("goto_table:%d", ct.Next); ct.Next >= 0 && acts[len(acts)-1] != want {
					t.Errorf("%s: %s/%s = %q ends the pipeline, want it to end with %s", name, ct.Name, call.Action, actions, want)
				}
			}
		}
	}

	// Ports 1-3 are on VLAN 10 and ports 2-3 on VLAN 20. Source A is
	// denied by acl_src, B is known on port 2 in VLAN 10 and on port 3 in
	// VLAN 20, and frames from port 1 are mirrored to port 4.
	const macA, macB, macC, macD = 0xa, 0xb, 0xc, 0xd
	prog := progs["snvs"]
	pl, err := Compile(prog)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := p4.NewRuntime(prog)
	if err != nil {
		t.Fatal(err)
	}
	install := func(table, action string, params []uint64, keys ...uint64) {
		t.Helper()
		e := p4.Entry{Action: action, Params: params}
		for _, k := range keys {
			e.Matches = append(e.Matches, p4.FieldMatch{Value: k})
		}
		if err := rt.InsertEntry(table, e); err != nil {
			t.Fatal(err)
		}
	}
	for _, port := range []uint64{1, 2, 3} {
		install("in_vlan", "set_vlan", []uint64{10}, port)
		install("vlan_ok", "vlan_allow", nil, port, 10)
		if port != 1 {
			install("vlan_ok", "vlan_allow", nil, port, 20)
		}
	}
	for _, vlan := range []uint64{10, 20} {
		install("smac", "known", nil, vlan, macA)
		install("smac", "known", nil, vlan, macC)
		install("flood", "set_mcast", []uint64{vlan}, vlan)
	}
	install("dmac", "forward", []uint64{2}, 10, macB)
	install("dmac", "forward", []uint64{3}, 20, macB)
	install("acl_src", "acl_deny", nil, macA)
	install("mirror_ingress", "clone_to", []uint64{4}, 1)
	groups := map[uint64][]uint16{10: {1, 2, 3}, 20: {2, 3}}
	for g, ports := range groups {
		rt.SetMulticastGroup(uint16(g), ports)
	}
	flows, err := pl.Flows(rt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		port       uint16
		vid        uint64 // 0: untagged
		src, dst   uint64
		want, ofTo []uint16 // the switch's ports; ofTo only where OpenFlow differs
	}{
		{"allowed known unicast is forwarded and mirrored", 1, 0, macC, macB, []uint16{2, 4}, nil},
		{"denied known unicast is only mirrored", 1, 0, macA, macB, []uint16{4}, nil},
		{"allowed unknown unicast is flooded and mirrored", 1, 0, macC, macD, []uint16{2, 3, 4}, nil},
		{"denied unknown unicast is only mirrored", 1, 0, macA, macD, []uint16{4}, nil},
		{"denied source off the mirrored port goes nowhere", 3, 0, macA, macB, nil, nil},
		{"frame on a port outside every VLAN goes nowhere", 5, 0, macC, macB, nil, nil},
		{"unadmitted VLAN, known unicast: the output undoes the drop", 1, 20, macC, macB, []uint16{3, 4}, nil},
		{"unadmitted VLAN, unknown unicast: multicast after drop", 1, 20, macC, macD, []uint16{4}, []uint16{2, 3, 4}},
	} {
		fields := map[string]uint64{
			"ethernet_dst": c.dst, "ethernet_src": c.src, "ethernet_etype": 0x0800,
			"ethernet_present": 1, "standard_metadata_ingress_port": uint64(c.port),
		}
		frame := []byte{0, 0, 0, 0, 0, byte(c.dst), 0, 0, 0, 0, 0, byte(c.src), 0x08, 0x00}
		if c.vid != 0 {
			fields["ethernet_etype"], fields["vlan_present"], fields["vlan_vid"], fields["vlan_etype"] = 0x8100, 1, c.vid, 0x0800
			frame = append(frame[:12], 0x81, 0x00, byte(c.vid>>8), byte(c.vid), 0x08, 0x00)
		}
		frame = append(frame, "payload"...)
		if got := switchPorts(t, rt, c.port, frame); !slices.Equal(got, c.want) {
			t.Fatalf("%s: switch sends to %v, want %v", c.name, got, c.want)
		}
		want := c.want
		if c.ofTo != nil {
			want = c.ofTo
		}
		if got := runFlows(t, flows, fields, groups); !slices.Equal(got, want) {
			t.Errorf("%s: compiled pipeline sends to %v, want %v:\n%s", c.name, got, want, Render(flows))
		}
	}
}
