package main

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/p4"
)

// model is the configuration the generator knows it has installed: what
// the declarative program must have turned into switch state.
type model struct {
	ports []portSpec
	hosts []staticMAC // static and learnt
}

// model collects the preloaded network, every stream's live slots and
// the MACs learnt so far. Every issued op must have reached the sink.
func (r *runner) model() *model {
	m := &model{ports: append([]portSpec(nil), r.nw.ports...), hosts: append([]staticMAC(nil), r.nw.hosts...)}
	for _, s := range r.streams {
		m.ports = append(m.ports, s.livePorts()...)
	}
	if r.learn != nil {
		m.hosts = append(m.hosts, r.learn.learned...)
	}
	return m
}

// vlanOk lists the (port, vlan) admissions: the access VLAN, or every
// VLAN a trunk carries.
func (m *model) vlanOk(f func(port, vlan uint16)) {
	for _, p := range m.ports {
		if p.access() {
			f(p.Num, p.Vlan)
			continue
		}
		for _, v := range p.Trunks {
			f(p.Num, v)
		}
	}
}

// tables is what snvs.Rules derives from the model, as
// table → match values → action and parameters.
func (m *model) tables() map[string]map[string]string {
	t := map[string]map[string]string{
		"in_vlan": {}, "tag_vlan": {}, "vlan_ok": {}, "smac": {}, "dmac": {}, "flood": {},
		"acl_src": {}, "mirror_ingress": {}, "strip_tag": {}, "add_tag": {},
	}
	for _, p := range m.ports {
		if p.access() {
			t["in_vlan"][fmt.Sprint(p.Num)] = fmt.Sprintf("set_vlan %d", p.Vlan)
			t["strip_tag"][fmt.Sprint(p.Num)] = "pop_tag"
		} else {
			t["add_tag"][fmt.Sprint(p.Num)] = "push_tag"
		}
	}
	m.vlanOk(func(port, vlan uint16) {
		t["vlan_ok"][fmt.Sprintf("%d %d", port, vlan)] = "vlan_allow"
		t["flood"][fmt.Sprint(vlan)] = fmt.Sprintf("set_mcast %d", vgroup(vlan))
	})
	for _, h := range m.hosts {
		t["smac"][fmt.Sprintf("%d %d", h.Vlan, h.MAC)] = "known"
		t["dmac"][fmt.Sprintf("%d %d", h.Vlan, h.MAC)] = fmt.Sprintf("forward %d", h.Port)
	}
	return t
}

// groups is the per-VLAN flood membership.
func (m *model) groups() map[uint16][]uint16 {
	g := make(map[uint16][]uint16)
	m.vlanOk(func(port, vlan uint16) { g[vgroup(vlan)] = append(g[vgroup(vlan)], port) })
	for _, ports := range g {
		sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
	}
	return g
}

// rows lists a subscribable relation's rows as they are rendered to
// subscribers.
func (m *model) rows(rel string, f func(row []any)) {
	switch rel {
	case "InVlan":
		for _, p := range m.ports {
			if p.access() {
				f([]any{float64(p.Num), float64(p.Vlan)})
			}
		}
	case "StripTag":
		for _, p := range m.ports {
			if p.access() {
				f([]any{float64(p.Num)})
			}
		}
	case "VlanOk":
		m.vlanOk(func(port, vlan uint16) { f([]any{float64(port), float64(vlan)}) })
	case "MulticastGroup":
		m.vlanOk(func(port, vlan uint16) { f([]any{float64(vgroup(vlan)), float64(port)}) })
	}
}

func renderEntry(e p4.Entry) (key, val string) {
	ms := make([]string, len(e.Matches))
	for i, fm := range e.Matches {
		ms[i] = fmt.Sprint(fm.Value)
	}
	val = e.Action
	for _, p := range e.Params {
		val += fmt.Sprintf(" %d", p)
	}
	return strings.Join(ms, " "), val
}

// checkSwitch compares every table and multicast group of the switch
// with the model and reports the first differences.
func (m *model) checkSwitch(rt *p4.Runtime) error {
	var diffs []string
	note := func(format string, args ...any) {
		if len(diffs) < 5 {
			diffs = append(diffs, fmt.Sprintf(format, args...))
		}
	}
	want := m.tables()
	for _, tbl := range rt.Program().Tables {
		exp, ok := want[tbl.Name]
		if !ok {
			return fmt.Errorf("oracle: pipeline table %q is not modelled", tbl.Name)
		}
		entries, err := rt.Entries(tbl.Name)
		if err != nil {
			return err
		}
		for _, e := range entries {
			k, v := renderEntry(e)
			if w, ok := exp[k]; !ok {
				note("%s[%s]: unexpected entry %q", tbl.Name, k, v)
			} else if w != v {
				note("%s[%s]: have %q, want %q", tbl.Name, k, v, w)
			}
			delete(exp, k)
		}
		for k, w := range exp {
			note("%s[%s]: missing, want %q", tbl.Name, k, w)
		}
	}
	groups := m.groups()
	for v := 0; v < 4096; v++ {
		g := vgroup(uint16(v))
		if have, exp := fmt.Sprint(rt.MulticastGroup(g)), fmt.Sprint(groups[g]); have != exp {
			note("multicast group %d: have %s, want %s", g, have, exp)
		}
	}
	if len(diffs) > 0 {
		return fmt.Errorf("oracle: switch state differs from the generator's model: %s", strings.Join(diffs, "; "))
	}
	return nil
}

// checkOracle compares the switch, and each subscription's fingerprint,
// with what the ops issued so far must have produced.
func (r *runner) checkOracle() error {
	m := r.model()
	if err := m.checkSwitch(r.st.sw.Runtime()); err != nil {
		return err
	}
	if r.st.fan == nil {
		return nil
	}
	vlan := r.w.churnVlan(r.nw)
	for i, s := range r.st.fan.subs {
		rel := subRelations[s.rel]
		var want uint64
		m.rows(rel.name, func(row []any) {
			if !s.filtered || row[rel.filterCol] == filterValue(s.rel, vlan) {
				want ^= rowHash(s.rel, row)
			}
		})
		if got := s.fp.Load(); got != want {
			return fmt.Errorf("oracle: subscription %d (%s, filtered=%v) fingerprint %016x, want %016x",
				i, rel.name, s.filtered, got, want)
		}
	}
	return nil
}
