package baseline

import (
	_ "embed"
	"fmt"
	"sort"
	"strings"
)

// This file is the Fig. 3 growth model: an OpenFlow-style controller in
// which every network feature is implemented by imperative code that
// scatters flow-rule fragments across the pipeline's tables. The paper
// measured OVN's controller growing this way over five years; offline we
// reproduce the *mechanism* — features 1..k enabled, controller LoC and
// fragment counts measured from the real implementation below — and show
// both curves grow at a similar rate while the declarative equivalents
// stay an order of magnitude smaller.
//
// Feature implementations are delimited by "feature:<name> begin/end"
// markers; FeatureLoC counts the lines between them in this very file.

//go:embed fragments.go
var fragmentsSource string

// Flow is one OpenFlow-style flow rule fragment.
type Flow struct {
	Table    int
	Priority int
	Match    string
	Actions  string
}

// FlowState is the configuration the fragment controller compiles.
type FlowState struct {
	*SNVSState
	QosDSCP     map[uint16]uint8  // port → DSCP marking
	ArpProxy    map[uint32]uint64 // IP → MAC for proxy ARP
	RateLimited map[uint16]bool   // ports with policing
}

// NewFlowState wraps an SNVSState.
func NewFlowState(s *SNVSState) *FlowState {
	return &FlowState{
		SNVSState:   s,
		QosDSCP:     make(map[uint16]uint8),
		ArpProxy:    make(map[uint32]uint64),
		RateLimited: make(map[uint16]bool),
	}
}

// FeatureFunc compiles one feature's slice of the configuration into
// flow fragments.
type FeatureFunc func(st *FlowState, emit func(Flow))

// Feature is one entry of the catalog.
type Feature struct {
	Name        string
	Imperative  FeatureFunc
	Declarative string // equivalent rules in the Datalog dialect
}

// feature:vlan-access begin
func featVlanAccess(st *FlowState, emit func(Flow)) {
	for _, p := range st.Ports {
		if p.Trunk {
			continue
		}
		emit(Flow{Table: 0, Priority: 100,
			Match:   fmt.Sprintf("in_port=%d,vlan_tci=0", p.Num),
			Actions: fmt.Sprintf("set_field:%d->vlan_vid,resubmit(,1)", p.Tag)})
		emit(Flow{Table: 0, Priority: 90,
			Match:   fmt.Sprintf("in_port=%d", p.Num),
			Actions: "drop"})
		emit(Flow{Table: 9, Priority: 100,
			Match:   fmt.Sprintf("reg1=%d", p.Num),
			Actions: "strip_vlan,output:reg1"})
	}
}

// feature:vlan-access end

// feature:vlan-trunk begin
func featVlanTrunk(st *FlowState, emit func(Flow)) {
	for _, p := range st.Ports {
		if !p.Trunk {
			continue
		}
		for _, v := range p.Trunks {
			emit(Flow{Table: 0, Priority: 100,
				Match:   fmt.Sprintf("in_port=%d,dl_vlan=%d", p.Num, v),
				Actions: "resubmit(,1)"})
		}
		emit(Flow{Table: 0, Priority: 95,
			Match:   fmt.Sprintf("in_port=%d,vlan_tci=0", p.Num),
			Actions: "drop"})
		emit(Flow{Table: 0, Priority: 80,
			Match:   fmt.Sprintf("in_port=%d", p.Num),
			Actions: "drop"})
		emit(Flow{Table: 9, Priority: 90,
			Match:   fmt.Sprintf("reg1=%d", p.Num),
			Actions: "output:reg1"})
	}
}

// feature:vlan-trunk end

// feature:flooding begin
func featFlooding(st *FlowState, emit func(Flow)) {
	if !st.FloodUnknown {
		return
	}
	vlanPorts := make(map[uint16][]uint16)
	for _, p := range st.Ports {
		if p.Trunk {
			for _, v := range p.Trunks {
				vlanPorts[v] = append(vlanPorts[v], p.Num)
			}
		} else {
			vlanPorts[p.Tag] = append(vlanPorts[p.Tag], p.Num)
		}
	}
	for v, ports := range vlanPorts {
		sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
		outs := make([]string, len(ports))
		for i, p := range ports {
			outs[i] = fmt.Sprintf("output:%d", p)
		}
		emit(Flow{Table: 3, Priority: 10,
			Match:   fmt.Sprintf("dl_vlan=%d", v),
			Actions: strings.Join(outs, ",")})
	}
}

// feature:flooding end

// feature:mac-learning begin
func featMacLearning(st *FlowState, emit func(Flow)) {
	emit(Flow{Table: 2, Priority: 1, Match: "*",
		Actions: "controller(reason=no_match),resubmit(,3)"})
	for _, l := range st.Learned {
		emit(Flow{Table: 2, Priority: 100,
			Match:   fmt.Sprintf("dl_vlan=%d,dl_src=%012x", l.Vlan, l.Mac),
			Actions: "resubmit(,3)"})
		emit(Flow{Table: 3, Priority: 100,
			Match:   fmt.Sprintf("dl_vlan=%d,dl_dst=%012x", l.Vlan, l.Mac),
			Actions: fmt.Sprintf("load:%d->reg1,resubmit(,9)", l.Port)})
	}
}

// feature:mac-learning end

// feature:static-macs begin
func featStaticMacs(st *FlowState, emit func(Flow)) {
	for _, m := range st.StaticMacs {
		emit(Flow{Table: 3, Priority: 110,
			Match:   fmt.Sprintf("dl_vlan=%d,dl_dst=%012x", m.Vlan, m.Mac),
			Actions: fmt.Sprintf("load:%d->reg1,resubmit(,9)", m.Port)})
		emit(Flow{Table: 2, Priority: 110,
			Match:   fmt.Sprintf("dl_vlan=%d,dl_src=%012x", m.Vlan, m.Mac),
			Actions: "resubmit(,3)"})
	}
}

// feature:static-macs end

// feature:mirroring begin
func featMirroring(st *FlowState, emit func(Flow)) {
	for _, m := range st.Mirrors {
		emit(Flow{Table: 0, Priority: 200,
			Match:   fmt.Sprintf("in_port=%d", m.SrcPort),
			Actions: fmt.Sprintf("clone(output:%d),resubmit(,1)", m.DstPort)})
	}
}

// feature:mirroring end

// feature:acl begin
func featAcl(st *FlowState, emit func(Flow)) {
	for _, a := range st.Acls {
		if a.Deny {
			emit(Flow{Table: 1, Priority: 100,
				Match:   fmt.Sprintf("dl_src=%012x", a.SrcMac),
				Actions: "drop"})
		}
	}
	emit(Flow{Table: 1, Priority: 1, Match: "*", Actions: "resubmit(,2)"})
}

// feature:acl end

// feature:arp-responder begin
func featArpResponder(st *FlowState, emit func(Flow)) {
	for ip, mac := range st.ArpProxy {
		emit(Flow{Table: 1, Priority: 150,
			Match: fmt.Sprintf("arp,arp_op=1,arp_tpa=%d.%d.%d.%d",
				byte(ip>>24), byte(ip>>16), byte(ip>>8), byte(ip)),
			Actions: fmt.Sprintf(
				"move:arp_sha->arp_tha,set_field:%012x->arp_sha,set_field:2->arp_op,in_port", mac)})
	}
}

// feature:arp-responder end

// feature:qos-marking begin
func featQosMarking(st *FlowState, emit func(Flow)) {
	for port, dscp := range st.QosDSCP {
		emit(Flow{Table: 1, Priority: 60,
			Match:   fmt.Sprintf("in_port=%d,ip", port),
			Actions: fmt.Sprintf("set_field:%d->ip_dscp,resubmit(,2)", dscp)})
	}
}

// feature:qos-marking end

// feature:policing begin
func featPolicing(st *FlowState, emit func(Flow)) {
	meter := 1
	for port := range st.RateLimited {
		emit(Flow{Table: 0, Priority: 150,
			Match:   fmt.Sprintf("in_port=%d", port),
			Actions: fmt.Sprintf("meter:%d,resubmit(,1)", meter)})
		meter++
	}
}

// feature:policing end

// feature:lldp-trap begin
func featLldpTrap(st *FlowState, emit func(Flow)) {
	emit(Flow{Table: 0, Priority: 300,
		Match: "dl_type=0x88cc", Actions: "controller(reason=lldp)"})
}

// feature:lldp-trap end

// feature:dhcp-relay begin
func featDhcpRelay(st *FlowState, emit func(Flow)) {
	emit(Flow{Table: 1, Priority: 140,
		Match: "udp,tp_dst=67", Actions: "controller(reason=dhcp)"})
	emit(Flow{Table: 1, Priority: 140,
		Match: "udp,tp_dst=68", Actions: "controller(reason=dhcp)"})
}

// feature:dhcp-relay end

// Catalog returns the feature catalog in growth order (the order features
// were "added to the product over time").
func Catalog() []Feature {
	return []Feature{
		{"vlan-access", featVlanAccess,
			"InVlan(p, t) :- Port(_, _, p, t, \"access\").\nVlanOk(p, t) :- Port(_, _, p, t, \"access\").\nStripTag(p) :- Port(_, _, p, _, \"access\").\n"},
		{"vlan-trunk", featVlanTrunk,
			"VlanOk(p, v) :- Port(u, _, p, _, \"trunk\"), Port_Trunks(u, v).\nAddTag(p) :- Port(_, _, p, _, \"trunk\").\n"},
		{"flooding", featFlooding,
			"Flood(v, g) :- VlanOk(_, v), SwitchCfg(_, true, _), var g = vgroup(v).\nMulticastGroup(g, p) :- VlanOk(p, v), var g = vgroup(v).\n"},
		{"mac-learning", featMacLearning,
			"Dmac(v, m, p) :- Learn(m, v, p), VlanOk(p, v), not StaticKey(v, m).\nSmac(v, m) :- Learn(m, v, p), VlanOk(p, v).\n"},
		{"static-macs", featStaticMacs,
			"StaticKey(v, m) :- StaticMac(_, m, _, v).\nDmac(v, m, p) :- StaticMac(_, m, p, v).\nSmac(v, m) :- StaticMac(_, m, _, v).\n"},
		{"mirroring", featMirroring,
			"MirrorIngress(sp, dp) :- Mirror(_, dp, sp).\n"},
		{"acl", featAcl,
			"AclSrc(m) :- Acl(_, true, m).\n"},
		{"arp-responder", featArpResponder,
			"ArpReply(ip, mac) :- ArpProxy(_, ip, mac).\n"},
		{"qos-marking", featQosMarking,
			"QosMark(p, d) :- Qos(_, d, p).\n"},
		{"policing", featPolicing,
			"Police(p, meter) :- RateLimit(_, meter, p).\n"},
		{"lldp-trap", featLldpTrap,
			"LldpTrap(true).\n"},
		{"dhcp-relay", featDhcpRelay,
			"DhcpTrap(67).\nDhcpTrap(68).\n"},
	}
}

// FragmentController compiles configuration into flows using the first n
// features of the catalog.
type FragmentController struct {
	features []Feature
}

// NewFragmentController enables the first n catalog features (n <= 0
// enables all).
func NewFragmentController(n int) *FragmentController {
	cat := Catalog()
	if n <= 0 || n > len(cat) {
		n = len(cat)
	}
	return &FragmentController{features: cat[:n]}
}

// Flows compiles the state into the full flow table (non-incremental).
func (fc *FragmentController) Flows(st *FlowState) []Flow {
	var out []Flow
	for _, f := range fc.features {
		f.Imperative(st, func(fl Flow) { out = append(out, fl) })
	}
	return out
}

// FragmentSites counts the distinct flow-emission templates of the first
// n features: the static "emit(Flow{" sites scattered through the
// implementation, the quantity Fig. 3 tracks.
func FragmentSites(n int) int {
	cat := Catalog()
	if n <= 0 || n > len(cat) {
		n = len(cat)
	}
	total := 0
	for _, f := range cat[:n] {
		total += strings.Count(featureSource(f.Name), "emit(Flow{")
	}
	return total
}

// FeatureLoC measures the real source lines of the first n feature
// implementations in this file.
func FeatureLoC(n int) int {
	cat := Catalog()
	if n <= 0 || n > len(cat) {
		n = len(cat)
	}
	total := 0
	for _, f := range cat[:n] {
		total += countLines(featureSource(f.Name))
	}
	return total
}

// DeclarativeLoC measures the rule lines of the first n features'
// declarative equivalents.
func DeclarativeLoC(n int) int {
	cat := Catalog()
	if n <= 0 || n > len(cat) {
		n = len(cat)
	}
	total := 0
	for _, f := range cat[:n] {
		total += countLines(f.Declarative)
	}
	return total
}

// featureSource extracts a feature's implementation between its markers.
func featureSource(name string) string {
	begin := "// feature:" + name + " begin"
	end := "// feature:" + name + " end"
	i := strings.Index(fragmentsSource, begin)
	j := strings.Index(fragmentsSource, end)
	if i < 0 || j < 0 || j < i {
		return ""
	}
	return fragmentsSource[i+len(begin) : j]
}

func countLines(s string) int {
	n := 0
	for _, line := range strings.Split(s, "\n") {
		if strings.TrimSpace(line) != "" {
			n++
		}
	}
	return n
}
